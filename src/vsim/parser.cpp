#include "vsim/parser.h"

#include <map>
#include <stdexcept>

#include "vsim/lexer.h"

namespace hlsw::vsim {

namespace {

// ---- The spelling -> Op table -----------------------------------------------
// The lexer only produces the symbol spellings listed in lexer.cpp, so a
// switch on the first character and the length resolves each one.

// A binary operator and its precedence tier, loosest first (|| is 0, the
// multiplicative operators 9); tier -1 marks a token that is not one.
struct BinaryOp {
  Op op = Op::kNone;
  int tier = -1;
};

BinaryOp binary_op(const Token& t) {
  if (t.kind != Tok::kSymbol) return {};
  const std::string& s = t.text;
  const std::size_t n = s.size();
  const char c1 = n > 1 ? s[1] : '\0';
  switch (s[0]) {
    case '|': return n == 1 ? BinaryOp{Op::kOr, 2} : BinaryOp{Op::kLogOr, 0};
    case '&': return n == 1 ? BinaryOp{Op::kAnd, 4} : BinaryOp{Op::kLogAnd, 1};
    case '^': return n == 1 ? BinaryOp{Op::kXor, 3} : BinaryOp{Op::kXnor, 3};
    case '~': return c1 == '^' ? BinaryOp{Op::kXnor, 3} : BinaryOp{};
    case '=': return n > 1 ? BinaryOp{Op::kEq, 5} : BinaryOp{};
    case '!': return n > 1 ? BinaryOp{Op::kNe, 5} : BinaryOp{};
    case '<':
      if (n == 1) return {Op::kLt, 6};
      return c1 == '=' ? BinaryOp{Op::kLe, 6} : BinaryOp{Op::kShl, 7};
    case '>':
      if (n == 1) return {Op::kGt, 6};
      if (c1 == '=') return {Op::kGe, 6};
      return n == 2 ? BinaryOp{Op::kShr, 7} : BinaryOp{Op::kAShr, 7};
    case '+': return {Op::kAdd, 8};
    case '-': return {Op::kSub, 8};
    case '*': return {Op::kMul, 9};
    case '/': return {Op::kDiv, 9};
    case '%': return {Op::kMod, 9};
    default: return {};
  }
}

// The unary operator a symbol token spells, or Op::kNone.
Op unary_op(const Token& t) {
  if (t.kind != Tok::kSymbol) return Op::kNone;
  const std::string& s = t.text;
  const char c1 = s.size() > 1 ? s[1] : '\0';
  switch (s[0]) {
    case '-': return Op::kNeg;
    case '+': return Op::kPlus;
    case '!': return s.size() == 1 ? Op::kLogNot : Op::kNone;
    case '&': return s.size() == 1 ? Op::kRedAnd : Op::kNone;
    case '|': return s.size() == 1 ? Op::kRedOr : Op::kNone;
    case '^': return s.size() == 1 ? Op::kRedXor : Op::kRedXnor;
    case '~':
      switch (c1) {
        case '&': return Op::kRedNand;
        case '|': return Op::kRedNor;
        case '^': return Op::kRedXnor;
        default: return Op::kBitNot;
      }
    default: return Op::kNone;
  }
}

// Register files hold at most this many elements (every engine allocates
// them densely).
constexpr long long kMaxArrayLen = 1 << 20;

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  SourceUnit parse_unit() {
    SourceUnit su;
    while (!at_eof()) su.modules.push_back(parse_module());
    if (su.modules.empty()) fail("no modules in source");
    return su;
  }

 private:
  // ---- Token helpers -------------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  const Token& ahead(std::size_t k) const {
    return toks_[std::min(pos_ + k, toks_.size() - 1)];
  }
  bool at_eof() const { return cur().kind == Tok::kEof; }

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(cur().line, what);
  }
  [[noreturn]] static void fail_at(int line, const std::string& what) {
    throw std::runtime_error("vsim parse error at line " +
                             std::to_string(line) + ": " + what);
  }

  bool is_sym(const char* s) const {
    return cur().kind == Tok::kSymbol && cur().text == s;
  }
  bool is_kw(const char* s) const {
    return cur().kind == Tok::kIdent && cur().text == s;
  }
  Token take() { return std::move(toks_[pos_++]); }
  void expect_sym(const char* s) {
    if (!is_sym(s)) fail(std::string("expected '") + s + "'");
    ++pos_;
  }
  void expect_kw(const char* s) {
    if (!is_kw(s)) fail(std::string("expected keyword '") + s + "'");
    ++pos_;
  }
  bool eat_sym(const char* s) {
    if (!is_sym(s)) return false;
    ++pos_;
    return true;
  }
  bool eat_kw(const char* s) {
    if (!is_kw(s)) return false;
    ++pos_;
    return true;
  }
  std::string expect_ident() {
    if (cur().kind != Tok::kIdent) fail("expected identifier");
    return take().text;
  }

  long long const_int(const ExprPtr& e) const {
    // Declaration ranges and localparam values must fold to integers here
    // (localparam references resolve through the module being parsed).
    switch (e->kind) {
      case ExprKind::kNumber:
        return literal_value(*e);
      case ExprKind::kIdent: {
        auto it = params_.find(e->name);
        if (it == params_.end())
          fail_at(e->line, "'" + e->name + "' is not a constant");
        return it->second;
      }
      case ExprKind::kUnary:
      case ExprKind::kBinary: {
        const long long a = const_int(e->kids[0]);
        const long long b = e->kids.size() > 1 ? const_int(e->kids[1]) : 0;
        long long v;
        if (fold_int(e->op, a, b, &v)) return v;
        break;
      }
      default:
        break;
    }
    fail_at(e->line, "expression is not a supported constant");
  }

  // ---- Modules -------------------------------------------------------------
  Module parse_module() {
    params_.clear();
    Module m;
    m.line = cur().line;
    expect_kw("module");
    m.name = expect_ident();
    if (eat_sym("(")) parse_ansi_ports(&m);
    expect_sym(";");
    while (!eat_kw("endmodule")) {
      if (at_eof()) fail("unexpected end of file inside module");
      parse_module_item(&m);
    }
    return m;
  }

  void parse_ansi_ports(Module* m) {
    if (eat_sym(")")) return;
    do {
      NetDecl d;
      if (eat_kw("input")) d.is_input = true;
      else if (eat_kw("output")) d.is_output = true;
      else fail("expected port direction");
      if (eat_kw("wire")) d.is_reg = false;
      else if (eat_kw("reg")) d.is_reg = true;
      if (eat_kw("signed")) d.is_signed = true;
      d.width = parse_opt_range();
      d.line = cur().line;
      d.name = expect_ident();
      m->port_order.push_back(d.name);
      m->nets.push_back(std::move(d));
    } while (eat_sym(","));
    expect_sym(")");
  }

  // Returns the width of an optional [msb:lsb] range (1 when absent).
  int parse_opt_range() {
    if (!eat_sym("[")) return 1;
    const long long msb = const_int(parse_expr());
    expect_sym(":");
    const long long lsb = const_int(parse_expr());
    expect_sym("]");
    if (lsb != 0 || msb < 0 || msb > 63)
      fail("only [msb:0] ranges with msb<=63 are supported");
    return static_cast<int>(msb) + 1;
  }

  void parse_module_item(Module* m) {
    if (is_kw("reg") || is_kw("wire") || is_kw("integer")) {
      parse_net_decl(m);
      return;
    }
    if (eat_kw("localparam")) {
      do {
        // Optional range on the localparam itself; the value is what counts.
        if (is_sym("[")) parse_opt_range();
        const std::string name = expect_ident();
        expect_sym("=");
        const long long v = const_int(parse_expr());
        params_[name] = v;
        m->localparams.emplace_back(name, v);
      } while (eat_sym(","));
      expect_sym(";");
      return;
    }
    if (eat_kw("assign")) {
      ContAssign a;
      a.lhs = parse_lvalue();
      expect_sym("=");
      a.rhs = parse_expr();
      expect_sym(";");
      m->assigns.push_back(std::move(a));
      return;
    }
    if (eat_kw("always")) {
      m->always.push_back(parse_stmt());
      return;
    }
    if (eat_kw("initial")) {
      m->initials.push_back(parse_stmt());
      return;
    }
    if (eat_kw("task")) {
      m->tasks.push_back(parse_task());
      return;
    }
    if (cur().kind == Tok::kIdent && ahead(1).kind == Tok::kIdent &&
        ahead(2).kind == Tok::kSymbol && ahead(2).text == "(") {
      m->instances.push_back(parse_instance());
      return;
    }
    fail("unsupported module item '" + cur().text + "'");
  }

  void parse_net_decl(Module* m) {
    NetDecl base;
    if (eat_kw("integer")) {
      base.is_reg = true;
      base.is_signed = true;
      base.width = 32;
    } else {
      base.is_reg = eat_kw("reg");
      if (!base.is_reg) expect_kw("wire");
      if (eat_kw("signed")) base.is_signed = true;
      base.width = parse_opt_range();
    }
    do {
      NetDecl d = base;
      d.line = cur().line;
      d.name = expect_ident();
      if (eat_sym("[")) {  // register file: [0:N-1]
        const long long lo = const_int(parse_expr());
        expect_sym(":");
        const long long hi = const_int(parse_expr());
        expect_sym("]");
        if (lo != 0 || hi < 0 || hi >= kMaxArrayLen)
          fail("array bounds must be [0:N-1] with N <= " +
               std::to_string(kMaxArrayLen));
        d.array_len = static_cast<int>(hi) + 1;
      }
      if (eat_sym("=")) {
        d.has_init = true;
        d.init = const_int(parse_expr());
      }
      m->nets.push_back(std::move(d));
    } while (eat_sym(","));
    expect_sym(";");
  }

  TaskDecl parse_task() {
    TaskDecl t;
    t.name = expect_ident();
    if (eat_sym("(")) {
      if (!is_sym(")")) {
        do {
          NetDecl a;
          expect_kw("input");
          if (eat_kw("integer")) {
            a.is_signed = true;
            a.width = 32;
          } else {
            if (eat_kw("reg")) {}
            if (eat_kw("signed")) a.is_signed = true;
            a.width = parse_opt_range();
          }
          a.is_reg = true;
          a.line = cur().line;
          a.name = expect_ident();
          t.args.push_back(std::move(a));
        } while (eat_sym(","));
      }
      expect_sym(")");
    }
    expect_sym(";");
    t.body = parse_stmt();
    expect_kw("endtask");
    return t;
  }

  Instance parse_instance() {
    Instance inst;
    inst.line = cur().line;
    inst.module_name = expect_ident();
    inst.inst_name = expect_ident();
    expect_sym("(");
    if (!is_sym(")")) {
      do {
        expect_sym(".");
        PortConn pc;
        pc.port = expect_ident();
        expect_sym("(");
        if (!is_sym(")")) pc.expr = parse_expr();
        expect_sym(")");
        inst.conns.push_back(std::move(pc));
      } while (eat_sym(","));
    }
    expect_sym(")");
    expect_sym(";");
    return inst;
  }

  // ---- Statements ----------------------------------------------------------
  StmtPtr parse_stmt() {
    auto st = std::make_shared<Stmt>();
    st->line = cur().line;
    if (eat_sym(";")) {
      st->kind = StmtKind::kNull;
      return st;
    }
    if (eat_kw("begin")) {
      st->kind = StmtKind::kBlock;
      while (!eat_kw("end")) {
        if (at_eof()) fail("unexpected end of file inside begin/end");
        st->sub.push_back(parse_stmt());
      }
      return st;
    }
    if (eat_kw("if")) {
      st->kind = StmtKind::kIf;
      expect_sym("(");
      st->cond = parse_expr();
      expect_sym(")");
      st->sub.push_back(parse_stmt());
      if (eat_kw("else")) st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_kw("case")) {
      st->kind = StmtKind::kCase;
      expect_sym("(");
      st->cond = parse_expr();
      expect_sym(")");
      while (!eat_kw("endcase")) {
        if (at_eof()) fail("unexpected end of file inside case");
        CaseItem item;
        if (eat_kw("default")) {
          item.is_default = true;
          eat_sym(":");
        } else {
          do item.labels.push_back(parse_expr());
          while (eat_sym(","));
          expect_sym(":");
        }
        item.body = parse_stmt();
        st->items.push_back(std::move(item));
      }
      return st;
    }
    if (eat_kw("repeat")) {
      st->kind = StmtKind::kRepeat;
      expect_sym("(");
      st->cond = parse_expr();
      expect_sym(")");
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_kw("forever")) {
      st->kind = StmtKind::kForever;
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_sym("@")) {
      st->kind = StmtKind::kEventCtrl;
      expect_sym("(");
      do {
        Edge e = Edge::kAny;
        if (eat_kw("posedge")) e = Edge::kPos;
        else if (eat_kw("negedge")) e = Edge::kNeg;
        st->events.emplace_back(e, parse_expr());
      } while (eat_kw("or") || eat_sym(","));
      expect_sym(")");
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_sym("#")) {
      st->kind = StmtKind::kDelay;
      if (cur().kind != Tok::kNumber) fail("expected delay value after '#'");
      st->delay = static_cast<double>(take().value);
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (cur().kind == Tok::kSysName) {
      st->kind = StmtKind::kSysTask;
      st->callee = take().text;
      if (eat_sym("(")) {
        if (!is_sym(")")) {
          do st->args.push_back(parse_expr());
          while (eat_sym(","));
        }
        expect_sym(")");
      }
      expect_sym(";");
      return st;
    }
    if (cur().kind == Tok::kIdent) {
      // Either a task enable `name(...);` or an assignment.
      if (ahead(1).kind == Tok::kSymbol &&
          (ahead(1).text == "(" || ahead(1).text == ";")) {
        st->kind = StmtKind::kTaskCall;
        st->callee = take().text;
        if (eat_sym("(")) {
          if (!is_sym(")")) {
            do st->args.push_back(parse_expr());
            while (eat_sym(","));
          }
          expect_sym(")");
        }
        expect_sym(";");
        return st;
      }
      st->lhs = parse_lvalue();
      if (eat_sym("=")) st->kind = StmtKind::kBlockingAssign;
      else if (eat_sym("<=")) st->kind = StmtKind::kNbAssign;
      else fail("expected '=' or '<=' in assignment");
      st->rhs = parse_expr();
      expect_sym(";");
      return st;
    }
    fail("unsupported statement starting at '" + cur().text + "'");
  }

  // LHS of an assignment: identifier with optional single element select.
  ExprPtr parse_lvalue() {
    ExprPtr id = node(ExprKind::kIdent, cur().line);
    id->name = expect_ident();
    if (eat_sym("[")) {
      ExprPtr sel = node(ExprKind::kSelect, id->line);
      sel->kids.push_back(std::move(id));
      sel->kids.push_back(parse_expr());
      expect_sym("]");
      return sel;
    }
    return id;
  }

  // ---- Expressions (precedence climbing) ----------------------------------
  static ExprPtr node(ExprKind kind, int line) {
    auto e = std::make_shared<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }

  ExprPtr parse_expr() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    BinaryOp look;
    ExprPtr c = parse_binary(0, &look);
    if (!eat_sym("?")) return c;
    ExprPtr e = node(ExprKind::kTernary, c->line);
    e->kids.push_back(std::move(c));
    e->kids.push_back(parse_ternary());
    expect_sym(":");
    e->kids.push_back(parse_ternary());
    return e;
  }

  // Parses an operand followed by binary operators of tier >= min_tier,
  // left-associative. On return *look classifies the token after the
  // expression, so each operator token is looked up exactly once.
  ExprPtr parse_binary(int min_tier, BinaryOp* look) {
    ExprPtr lhs = parse_unary();
    *look = binary_op(cur());
    while (look->tier >= min_tier) {
      const BinaryOp op = *look;
      ++pos_;
      ExprPtr rhs = parse_binary(op.tier + 1, look);
      ExprPtr e = node(ExprKind::kBinary, lhs->line);
      e->op = op.op;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const Op op = unary_op(cur());
    if (op == Op::kNone) return parse_postfix();
    ExprPtr e = node(ExprKind::kUnary, cur().line);
    e->op = op;
    ++pos_;
    e->kids.push_back(parse_unary());
    return e;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    // Element/bit selects and part selects, possibly chained (m[i][b]).
    while (is_sym("[")) {
      if (e->kind != ExprKind::kIdent && e->kind != ExprKind::kSelect)
        fail("select applied to a non-identifier expression");
      ++pos_;
      ExprPtr first = parse_expr();
      if (eat_sym(":")) {
        ExprPtr r = node(ExprKind::kRange, e->line);
        r->kids.push_back(std::move(e));
        r->kids.push_back(std::move(first));
        r->kids.push_back(parse_expr());
        expect_sym("]");
        e = std::move(r);
      } else {
        ExprPtr s = node(ExprKind::kSelect, e->line);
        s->kids.push_back(std::move(e));
        s->kids.push_back(std::move(first));
        expect_sym("]");
        e = std::move(s);
      }
    }
    return e;
  }

  ExprPtr parse_primary() {
    const int line = cur().line;
    if (cur().kind == Tok::kNumber) {
      const Token& t = cur();
      ExprPtr e = node(ExprKind::kNumber, line);
      e->num = t.value;
      e->num_width = t.width;
      e->num_sized = t.sized;
      e->num_signed = t.is_signed;
      ++pos_;
      return e;
    }
    if (cur().kind == Tok::kString) {
      ExprPtr e = node(ExprKind::kString, line);
      e->str = take().text;
      return e;
    }
    if (cur().kind == Tok::kSysName) {
      ExprPtr e = node(ExprKind::kSysCall, line);
      e->name = take().text;
      if (e->name == "$time") return e;  // argument-less system function
      expect_sym("(");
      do e->kids.push_back(parse_expr());
      while (eat_sym(","));
      expect_sym(")");
      return e;
    }
    if (cur().kind == Tok::kIdent) {
      ExprPtr e = node(ExprKind::kIdent, line);
      e->name = take().text;
      return e;
    }
    if (eat_sym("(")) {
      ExprPtr e = parse_expr();
      expect_sym(")");
      return e;
    }
    if (eat_sym("{")) {
      ExprPtr first = parse_expr();
      if (is_sym("{")) {
        // Replication {N{...}}: the inner braces hold a concat list.
        ++pos_;
        ExprPtr r = node(ExprKind::kReplicate, line);
        r->kids.push_back(std::move(first));  // count
        ExprPtr inner = node(ExprKind::kConcat, line);
        do inner->kids.push_back(parse_expr());
        while (eat_sym(","));
        expect_sym("}");
        r->kids.push_back(inner->kids.size() == 1 ? inner->kids[0] : inner);
        expect_sym("}");
        return r;
      }
      ExprPtr c = node(ExprKind::kConcat, line);
      c->kids.push_back(std::move(first));
      while (eat_sym(",")) c->kids.push_back(parse_expr());
      expect_sym("}");
      return c;
    }
    fail("unexpected token '" + cur().text + "' in expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::map<std::string, long long> params_;
};

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kNone: return "?";
    case Op::kNeg: case Op::kSub: return "-";
    case Op::kPlus: case Op::kAdd: return "+";
    case Op::kBitNot: return "~";
    case Op::kLogNot: return "!";
    case Op::kRedAnd: case Op::kAnd: return "&";
    case Op::kRedNand: return "~&";
    case Op::kRedOr: case Op::kOr: return "|";
    case Op::kRedNor: return "~|";
    case Op::kRedXor: case Op::kXor: return "^";
    case Op::kRedXnor: case Op::kXnor: return "~^";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kMod: return "%";
    case Op::kShl: return "<<";
    case Op::kShr: return ">>";
    case Op::kAShr: return ">>>";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kLogAnd: return "&&";
    case Op::kLogOr: return "||";
  }
  return "?";
}

SourceUnit parse(const std::string& src) { return Parser(lex(src)).parse_unit(); }

}  // namespace hlsw::vsim
