// Abstract syntax for the Verilog-2001 subset hlsw emits and consumes: the
// synthesizable constructs produced by rtl::emit_verilog (nets, register
// files, continuous assigns, one-always FSMs with nonblocking assignment)
// plus the behavioral constructs the generated self-checking testbench uses
// (initial blocks, tasks, event/delay control, $display and friends).
//
// The parser builds this tree verbatim, except that it resolves every
// operator spelling to an Op once; elaboration (elab.h) resolves
// identifiers, folds localparams, annotates every expression with its
// self-determined size and signedness per IEEE 1364-2001 section 4.4/4.5,
// and flattens module instances into a single executable Design. Nodes
// carry the source line they start on for diagnostics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hlsw::vsim {

enum class ExprKind {
  kNumber,     // sized or unsized literal
  kString,     // "..." ($display format)
  kIdent,      // signal or localparam reference
  kSelect,     // base[index] — array element or bit select
  kRange,      // base[hi:lo] — constant part select
  kUnary,      // ~ - + ! and reduction & | ^ ~& ~| ~^
  kBinary,     // arithmetic / bitwise / compare / logical / shift
  kTernary,    // c ? a : b
  kConcat,     // {a, b, ...}
  kReplicate,  // {n{a}}
  kSysCall,    // $signed(x), $unsigned(x)
};

// Operator of a kUnary or kBinary node. The parser holds the one
// spelling -> Op table; every later stage switches on the enum. Unary and
// binary uses of - + & | ^ ~^ are distinct ops, and spellings with one
// two-state meaning share an op (== ===, != !==, ~^ ^~, << <<<).
enum class Op : std::uint8_t {
  kNone,     // not an operator node
  // Unary.
  kNeg,      // -a
  kPlus,     // +a
  kBitNot,   // ~a
  kLogNot,   // !a
  kRedAnd,   // &a
  kRedNand,  // ~&a
  kRedOr,    // |a
  kRedNor,   // ~|a
  kRedXor,   // ^a
  kRedXnor,  // ~^a ^~a
  // Binary.
  kMul,      // *
  kDiv,      // /
  kMod,      // %
  kAdd,      // +
  kSub,      // -
  kShl,      // << <<<
  kShr,      // >>
  kAShr,     // >>> (arithmetic only in a signed context)
  kLt,       // <
  kLe,       // <=
  kGt,       // >
  kGe,       // >=
  kEq,       // == ===
  kNe,       // != !==
  kAnd,      // &
  kXor,      // ^
  kXnor,     // ~^ ^~
  kOr,       // |
  kLogAnd,   // &&
  kLogOr,    // ||
};

// Canonical spelling of `op` for diagnostics ("?" for kNone).
const char* to_string(Op op);

struct Expr {
  ExprKind kind;
  Op op = Op::kNone;  // kUnary / kBinary operator
  int line = 0;       // source line of the node's first token
  // kNumber payload (value bits, declared width, 's flag, sized flag).
  unsigned long long num = 0;
  int num_width = 32;
  bool num_sized = false;
  bool num_signed = false;
  // kString payload.
  std::string str;
  // kIdent name, kSysCall function name.
  std::string name;
  std::vector<std::shared_ptr<Expr>> kids;

  // ---- Elaboration annotations (elab.cpp fills these in) ----
  int sig = -1;       // resolved signal index for kIdent
  int hi = 0, lo = 0; // folded bounds for kRange
  long long repl = 1; // folded replication count
  int self_w = 0;     // self-determined width (LRM 4.4.1 table)
  bool self_sgn = false;  // self-determined signedness (LRM 4.5.1)
};

using ExprPtr = std::shared_ptr<Expr>;

// ---- Integer constant folding ----------------------------------------------
// Shared by the parser (declaration ranges, localparams), the elaborator
// (part selects, replication counts) and lint (literal range checks).

// A kNumber's value, sign-extended when the literal is sized and signed.
inline long long literal_value(const Expr& e) {
  long long v = static_cast<long long>(e.num);
  if (e.num_sized && e.num_width < 64 && e.num_signed &&
      (e.num >> (e.num_width - 1)) & 1)
    v -= 1LL << e.num_width;
  return v;
}

// Folds unary - and + (operand `a`) or binary + - * over 64-bit constants
// in wrapping two's-complement arithmetic, so an overflowing source
// constant is never undefined behaviour. False for any other operator.
inline bool fold_int(Op op, long long a, long long b, long long* out) {
  const auto ua = static_cast<unsigned long long>(a);
  const auto ub = static_cast<unsigned long long>(b);
  switch (op) {
    case Op::kNeg: *out = static_cast<long long>(0 - ua); return true;
    case Op::kPlus: *out = a; return true;
    case Op::kAdd: *out = static_cast<long long>(ua + ub); return true;
    case Op::kSub: *out = static_cast<long long>(ua - ub); return true;
    case Op::kMul: *out = static_cast<long long>(ua * ub); return true;
    default: return false;
  }
}

enum class StmtKind {
  kBlock,          // begin ... end
  kBlockingAssign, // lhs = rhs
  kNbAssign,       // lhs <= rhs
  kIf,             // cond, sub[0] then, sub[1] else (optional)
  kCase,           // cond subject + items
  kRepeat,         // cond count, sub[0] body
  kForever,        // sub[0] body
  kEventCtrl,      // @(events) sub[0]
  kDelay,          // #delay sub[0]
  kTaskCall,       // callee(args) — inlined away during elaboration
  kSysTask,        // $display / $finish / $stop / $dumpfile / $dumpvars
  kNull,           // ;
};

enum class Edge { kPos, kNeg, kAny };

struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

struct CaseItem {
  std::vector<ExprPtr> labels;  // empty + is_default for `default:`
  StmtPtr body;
  bool is_default = false;
};

struct Stmt {
  StmtKind kind;
  int line = 0;  // source line of the statement's first token
  ExprPtr lhs, rhs, cond;
  std::vector<StmtPtr> sub;
  std::vector<CaseItem> items;
  std::vector<std::pair<Edge, ExprPtr>> events;
  double delay = 0;  // time units for kDelay
  std::string callee;
  std::vector<ExprPtr> args;
};

// One declared net/variable (reg, wire, integer, or port).
struct NetDecl {
  std::string name;
  bool is_reg = false;     // reg / integer (procedurally assigned)
  bool is_signed = false;
  int width = 1;
  int array_len = 0;       // 0 = scalar, else register file [0:len-1]
  bool has_init = false;
  long long init = 0;
  bool is_input = false;
  bool is_output = false;
  int line = 0;
};

struct ContAssign {
  ExprPtr lhs;
  ExprPtr rhs;
};

struct PortConn {
  std::string port;
  ExprPtr expr;
};

struct Instance {
  std::string module_name;
  std::string inst_name;
  std::vector<PortConn> conns;
  int line = 0;
};

struct TaskDecl {
  std::string name;
  std::vector<NetDecl> args;  // ANSI input arguments
  StmtPtr body;
};

struct Module {
  std::string name;
  int line = 0;
  std::vector<std::string> port_order;
  std::vector<NetDecl> nets;  // ports included
  std::vector<std::pair<std::string, long long>> localparams;
  std::vector<ContAssign> assigns;
  std::vector<StmtPtr> initials;
  std::vector<StmtPtr> always;
  std::vector<TaskDecl> tasks;
  std::vector<Instance> instances;
};

struct SourceUnit {
  std::vector<Module> modules;
};

}  // namespace hlsw::vsim
