#include "vsim/elab.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace hlsw::vsim {

namespace {

// Names the source line of the construct being elaborated when there is
// one (0: none, e.g. a top module absent from the source).
[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error(
      "vsim elaboration error" +
      (line > 0 ? " at line " + std::to_string(line) : std::string()) +
      ": " + what);
}

// Constant folding over annotated expressions (localparams are already
// literals by the time this runs).
long long fold_const(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber:
      return literal_value(e);
    case ExprKind::kUnary:
    case ExprKind::kBinary: {
      const long long a = fold_const(*e.kids[0]);
      const long long b = e.kids.size() > 1 ? fold_const(*e.kids[1]) : 0;
      long long v;
      if (fold_int(e.op, a, b, &v)) return v;
      break;
    }
    default:
      break;
  }
  fail(e.line, "expression used where a constant is required");
}

class Elaborator {
 public:
  Elaborator(const SourceUnit& su, const Bindings& bound) : bound_(bound) {
    for (const auto& m : su.modules) {
      if (!modules_.emplace(m.name, &m).second)
        fail(m.line, "duplicate module '" + m.name + "'");
    }
  }

  std::shared_ptr<const Design> run(const std::string& top) {
    const Module* m = module(top, /*line=*/0);
    design_ = std::make_shared<Design>();
    design_->top = top;

    Scope scope;
    scope.mod = m;
    // Top-level nets become signals under their own names; top ports keep
    // their direction so harness code can poke inputs / read outputs.
    declare_nets(*m, "", &scope, /*top_level=*/true);
    elaborate_module(*m, scope, 0);
    return design_;
  }

 private:
  struct Scope {
    const Module* mod = nullptr;
    std::string prefix;
    std::map<std::string, int> names;
    std::map<std::string, long long> params;
  };

  // `line` is where the module is referenced (0 for the top).
  const Module* module(const std::string& name, int line) const {
    auto it = modules_.find(name);
    if (it == modules_.end()) fail(line, "unknown module '" + name + "'");
    return it->second;
  }

  // `line` is the declaration that creates the signal.
  int add_signal(Signal s, int line) {
    if (s.width < 1 || s.width > 64)
      fail(line, "signal '" + s.name + "' has unsupported width " +
                     std::to_string(s.width));
    const int idx = static_cast<int>(design_->signals.size());
    if (!design_->signal_index.emplace(s.name, idx).second)
      fail(line, "duplicate signal '" + s.name + "'");
    design_->signals.push_back(std::move(s));
    return idx;
  }

  void declare_nets(const Module& m, const std::string& prefix, Scope* scope,
                    bool top_level) {
    scope->prefix = prefix;
    for (const auto& [name, value] : m.localparams)
      scope->params[name] = value;
    for (const auto& d : m.nets) {
      // Instance port nets are aliased to parent signals by the caller.
      if (!top_level && (d.is_input || d.is_output) &&
          scope->names.count(d.name))
        continue;
      Signal s;
      s.name = prefix + d.name;
      s.width = d.width;
      s.is_signed = d.is_signed;
      s.is_reg = d.is_reg;
      s.array_len = d.array_len;
      s.has_init = d.has_init;
      s.init = d.init;
      if (top_level) {
        s.is_top_input = d.is_input;
        s.is_top_output = d.is_output;
      }
      scope->names[d.name] = add_signal(std::move(s), d.line);
    }
  }

  void elaborate_module(const Module& m, Scope scope, int depth) {
    // Instances first (declaration order), so a testbench's DUT processes
    // precede the testbench's own — a fixed, documented order.
    for (const auto& inst : m.instances) {
      if (depth >= 8) fail(inst.line, "instance nesting too deep");
      if (!modules_.count(inst.module_name)) {
        const auto b = bound_.find(inst.module_name);
        if (b != bound_.end()) {
          bind_instance(inst, b->second, scope);
          continue;
        }
      }
      const Module* inner = module(inst.module_name, inst.line);
      Scope child;
      child.mod = inner;
      const std::string prefix = scope.prefix + inst.inst_name + ".";
      std::set<std::string> inner_ports(inner->port_order.begin(),
                                        inner->port_order.end());
      for (const auto& conn : inst.conns) {
        if (!inner_ports.count(conn.port))
          fail(inst.line, "instance '" + inst.inst_name +
                              "' connects unknown port '" + conn.port + "'");
        const NetDecl* pd = nullptr;
        for (const auto& d : inner->nets)
          if (d.name == conn.port) pd = &d;
        if (pd == nullptr)
          fail(inst.line, "port '" + conn.port + "' has no declaration");
        int sig;
        if (conn.expr == nullptr) {
          Signal s;  // unconnected port: private floating net
          s.name = prefix + conn.port;
          s.width = pd->width;
          s.is_signed = pd->is_signed;
          s.is_reg = pd->is_reg;
          sig = add_signal(std::move(s), inst.line);
        } else {
          if (conn.expr->kind != ExprKind::kIdent)
            fail(inst.line, "port connection '." + conn.port +
                                "(...)' must be a plain identifier");
          auto it = scope.names.find(conn.expr->name);
          if (it == scope.names.end())
            fail(inst.line, "port connection references undeclared '" +
                                conn.expr->name + "'");
          sig = it->second;
          Signal& s = design_->signals[static_cast<size_t>(sig)];
          if (s.width != pd->width)
            fail(inst.line, "width mismatch on port '" + conn.port +
                                "' of instance '" + inst.inst_name + "'");
          // A procedurally driven output makes the connected parent net
          // register-like for lint purposes.
          s.is_reg = s.is_reg || pd->is_reg;
        }
        child.names[conn.port] = sig;
      }
      declare_nets(*inner, prefix, &child, /*top_level=*/false);
      elaborate_module(*inner, child, depth + 1);
    }

    for (const auto& a : m.assigns) {
      ElabAssign ea;
      ExprPtr lhs = a.lhs;
      annotate(&lhs, scope);
      if (lhs->kind != ExprKind::kIdent)
        fail(lhs->line, "continuous assign target must be a scalar signal");
      ea.target = lhs->sig;
      ea.rhs = a.rhs;
      annotate(&ea.rhs, scope);
      collect_reads(*ea.rhs, &ea.deps);
      std::sort(ea.deps.begin(), ea.deps.end());
      ea.deps.erase(std::unique(ea.deps.begin(), ea.deps.end()),
                    ea.deps.end());
      design_->assigns.push_back(std::move(ea));
    }

    int n = 0;
    for (const auto& st : m.always) {
      Process p;
      p.body = st;
      annotate_stmt(&p.body, scope);
      p.is_always = true;
      p.origin = scope.prefix + m.name + ".always[" + std::to_string(n++) + "]";
      design_->processes.push_back(std::move(p));
    }
    n = 0;
    for (const auto& st : m.initials) {
      Process p;
      p.body = st;
      annotate_stmt(&p.body, scope);
      p.is_always = false;
      p.origin =
          scope.prefix + m.name + ".initial[" + std::to_string(n++) + "]";
      design_->processes.push_back(std::move(p));
    }
  }

  // Pairs each connected port with a top port of the bound design, under
  // the checks and messages of a flattened instance. An unconnected port
  // keeps the bound design's own value; a port connected twice takes the
  // last connection, as flattening aliases it.
  void bind_instance(const Instance& inst,
                     const std::shared_ptr<const Design>& bound,
                     const Scope& scope) {
    BoundInstance bi;
    bi.name = scope.prefix + inst.inst_name;
    bi.design = bound;
    for (const auto& conn : inst.conns) {
      const int inner = bound->find(conn.port);
      const Signal* port =
          inner < 0 ? nullptr : &bound->signals[static_cast<size_t>(inner)];
      if (port == nullptr || !(port->is_top_input || port->is_top_output))
        fail(inst.line, "instance '" + inst.inst_name +
                            "' connects unknown port '" + conn.port + "'");
      if (conn.expr == nullptr) continue;
      if (conn.expr->kind != ExprKind::kIdent)
        fail(inst.line, "port connection '." + conn.port +
                            "(...)' must be a plain identifier");
      auto it = scope.names.find(conn.expr->name);
      if (it == scope.names.end())
        fail(inst.line, "port connection references undeclared '" +
                            conn.expr->name + "'");
      Signal& s = design_->signals[static_cast<size_t>(it->second)];
      if (s.width != port->width)
        fail(inst.line, "width mismatch on port '" + conn.port +
                            "' of instance '" + inst.inst_name + "'");
      if (s.array_len > 0)
        fail(inst.line, "port '" + conn.port + "' of instance '" +
                            inst.inst_name + "' connects register file '" +
                            s.name + "'");
      if (port->is_top_output) s.is_reg = s.is_reg || port->is_reg;
      std::erase_if(bi.ports, [inner](const BoundInstance::Port& p) {
        return p.inner == inner;
      });
      bi.ports.push_back({it->second, inner, port->is_top_input});
    }
    design_->instances.push_back(std::move(bi));
  }

  // ---- Statement annotation (with task inlining) ---------------------------
  void annotate_stmt(StmtPtr* sp, Scope& scope) {
    Stmt& st = **sp;
    switch (st.kind) {
      case StmtKind::kBlock:
      case StmtKind::kForever:
        for (auto& s : st.sub) annotate_stmt(&s, scope);
        break;
      case StmtKind::kBlockingAssign:
      case StmtKind::kNbAssign:
        annotate(&st.lhs, scope);
        if (st.lhs->kind != ExprKind::kIdent &&
            st.lhs->kind != ExprKind::kSelect)
          fail(st.line, "unsupported assignment target");
        annotate(&st.rhs, scope);
        break;
      case StmtKind::kIf:
        annotate(&st.cond, scope);
        for (auto& s : st.sub) annotate_stmt(&s, scope);
        break;
      case StmtKind::kCase:
        annotate(&st.cond, scope);
        for (auto& item : st.items) {
          for (auto& l : item.labels) annotate(&l, scope);
          annotate_stmt(&item.body, scope);
        }
        break;
      case StmtKind::kRepeat:
        annotate(&st.cond, scope);
        annotate_stmt(&st.sub[0], scope);
        break;
      case StmtKind::kEventCtrl:
        for (auto& [edge, e] : st.events) {
          annotate(&e, scope);
          if (e->kind != ExprKind::kIdent)
            fail(e->line, "event controls must name a scalar signal");
        }
        annotate_stmt(&st.sub[0], scope);
        break;
      case StmtKind::kDelay:
        annotate_stmt(&st.sub[0], scope);
        break;
      case StmtKind::kSysTask:
        for (auto& a : st.args) annotate(&a, scope);
        break;
      case StmtKind::kTaskCall:
        inline_task(sp, scope);
        break;
      case StmtKind::kNull:
        break;
    }
  }

  void inline_task(StmtPtr* sp, Scope& scope) {
    const Stmt call = **sp;
    const TaskDecl* task = nullptr;
    for (const auto& t : scope.mod->tasks)
      if (t.name == call.callee) task = &t;
    if (task == nullptr)
      fail(call.line, "call to unknown task '" + call.callee + "'");
    if (call.args.size() != task->args.size())
      fail(call.line,
           "task '" + task->name + "' called with wrong argument count");
    if (!tasks_in_progress_.insert(scope.prefix + task->name).second)
      fail(call.line, "recursive task '" + task->name + "' is not supported");

    // Argument signals are created once per elaborated scope; the annotated
    // body is cached and shared across every call site.
    Scope task_scope = scope;
    for (const auto& a : task->args) {
      const std::string full =
          scope.prefix + task->name + "." + a.name;
      int sig = design_->find(full);
      if (sig < 0) {
        Signal s;
        s.name = full;
        s.width = a.width;
        s.is_signed = a.is_signed;
        s.is_reg = true;
        s.is_task_arg = true;
        sig = add_signal(std::move(s), a.line);
      }
      task_scope.names[a.name] = sig;
    }
    const std::string cache_key = scope.prefix + task->name;
    auto it = task_bodies_.find(cache_key);
    if (it == task_bodies_.end()) {
      StmtPtr body = task->body;
      annotate_stmt(&body, task_scope);
      it = task_bodies_.emplace(cache_key, std::move(body)).first;
    }

    auto block = std::make_shared<Stmt>();
    block->kind = StmtKind::kBlock;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      auto asg = std::make_shared<Stmt>();
      asg->kind = StmtKind::kBlockingAssign;
      auto lhs = std::make_shared<Expr>();
      lhs->kind = ExprKind::kIdent;
      lhs->name = task->args[i].name;
      lhs->sig = task_scope.names.at(task->args[i].name);
      const Signal& s = design_->signals[static_cast<size_t>(lhs->sig)];
      lhs->self_w = s.width;
      lhs->self_sgn = s.is_signed;
      asg->lhs = std::move(lhs);
      asg->rhs = call.args[i];
      annotate(&asg->rhs, scope);
      block->sub.push_back(std::move(asg));
    }
    block->sub.push_back(it->second);
    *sp = std::move(block);
    tasks_in_progress_.erase(scope.prefix + task->name);
  }

  // ---- Expression annotation: resolution + LRM self-sizing ----------------
  void annotate(ExprPtr* ep, const Scope& scope) {
    Expr& e = **ep;
    switch (e.kind) {
      case ExprKind::kNumber:
        e.self_w = e.num_sized ? e.num_width : 32;
        e.self_sgn = e.num_signed;
        return;
      case ExprKind::kString:
        e.self_w = 0;
        return;
      case ExprKind::kIdent: {
        auto it = scope.names.find(e.name);
        if (it != scope.names.end()) {
          e.sig = it->second;
          const Signal& s = design_->signals[static_cast<size_t>(e.sig)];
          e.self_w = s.width;
          e.self_sgn = s.is_signed;
          return;
        }
        auto pit = scope.params.find(e.name);
        if (pit != scope.params.end()) {
          // Fold localparams to unsized signed literals in place.
          e.kind = ExprKind::kNumber;
          e.num = static_cast<unsigned long long>(pit->second) & 0xffffffffULL;
          e.num_width = 32;
          e.num_sized = false;
          e.num_signed = true;
          e.self_w = 32;
          e.self_sgn = true;
          return;
        }
        fail(e.line, "undeclared identifier '" + e.name + "'");
      }
      case ExprKind::kSelect: {
        annotate(&e.kids[0], scope);
        annotate(&e.kids[1], scope);
        const Expr& base = *e.kids[0];
        if (base.kind == ExprKind::kIdent && base.sig >= 0 &&
            design_->signals[static_cast<size_t>(base.sig)].array_len > 0) {
          const Signal& s = design_->signals[static_cast<size_t>(base.sig)];
          e.self_w = s.width;   // register-file element select
          e.self_sgn = s.is_signed;
        } else {
          e.self_w = 1;         // bit select
          e.self_sgn = false;
        }
        return;
      }
      case ExprKind::kRange: {
        annotate(&e.kids[0], scope);
        annotate(&e.kids[1], scope);
        annotate(&e.kids[2], scope);
        const long long hi = fold_const(*e.kids[1]);
        const long long lo = fold_const(*e.kids[2]);
        if (lo < 0 || hi < lo || hi > 63)
          fail(e.line, "part select bounds out of range");
        e.hi = static_cast<int>(hi);
        e.lo = static_cast<int>(lo);
        e.self_w = e.hi - e.lo + 1;
        e.self_sgn = false;
        return;
      }
      case ExprKind::kUnary:
        annotate(&e.kids[0], scope);
        switch (e.op) {
          case Op::kNeg: case Op::kPlus: case Op::kBitNot:
            e.self_w = e.kids[0]->self_w;
            e.self_sgn = e.kids[0]->self_sgn;
            break;
          default:  // ! and reductions
            e.self_w = 1;
            e.self_sgn = false;
            break;
        }
        return;
      case ExprKind::kBinary: {
        annotate(&e.kids[0], scope);
        annotate(&e.kids[1], scope);
        switch (e.op) {
          case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe:
          case Op::kGt: case Op::kGe: case Op::kLogAnd: case Op::kLogOr:
            e.self_w = 1;
            e.self_sgn = false;
            break;
          case Op::kShl: case Op::kShr: case Op::kAShr:
            e.self_w = e.kids[0]->self_w;
            e.self_sgn = e.kids[0]->self_sgn;
            break;
          default:
            e.self_w = std::max(e.kids[0]->self_w, e.kids[1]->self_w);
            e.self_sgn = e.kids[0]->self_sgn && e.kids[1]->self_sgn;
            break;
        }
        return;
      }
      case ExprKind::kTernary:
        for (auto& k : e.kids) annotate(&k, scope);
        e.self_w = std::max(e.kids[1]->self_w, e.kids[2]->self_w);
        e.self_sgn = e.kids[1]->self_sgn && e.kids[2]->self_sgn;
        return;
      case ExprKind::kConcat: {
        int w = 0;
        for (auto& k : e.kids) {
          annotate(&k, scope);
          w += k->self_w;
        }
        if (w < 1 || w > 64) fail(e.line, "concatenation wider than 64 bits");
        e.self_w = w;
        e.self_sgn = false;
        return;
      }
      case ExprKind::kReplicate: {
        annotate(&e.kids[0], scope);
        annotate(&e.kids[1], scope);
        e.repl = fold_const(*e.kids[0]);
        const int kw = e.kids[1]->self_w;
        if (e.repl < 1 || kw < 1 || e.repl > 64 / kw)
          fail(e.line, "replication width outside the supported 1..64");
        e.self_w = static_cast<int>(e.repl) * kw;
        e.self_sgn = false;
        return;
      }
      case ExprKind::kSysCall:
        for (auto& k : e.kids) annotate(&k, scope);
        if (e.name == "$signed" || e.name == "$unsigned") {
          if (e.kids.size() != 1) fail(e.line, e.name + " takes one argument");
          e.self_w = e.kids[0]->self_w;
          e.self_sgn = e.name == "$signed";
        } else if (e.name == "$time") {
          e.self_w = 64;
          e.self_sgn = false;
        } else {
          fail(e.line, "unsupported system function '" + e.name + "'");
        }
        return;
    }
  }

  std::map<std::string, const Module*> modules_;
  const Bindings& bound_;
  std::shared_ptr<Design> design_;
  std::map<std::string, StmtPtr> task_bodies_;
  std::set<std::string> tasks_in_progress_;
};

}  // namespace

void collect_reads(const Expr& e, std::vector<int>* out) {
  if (e.kind == ExprKind::kIdent && e.sig >= 0) out->push_back(e.sig);
  for (const auto& k : e.kids)
    if (k) collect_reads(*k, out);
}

std::shared_ptr<const Design> elaborate(const SourceUnit& su,
                                        const std::string& top_module,
                                        const Bindings& bound) {
  return Elaborator(su, bound).run(top_module);
}

}  // namespace hlsw::vsim
