#include "vsim/sim.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/vcd.h"
#include "vsim/compile.h"

namespace hlsw::vsim {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("vsim runtime error: " + what);
}

inline std::uint64_t umask(int w) {
  return w >= 64 ? ~0ULL : (1ULL << w) - 1ULL;
}

// Reinterprets the low `w` bits of `v` as a signed value.
inline long long s64(std::uint64_t v, int w) {
  if (w < 64 && ((v >> (w - 1)) & 1)) v |= ~umask(w);
  return static_cast<long long>(v);
}

}  // namespace

// ---- Bytecode ---------------------------------------------------------------

struct Simulation::Instr {
  enum Op {
    kAssign,      // st->lhs = st->rhs (blocking)
    kNb,          // st->lhs <= st->rhs
    kJump,        // pc = target
    kJumpIfFalse, // pc = cond ? pc+1 : target
    kWaitEdge,    // block until an edge in st->events fires
    kDelay,       // schedule wake at now+delay, block
    kRepeatInit,  // push eval(cond) on the repeat stack
    kRepeatTest,  // top>0 ? (top--, fall through) : (pop, pc = target)
    kSys,         // $display / $finish / $stop / $dumpfile / $dumpvars
    kEnd,         // initial block completed
  };
  Op op;
  const Stmt* st = nullptr;
  const Expr* cond = nullptr;
  int target = 0;
  long long delay = 0;
};

struct Simulation::Thread {
  enum class St { kReady, kWaitEdge, kWaitTimer, kDone };
  std::vector<Instr> code;
  int pc = 0;
  int wait_pc = -1;  // index of the kWaitEdge instruction we are parked on
  St st = St::kReady;
  std::vector<long long> reps;
  bool is_always = false;
  std::string origin;
};

struct Simulation::Compiler {
  Simulation* sim;
  std::vector<Instr>* code;

  int size() const { return static_cast<int>(code->size()); }
  int emit(Instr in) {
    code->push_back(in);
    return size() - 1;
  }

  // case items compile to chained synthetic `subject == label` compares so
  // the kernel needs no dedicated case dispatch. The synthetic nodes live in
  // sim->synth_ for the simulation's lifetime.
  const Expr* match_cond(const ExprPtr& subject, const CaseItem& item) {
    if (item.labels.empty()) fail("case item without labels");
    ExprPtr acc;
    for (const auto& label : item.labels) {
      auto eq = std::make_shared<Expr>();
      eq->kind = ExprKind::kBinary;
      eq->op = Op::kEq;
      eq->line = label->line;
      eq->kids = {subject, label};
      eq->self_w = 1;
      eq->self_sgn = false;
      if (acc == nullptr) {
        acc = std::move(eq);
      } else {
        auto orr = std::make_shared<Expr>();
        orr->kind = ExprKind::kBinary;
        orr->op = Op::kLogOr;
        orr->line = acc->line;
        orr->kids = {acc, eq};
        orr->self_w = 1;
        orr->self_sgn = false;
        acc = std::move(orr);
      }
    }
    sim->synth_.push_back(acc);
    return acc.get();
  }

  void stmt(const Stmt& st) {
    switch (st.kind) {
      case StmtKind::kBlock:
        for (const auto& s : st.sub) stmt(*s);
        break;
      case StmtKind::kBlockingAssign: {
        Instr in;
        in.op = Instr::kAssign;
        in.st = &st;
        emit(in);
        break;
      }
      case StmtKind::kNbAssign: {
        Instr in;
        in.op = Instr::kNb;
        in.st = &st;
        emit(in);
        break;
      }
      case StmtKind::kIf: {
        Instr jf;
        jf.op = Instr::kJumpIfFalse;
        jf.cond = st.cond.get();
        const int j = emit(jf);
        stmt(*st.sub[0]);
        if (st.sub.size() > 1 && st.sub[1] != nullptr) {
          Instr jmp;
          jmp.op = Instr::kJump;
          const int j2 = emit(jmp);
          (*code)[static_cast<size_t>(j)].target = size();
          stmt(*st.sub[1]);
          (*code)[static_cast<size_t>(j2)].target = size();
        } else {
          (*code)[static_cast<size_t>(j)].target = size();
        }
        break;
      }
      case StmtKind::kCase: {
        std::vector<int> exits;
        const CaseItem* def = nullptr;
        for (const auto& item : st.items) {
          if (item.is_default) {
            def = &item;
            continue;
          }
          Instr jf;
          jf.op = Instr::kJumpIfFalse;
          jf.cond = match_cond(st.cond, item);
          const int j = emit(jf);
          stmt(*item.body);
          Instr jmp;
          jmp.op = Instr::kJump;
          exits.push_back(emit(jmp));
          (*code)[static_cast<size_t>(j)].target = size();
        }
        if (def != nullptr) stmt(*def->body);
        for (const int j : exits) (*code)[static_cast<size_t>(j)].target = size();
        break;
      }
      case StmtKind::kRepeat: {
        Instr init;
        init.op = Instr::kRepeatInit;
        init.cond = st.cond.get();
        emit(init);
        Instr test;
        test.op = Instr::kRepeatTest;
        const int t = emit(test);
        stmt(*st.sub[0]);
        Instr jmp;
        jmp.op = Instr::kJump;
        jmp.target = t;
        emit(jmp);
        (*code)[static_cast<size_t>(t)].target = size();
        break;
      }
      case StmtKind::kForever: {
        const int top = size();
        stmt(*st.sub[0]);
        Instr jmp;
        jmp.op = Instr::kJump;
        jmp.target = top;
        emit(jmp);
        break;
      }
      case StmtKind::kEventCtrl: {
        Instr in;
        in.op = Instr::kWaitEdge;
        in.st = &st;
        emit(in);
        stmt(*st.sub[0]);
        break;
      }
      case StmtKind::kDelay: {
        Instr in;
        in.op = Instr::kDelay;
        in.delay = static_cast<long long>(st.delay);
        emit(in);
        stmt(*st.sub[0]);
        break;
      }
      case StmtKind::kSysTask: {
        Instr in;
        in.op = Instr::kSys;
        in.st = &st;
        emit(in);
        break;
      }
      case StmtKind::kNull:
        break;
      case StmtKind::kTaskCall:
        fail("task call survived elaboration");
    }
  }
};

// ---- Bound instances --------------------------------------------------------

struct Simulation::Bound {
  const BoundInstance* inst;
  std::unique_ptr<CompiledSim> sim;  // on the bound design's plan
  bool dirty;  // an input net changed since the last step
};

// ---- VCD recording ----------------------------------------------------------

struct Simulation::Dump {
  rtl::VcdCore core;
  // Signals touched since the last flush, as (signal, element) pairs with
  // element -1 for scalars. Changes are coalesced here and emitted in
  // ascending (signal, element) order at time-slot boundaries, so the VCD
  // records each slot's NET state delta — independent of the order the
  // engine happened to evaluate processes in.
  std::set<std::pair<int, long long>> pending;
  explicit Dump(const std::string& scope)
      : core(/*timescale_ns=*/1.0, scope, "hlsw vsim") {}
};

// ---- Construction -----------------------------------------------------------

Simulation::Simulation(std::shared_ptr<const Design> design,
                       const SimConfig& cfg)
    : design_(std::move(design)), cfg_(cfg) {
  if (cfg_.backend != Backend::kEvent) {
    // Cycle-schedulable designs run on the levelized compiled backend.
    // Everything else (delays, system tasks, repeat, $time, feedback,
    // bound instances) keeps the event kernel below, with the levelizer's
    // reason. The Design keeps its plan, so sweep legs and harness replays
    // share one compilation.
    auto plan = compiled_plan(design_, &fallback_reason_);
    if (plan != nullptr) {
      compiled_ = std::make_unique<CompiledSim>(std::move(plan), cfg_);
      return;
    }
  }
  const auto n = design_->signals.size();
  val_.assign(n, 0);
  arr_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Signal& s = design_->signals[i];
    if (s.array_len > 0)
      arr_[i].assign(static_cast<size_t>(s.array_len), 0);
    else if (s.has_init)
      val_[i] = static_cast<std::uint64_t>(s.init) & mask(s.width);
  }

  // Each bound instance takes its input nets' initial values now, and
  // every one is stepped in the time-0 region below, which brings its
  // outputs onto their nets.
  if (!design_->instances.empty()) feeds_bound_.assign(n, 0);
  for (const BoundInstance& bi : design_->instances) {
    std::string why;
    auto plan = compiled_plan(bi.design, &why);
    if (plan == nullptr)
      fail("bound instance '" + bi.name + "' does not compile: " + why);
    Bound b{&bi, std::make_unique<CompiledSim>(std::move(plan), cfg_), true};
    for (const BoundInstance::Port& p : bi.ports) {
      if (!p.is_input) continue;
      feeds_bound_[static_cast<size_t>(p.sig)] = 1;
      b.sim->poke(p.inner, val_[static_cast<size_t>(p.sig)]);
    }
    bound_.push_back(std::move(b));
  }
  bound_dirty_ = !bound_.empty();

  dep_map_.resize(n);
  for (std::size_t ai = 0; ai < design_->assigns.size(); ++ai)
    for (const int dep : design_->assigns[ai].deps)
      dep_map_[static_cast<size_t>(dep)].push_back(static_cast<int>(ai));

  // Every continuous assign evaluates once at time zero.
  comb_queued_.assign(design_->assigns.size(), 1);
  for (std::size_t ai = 0; ai < design_->assigns.size(); ++ai)
    comb_q_.push_back(static_cast<int>(ai));

  threads_.reserve(design_->processes.size());
  for (const Process& p : design_->processes) {
    Thread th;
    th.origin = p.origin;
    th.is_always = p.is_always;
    Compiler c{this, &th.code};
    c.stmt(*p.body);
    Instr tail;
    if (p.is_always) {
      tail.op = Instr::kJump;
      tail.target = 0;
      bool blocks = false;
      for (const Instr& in : th.code)
        if (in.op == Instr::kWaitEdge || in.op == Instr::kDelay) blocks = true;
      if (!blocks)
        fail("always block '" + p.origin + "' has no event or delay control");
    } else {
      tail.op = Instr::kEnd;
    }
    th.code.push_back(tail);
    threads_.push_back(std::move(th));
  }

  settle();  // time-0 active region
}

Simulation::~Simulation() = default;

// ---- Evaluation -------------------------------------------------------------

std::uint64_t Simulation::extend(std::uint64_t v, int from, int to, bool sgn) {
  if (to <= from) return v & umask(to);
  if (sgn && ((v >> (from - 1)) & 1)) v |= ~umask(from);
  return v & umask(to);
}

std::uint64_t Simulation::eval_self(const Expr& e) const {
  return eval(e, e.self_w, e.self_sgn);
}

long long Simulation::eval_signed_self(const Expr& e) const {
  const std::uint64_t v = eval_self(e);
  return e.self_sgn ? s64(v, e.self_w) : static_cast<long long>(v);
}

// Context-determined evaluation per IEEE 1364-2001 4.4/4.5: `W` is the
// propagated expression width, `S` the propagated signedness. Operands whose
// own kind forms a self-determined boundary (numbers, idents, selects,
// concats, reductions, comparisons) produce their self-sized value and are
// then extended to W — sign-extended iff S.
std::uint64_t Simulation::eval(const Expr& e, int ctx_w, bool ctx_sgn) const {
  const int W = ctx_w;
  const bool S = ctx_sgn;
  switch (e.kind) {
    case ExprKind::kNumber:
      return extend(e.num & umask(e.self_w), e.self_w, W, S);
    case ExprKind::kString:
      fail("string literal used as a value");
    case ExprKind::kIdent: {
      const Signal& s = design_->signals[static_cast<size_t>(e.sig)];
      if (s.array_len > 0)
        fail("register file '" + s.name + "' used without an element select");
      return extend(val_[static_cast<size_t>(e.sig)], e.self_w, W, S);
    }
    case ExprKind::kSelect: {
      const Expr& base = *e.kids[0];
      const long long idx = eval_signed_self(*e.kids[1]);
      if (base.kind == ExprKind::kIdent && base.sig >= 0) {
        const Signal& s = design_->signals[static_cast<size_t>(base.sig)];
        if (s.array_len > 0) {  // register-file element (reads past the end
          const auto& a = arr_[static_cast<size_t>(base.sig)];  // read as 0)
          const std::uint64_t v =
              (idx >= 0 && idx < static_cast<long long>(a.size()))
                  ? a[static_cast<size_t>(idx)]
                  : 0;
          return extend(v, e.self_w, W, S);
        }
      }
      const std::uint64_t bv = eval_self(base);
      const std::uint64_t bit =
          (idx >= 0 && idx < base.self_w) ? (bv >> idx) & 1 : 0;
      return extend(bit, 1, W, S);
    }
    case ExprKind::kRange: {
      const std::uint64_t bv = eval_self(*e.kids[0]);
      return extend((bv >> e.lo) & umask(e.self_w), e.self_w, W, S);
    }
    case ExprKind::kUnary: {
      const Expr& k = *e.kids[0];
      switch (e.op) {
        case Op::kNeg: return (0 - eval(k, W, S)) & umask(W);
        case Op::kPlus: return eval(k, W, S);
        case Op::kBitNot: return ~eval(k, W, S) & umask(W);
        default: break;
      }
      // ! and the reductions: self-determined operand, 1-bit result.
      const std::uint64_t x = eval_self(k);
      const std::uint64_t all = umask(k.self_w);
      std::uint64_t r;
      switch (e.op) {
        case Op::kLogNot: r = x == 0; break;
        case Op::kRedAnd: r = x == all; break;
        case Op::kRedNand: r = x != all; break;
        case Op::kRedOr: r = x != 0; break;
        case Op::kRedNor: r = x == 0; break;
        case Op::kRedXor:
          r = static_cast<std::uint64_t>(
              __builtin_parityll(static_cast<long long>(x)));
          break;
        case Op::kRedXnor:
          r = static_cast<std::uint64_t>(
              !__builtin_parityll(static_cast<long long>(x)));
          break;
        default:
          fail(std::string("unknown unary operator '") + to_string(e.op) +
               "'");
      }
      return extend(r, 1, W, S);
    }
    case ExprKind::kBinary: {
      const Expr& k0 = *e.kids[0];
      const Expr& k1 = *e.kids[1];
      switch (e.op) {
        case Op::kLogAnd: case Op::kLogOr: {
          // Both sides evaluate (no short circuit), like the compiled tapes.
          const bool a = eval_self(k0) != 0;
          const bool b = eval_self(k1) != 0;
          return extend(e.op == Op::kLogAnd ? a && b : a || b, 1, W, S);
        }
        case Op::kEq: case Op::kNe:
        case Op::kLt: case Op::kLe: case Op::kGt: case Op::kGe: {
          // Comparison context: operands sized to the larger self width,
          // compared signed iff both are signed (two-state, so === is ==).
          const int wc = std::max(k0.self_w, k1.self_w);
          const bool sc = k0.self_sgn && k1.self_sgn;
          const std::uint64_t a = eval(k0, wc, sc);
          const std::uint64_t b = eval(k1, wc, sc);
          const long long sa = sc ? s64(a, wc) : 0, sb = sc ? s64(b, wc) : 0;
          bool r;
          switch (e.op) {
            case Op::kEq: r = a == b; break;
            case Op::kNe: r = a != b; break;
            case Op::kLt: r = sc ? sa < sb : a < b; break;
            case Op::kLe: r = sc ? sa <= sb : a <= b; break;
            case Op::kGt: r = sc ? sa > sb : a > b; break;
            default: r = sc ? sa >= sb : a >= b; break;
          }
          return extend(r, 1, W, S);
        }
        case Op::kShl: case Op::kShr: case Op::kAShr: {
          // Left operand is context-determined; the amount is
          // self-determined. >>> is arithmetic only when the propagated
          // expression is signed.
          const std::uint64_t a = eval(k0, W, S);
          const std::uint64_t sh = eval_self(k1);
          if (e.op == Op::kShl) return sh >= 64 ? 0 : (a << sh) & umask(W);
          if (e.op == Op::kShr || !S) return sh >= 64 ? 0 : a >> sh;
          const long long sa = s64(a, W);
          return static_cast<std::uint64_t>(sa >> (sh > 63 ? 63 : sh)) &
                 umask(W);
        }
        default:
          break;
      }
      const std::uint64_t a = eval(k0, W, S);
      const std::uint64_t b = eval(k1, W, S);
      std::uint64_t r;
      switch (e.op) {
        case Op::kAdd: r = a + b; break;
        case Op::kSub: r = a - b; break;
        case Op::kMul: r = a * b; break;
        case Op::kDiv: case Op::kMod: {
          const bool div = e.op == Op::kDiv;
          if (S) {
            const long long sa = s64(a, W), sb = s64(b, W);
            if (sb == 0) r = 0;
            else if (sb == -1)  // avoid INT64_MIN / -1 overflow
              r = div ? 0 - a : 0;
            else
              r = static_cast<std::uint64_t>(div ? sa / sb : sa % sb);
          } else {
            r = b == 0 ? 0 : (div ? a / b : a % b);
          }
          break;
        }
        case Op::kAnd: r = a & b; break;
        case Op::kOr: r = a | b; break;
        case Op::kXor: r = a ^ b; break;
        case Op::kXnor: r = ~(a ^ b); break;
        default:
          fail(std::string("unknown binary operator '") + to_string(e.op) +
               "'");
      }
      return r & umask(W);
    }
    case ExprKind::kTernary:
      return eval(eval_self(*e.kids[0]) != 0 ? *e.kids[1] : *e.kids[2], W, S);
    case ExprKind::kConcat: {
      std::uint64_t v = 0;
      for (const auto& k : e.kids)
        v = (v << k->self_w) | (eval_self(*k) & umask(k->self_w));
      return extend(v, e.self_w, W, S);
    }
    case ExprKind::kReplicate: {
      const Expr& k = *e.kids[1];
      const std::uint64_t kv = eval_self(k) & umask(k.self_w);
      std::uint64_t v = 0;
      for (long long i = 0; i < e.repl; ++i) v = (v << k.self_w) | kv;
      return extend(v, e.self_w, W, S);
    }
    case ExprKind::kSysCall: {
      if (e.name == "$time")
        return extend(static_cast<std::uint64_t>(time_), 64, W, S);
      // $signed/$unsigned: the argument is self-determined; its raw bits are
      // reinterpreted, and context extension follows the new signedness
      // already folded into self_sgn/S by elaboration.
      return extend(eval_self(*e.kids[0]), e.self_w, W, S);
    }
  }
  fail("unreachable expression kind");
}

// ---- State updates ----------------------------------------------------------

void Simulation::set_scalar(int sig, std::uint64_t v) {
  const Signal& s = design_->signals[static_cast<size_t>(sig)];
  v &= mask(s.width);
  const std::uint64_t old = val_[static_cast<size_t>(sig)];
  if (old == v) return;
  val_[static_cast<size_t>(sig)] = v;
  on_change(sig, old, v);
}

void Simulation::set_elem(int sig, long long index, std::uint64_t v) {
  auto& a = arr_[static_cast<size_t>(sig)];
  if (index < 0 || index >= static_cast<long long>(a.size())) return;
  const Signal& s = design_->signals[static_cast<size_t>(sig)];
  v &= mask(s.width);
  if (a[static_cast<size_t>(index)] == v) return;
  a[static_cast<size_t>(index)] = v;
  ++stats_.events;
  if (dumping_) dump_change(sig, index);
  for (const int ai : dep_map_[static_cast<size_t>(sig)]) {
    if (!comb_queued_[static_cast<size_t>(ai)]) {
      comb_queued_[static_cast<size_t>(ai)] = 1;
      comb_q_.push_back(ai);
    }
  }
}

void Simulation::on_change(int sig, std::uint64_t old_v, std::uint64_t new_v) {
  ++stats_.events;
  if (dumping_) dump_change(sig, -1);
  for (const int ai : dep_map_[static_cast<size_t>(sig)]) {
    if (!comb_queued_[static_cast<size_t>(ai)]) {
      comb_queued_[static_cast<size_t>(ai)] = 1;
      comb_q_.push_back(ai);
    }
  }
  if (!feeds_bound_.empty() && feeds_bound_[static_cast<size_t>(sig)]) {
    for (Bound& b : bound_)
      for (const BoundInstance::Port& p : b.inst->ports)
        if (p.is_input && p.sig == sig) b.dirty = true;
    bound_dirty_ = true;
  }
  const bool pos = !(old_v & 1) && (new_v & 1);
  const bool neg = (old_v & 1) && !(new_v & 1);
  for (auto& th : threads_) {
    if (th.st != Thread::St::kWaitEdge) continue;
    const Stmt& wait = *th.code[static_cast<size_t>(th.wait_pc)].st;
    for (const auto& [edge, ev] : wait.events) {
      if (ev->sig != sig) continue;
      if (edge == Edge::kAny || (edge == Edge::kPos && pos) ||
          (edge == Edge::kNeg && neg)) {
        th.st = Thread::St::kReady;
        th.wait_pc = -1;
        break;
      }
    }
  }
}

// Combinational-loop guard: assign evaluations one flush may take.
constexpr int kMaxCombIterations = 1'000'000;

void Simulation::flush_comb() {
  int iters = 0;
  while (comb_head_ < comb_q_.size()) {
    if (++iters > kMaxCombIterations)
      fail("combinational loop did not converge");
    const int ai = comb_q_[comb_head_++];
    comb_queued_[static_cast<size_t>(ai)] = 0;
    const ElabAssign& a = design_->assigns[static_cast<size_t>(ai)];
    const Signal& t = design_->signals[static_cast<size_t>(a.target)];
    const int w = std::max(t.width, a.rhs->self_w);
    set_scalar(a.target, eval(*a.rhs, w, a.rhs->self_sgn));
  }
  comb_q_.clear();
  comb_head_ = 0;
}

void Simulation::commit_nba() {
  std::vector<NbaEntry> q;
  q.swap(nba_q_);
  stats_.nba_commits += static_cast<long long>(q.size());
  for (const NbaEntry& e : q) {
    const Signal& s = design_->signals[static_cast<size_t>(e.sig)];
    if (s.array_len > 0) {
      set_elem(e.sig, e.index, e.value);
    } else if (e.index >= 0) {  // nonblocking bit write, committed RMW
      if (e.index < s.width) {
        const std::uint64_t old = val_[static_cast<size_t>(e.sig)];
        set_scalar(e.sig, (old & ~(1ULL << e.index)) |
                              ((e.value & 1ULL) << e.index));
      }
    } else {
      set_scalar(e.sig, e.value);
    }
  }
}

void Simulation::exec_assign(const Expr& lhs, const Expr& rhs,
                             bool nonblocking) {
  // Assignment context: RHS evaluated at max(lhs, rhs) width with the RHS's
  // own signedness, then truncated to the target width.
  const int w = std::max(lhs.self_w, rhs.self_w);
  std::uint64_t v = eval(rhs, w, rhs.self_sgn);
  if (lhs.kind == ExprKind::kIdent) {
    const Signal& s = design_->signals[static_cast<size_t>(lhs.sig)];
    v &= mask(s.width);
    if (nonblocking) nba_q_.push_back({lhs.sig, -1, v});
    else set_scalar(lhs.sig, v);
    return;
  }
  const Expr& base = *lhs.kids[0];
  const long long idx = eval_signed_self(*lhs.kids[1]);
  const Signal& s = design_->signals[static_cast<size_t>(base.sig)];
  if (s.array_len > 0) {
    v &= mask(s.width);
    if (nonblocking) nba_q_.push_back({base.sig, idx, v});
    else set_elem(base.sig, idx, v);
  } else {
    if (nonblocking) {
      nba_q_.push_back({base.sig, idx, v & 1});
    } else if (idx >= 0 && idx < s.width) {
      const std::uint64_t old = val_[static_cast<size_t>(base.sig)];
      set_scalar(base.sig,
                 (old & ~(1ULL << idx)) | ((v & 1ULL) << idx));
    }
  }
}

// ---- Threads ----------------------------------------------------------------

void Simulation::run_thread(int tid) {
  Thread& th = threads_[static_cast<size_t>(tid)];
  for (;;) {
    if (stats_.instrs - slot_instr_base_ > cfg_.max_instrs_per_slot)
      fail("instruction budget exceeded without time advancing "
           "(zero-delay loop in " + th.origin + "?)");
    const Instr& in = th.code[static_cast<size_t>(th.pc)];
    ++stats_.instrs;
    switch (in.op) {
      case Instr::kAssign:
        exec_assign(*in.st->lhs, *in.st->rhs, false);
        ++th.pc;
        break;
      case Instr::kNb:
        exec_assign(*in.st->lhs, *in.st->rhs, true);
        ++th.pc;
        break;
      case Instr::kJump:
        th.pc = in.target;
        break;
      case Instr::kJumpIfFalse:
        th.pc = eval_self(*in.cond) != 0 ? th.pc + 1 : in.target;
        break;
      case Instr::kWaitEdge:
        th.wait_pc = th.pc;
        ++th.pc;
        th.st = Thread::St::kWaitEdge;
        return;
      case Instr::kDelay:
        timers_.push({time_ + in.delay, timer_seq_++, tid});
        ++th.pc;
        th.st = Thread::St::kWaitTimer;
        return;
      case Instr::kRepeatInit:
        th.reps.push_back(eval_signed_self(*in.cond));
        ++th.pc;
        break;
      case Instr::kRepeatTest:
        if (th.reps.back() > 0) {
          --th.reps.back();
          ++th.pc;
        } else {
          th.reps.pop_back();
          th.pc = in.target;
        }
        break;
      case Instr::kSys:
        exec_sys(*in.st);
        ++th.pc;
        if (finished_ || stopped_) {
          // $finish/$stop end this thread for good — a later settle() (the
          // ctor runs one, run() another) must not resume past the stop.
          th.st = Thread::St::kDone;
          return;
        }
        break;
      case Instr::kEnd:
        th.st = Thread::St::kDone;
        return;
    }
  }
}

// ---- Regions ----------------------------------------------------------------

// One step of every bound instance whose inputs changed: poke the inputs
// (unchanged ones are no-ops), settle, and write the outputs back through
// set_scalar, so a changed one is an event here. A step costs one
// instruction plus the instance's own against the slot budget.
void Simulation::step_bound() {
  bound_dirty_ = false;
  for (Bound& b : bound_) {
    if (!b.dirty) continue;
    b.dirty = false;
    if (stats_.instrs - slot_instr_base_ > cfg_.max_instrs_per_slot)
      fail("instruction budget exceeded without time advancing "
           "(zero-delay loop through bound instance '" + b.inst->name +
           "'?)");
    const long long instrs = b.sim->stats().instrs;
    for (const BoundInstance::Port& p : b.inst->ports)
      if (p.is_input) b.sim->poke(p.inner, val_[static_cast<size_t>(p.sig)]);
    b.sim->settle();
    stats_.instrs += 1 + b.sim->stats().instrs - instrs;
    for (const BoundInstance::Port& p : b.inst->ports)
      if (!p.is_input) set_scalar(p.sig, b.sim->peek(p.inner));
  }
}

void Simulation::settle() {
  if (compiled_) {
    compiled_->settle();
    return;
  }
  slot_instr_base_ = stats_.instrs;
  for (;;) {
    flush_comb();
    int ready = -1;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      if (threads_[t].st == Thread::St::kReady) {
        ready = static_cast<int>(t);
        break;
      }
    }
    if (ready >= 0) {
      run_thread(ready);
      if (finished_ || stopped_) break;
      continue;
    }
    if (bound_dirty_) {
      step_bound();
      continue;
    }
    if (nba_q_.empty()) break;
    commit_nba();
    ++stats_.delta_cycles;
  }
  if (dumping_) flush_dump();
}

RunResult Simulation::run() {
  if (compiled_) {
    // No timers, output or dumps on the compiled engine: settle and
    // report. Its event and commit totals reach the metrics registry when
    // the engine retires.
    obs::ScopedSpan span("vsim.run", "vsim");
    if (span.active()) span.arg("backend", backend());
    settle();
    return {};
  }
  obs::ScopedSpan span("vsim.run", "vsim");
  const bool metrics = obs::enabled();
  long long ev_base = stats_.events;
  RunResult r;
  settle();
  while (!finished_ && !stopped_ && !timers_.empty()) {
    const long long t = timers_.top().time;
    if (t > cfg_.max_time) {
      r.timed_out = true;
      break;
    }
    if (t != time_) {
      if (metrics)
        obs::MetricsRegistry::instance().observe(
            "vsim.events_per_cycle", static_cast<double>(stats_.events - ev_base));
      ev_base = stats_.events;
      time_ = t;
      ++stats_.time_slots;
    }
    while (!timers_.empty() && timers_.top().time == t) {
      threads_[static_cast<size_t>(timers_.top().tid)].st =
          Thread::St::kReady;
      timers_.pop();
    }
    settle();
  }
  if (metrics) {
    auto& m = obs::MetricsRegistry::instance();
    m.add("vsim.events", static_cast<double>(stats_.events));
    m.add("vsim.nba_commits", static_cast<double>(stats_.nba_commits));
  }
  r.finished = finished_;
  r.stopped = stopped_;
  r.end_time = time_;
  r.display = display_;
  r.vcd_name = dump_name_;
  if (dumping_) r.vcd_text = dump_->core.str(time_);
  return r;
}

// ---- External-driver mode ---------------------------------------------------

int Simulation::require(const std::string& name) const {
  const int sig = design_->find(name);
  if (sig < 0) fail("no signal named '" + name + "'");
  return sig;
}

void Simulation::poke(const std::string& name, unsigned long long value) {
  poke(require(name), value);
}

unsigned long long Simulation::peek(const std::string& name) const {
  return peek(require(name));
}

long long Simulation::peek_signed(const std::string& name) const {
  return peek_signed(require(name));
}

unsigned long long Simulation::peek_elem(const std::string& name,
                                         int index) const {
  return peek_elem(require(name), index);
}

int Simulation::signal_handle(const std::string& name) const {
  return require(name);
}

void Simulation::poke(int sig, unsigned long long value) {
  if (compiled_) {
    compiled_->poke(sig, value);
    return;
  }
  set_scalar(sig, value);
}

unsigned long long Simulation::peek(int sig) const {
  if (compiled_) return compiled_->peek(sig);
  return val_[static_cast<size_t>(sig)];
}

long long Simulation::peek_signed(int sig) const {
  if (compiled_) return compiled_->peek_signed(sig);
  return s64(val_[static_cast<size_t>(sig)],
             design_->signals[static_cast<size_t>(sig)].width);
}

unsigned long long Simulation::peek_elem(int sig, int index) const {
  if (compiled_) return compiled_->peek_elem(sig, index);
  const auto& a = arr_[static_cast<size_t>(sig)];
  if (index < 0 || index >= static_cast<int>(a.size()))
    fail("element " + std::to_string(index) + " out of range for '" +
         design_->signals[static_cast<size_t>(sig)].name + "'");
  return a[static_cast<size_t>(index)];
}

long long Simulation::now() const {
  return time_;  // never advanced on the compiled engine
}

const SimStats& Simulation::stats() const {
  return compiled_ ? compiled_->stats() : stats_;
}

const char* Simulation::backend() const {
  return compiled_ ? "compiled" : "event";
}

// ---- System tasks -----------------------------------------------------------

std::string Simulation::format_display(const Stmt& st) const {
  if (st.args.empty()) return "";
  if (st.args[0]->kind != ExprKind::kString) {
    // Bare $display(expr, ...): space-separated decimal values.
    std::ostringstream os;
    for (std::size_t i = 0; i < st.args.size(); ++i) {
      if (i) os << " ";
      os << eval_signed_self(*st.args[i]);
    }
    return os.str();
  }
  const std::string& fmt = st.args[0]->str;
  std::ostringstream os;
  std::size_t arg = 1;
  auto next = [&]() -> const Expr& {
    if (arg >= st.args.size())
      fail("$display format has more specifiers than arguments");
    return *st.args[arg++];
  };
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      os << fmt[i];
      continue;
    }
    ++i;
    while (i < fmt.size() && (fmt[i] == '0' || std::isdigit(fmt[i]))) ++i;
    if (i >= fmt.size()) fail("dangling '%' in $display format");
    const char c = static_cast<char>(std::tolower(fmt[i]));
    switch (c) {
      case '%': os << '%'; break;
      case 'd': os << eval_signed_self(next()); break;
      case 't': os << static_cast<long long>(eval_self(next())); break;
      case 'h':
      case 'x': {
        std::ostringstream hx;
        hx << std::hex << eval_self(next());
        os << hx.str();
        break;
      }
      case 'b': {
        const Expr& e = next();
        const std::uint64_t v = eval_self(e);
        for (int bit = std::max(e.self_w, 1) - 1; bit >= 0; --bit)
          os << ((v >> bit) & 1 ? '1' : '0');
        break;
      }
      case 's': {
        const Expr& e = next();
        if (e.kind != ExprKind::kString) fail("%s needs a string argument");
        os << e.str;
        break;
      }
      default:
        fail(std::string("unsupported $display format specifier '%") + c +
             "'");
    }
  }
  return os.str();
}

void Simulation::start_dump() {
  if (dumping_) return;
  dump_ = std::make_unique<Dump>(design_->top);
  const auto n = design_->signals.size();
  dump_handle_.assign(n, -1);
  dump_elem_handle_.assign(n, {});
  // Mark everything pending rather than snapshotting the mid-slot state at
  // the instant $dumpvars ran: the flush at the end of this time slot then
  // records every signal's SETTLED value for the slot, which does not
  // depend on how the engine interleaved the other same-slot processes.
  for (std::size_t i = 0; i < n; ++i) {
    const Signal& s = design_->signals[i];
    if (s.array_len > 0) {
      for (int j = 0; j < s.array_len; ++j) {
        const int h = dump_->core.add_signal(
            s.name + "[" + std::to_string(j) + "]", s.width);
        dump_elem_handle_[i].push_back(h);
        dump_->pending.emplace(static_cast<int>(i), j);
      }
    } else {
      const int h = dump_->core.add_signal(s.name, s.width);
      dump_handle_[i] = h;
      dump_->pending.emplace(static_cast<int>(i), -1);
    }
  }
  dumping_ = true;
}

void Simulation::dump_change(int sig, long long index) const {
  dump_->pending.emplace(sig, index);
}

void Simulation::flush_dump() const {
  for (const auto& [sig, index] : dump_->pending) {
    if (index < 0) {
      const int h = dump_handle_[static_cast<size_t>(sig)];
      if (h >= 0)
        dump_->core.change(
            time_, h, static_cast<long long>(val_[static_cast<size_t>(sig)]));
      continue;
    }
    const auto& hs = dump_elem_handle_[static_cast<size_t>(sig)];
    if (index < static_cast<long long>(hs.size()))
      dump_->core.change(
          time_, hs[static_cast<size_t>(index)],
          static_cast<long long>(
              arr_[static_cast<size_t>(sig)][static_cast<size_t>(index)]));
  }
  dump_->pending.clear();
}

void Simulation::exec_sys(const Stmt& st) {
  const std::string& c = st.callee;
  if (c == "$display" || c == "$write") {
    display_.push_back(format_display(st));
  } else if (c == "$finish") {
    finished_ = true;
  } else if (c == "$stop") {
    stopped_ = true;
  } else if (c == "$dumpfile") {
    if (!st.args.empty() && st.args[0]->kind == ExprKind::kString)
      dump_name_ = st.args[0]->str;
  } else if (c == "$dumpvars") {
    start_dump();
  } else {
    fail("unsupported system task '" + c + "'");
  }
}

}  // namespace hlsw::vsim
