#include "vsim/compile.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlsw::vsim {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("vsim runtime error: " + what);
}

inline std::uint64_t umask(int w) {
  return w >= 64 ? ~0ULL : (1ULL << w) - 1ULL;
}

inline long long s64(std::uint64_t v, int w) {
  if (w < 64 && ((v >> (w - 1)) & 1)) v |= ~umask(w);
  return static_cast<long long>(v);
}

// Same semantics as Simulation::extend — compile-time constant folding for
// number literals reuses it directly.
inline std::uint64_t extend_bits(std::uint64_t v, int from, int to, bool sgn) {
  if (to <= from) return v & umask(to);
  if (sgn && ((v >> (from - 1)) & 1)) v |= ~umask(from);
  return v & umask(to);
}

// Thrown anywhere during compilation to mean "this design keeps the
// event-driven engine" — never an error, always a graceful fallback.
struct FallbackError {
  std::string why;
};

[[noreturn]] void fallback(std::string why) { throw FallbackError{std::move(why)}; }

// True when the op reads a scalar signal's stored value (val_[o.a]).
// The xL superinstructions hide a kLoad, so every pass that reasons about
// read sites (fanout CSR, eager closure, lazy forcing) must go through
// this predicate rather than matching kLoad* directly.
inline bool reads_scalar(const TOp& o) {
  switch (o.code) {
    case TOp::kLoad:
    case TOp::kLoadSx:
    case TOp::kLoadTr:
    case TOp::kAddL:
    case TOp::kSubL:
    case TOp::kMulL:
    case TOp::kAndL:
    case TOp::kOrL:
    case TOp::kXorL:
    case TOp::kConcatL:
    case TOp::kRangeL:
    case TOp::kLoadShlC:
      return true;
    default:
      return false;
  }
}

// True when the op reads a register-file array (arr_[o.a]).
inline bool reads_array(const TOp& o) {
  return o.code == TOp::kLoadElem || o.code == TOp::kLoadElemSx ||
         o.code == TOp::kLoadElemTr;
}

// ---- Expression tapes -------------------------------------------------------

// Flattens annotated Exprs into TOp tapes, resolving the event kernel's
// eval(e, ctx_w, ctx_sgn) context propagation at compile time. The
// invariant mirrored from eval(): after cx(e, W, S) the value on the stack
// is masked to W bits.
struct TapeBuilder {
  CompiledDesign* cd;
  const Design* d;

  void op(TOp::Code c, std::uint8_t w = 0, std::int32_t a = 0,
          std::uint64_t imm = 0) {
    cd->ops.push_back(TOp{c, w, a, imm});
  }

  // Emits the extend(v, from, W, S) step. Values are masked to `from`
  // already, so unsigned widening is free. When the value on top of the
  // stack was just pushed by a kLoad, the extend is folded into the load
  // (kLoadSx / kLoadTr) — signal reads in a wider signed context dominate
  // the emitted datapath, and this halves their dispatch count.
  void ext(int from, int W, bool S) {
    if (W == from) return;
    if (W < from) {
      if (!cd->ops.empty() && cd->ops.back().code == TOp::kLoad) {
        cd->ops.back().code = TOp::kLoadTr;
        cd->ops.back().imm = umask(W);
        return;
      }
      op(TOp::kTrunc, 0, 0, umask(W));
      return;
    }
    if (S) {
      if (!cd->ops.empty() && cd->ops.back().code == TOp::kLoad) {
        cd->ops.back().code = TOp::kLoadSx;
        cd->ops.back().w = static_cast<std::uint8_t>(from);
        cd->ops.back().imm = umask(W);
        return;
      }
      op(TOp::kSext, static_cast<std::uint8_t>(from), 0, umask(W));
    }
  }

  void cx_self(const Expr& e) { cx(e, e.self_w, e.self_sgn); }

  // Compiles an index expression (array element / bit select): value is
  // self-determined, then reinterpreted as signed 64-bit if its
  // self-determined type is signed (eval_signed_self).
  void cx_index(const Expr& e) {
    cx_self(e);
    if (e.self_sgn)
      op(TOp::kToSigned, static_cast<std::uint8_t>(e.self_w));
  }

  void cx(const Expr& e, int W, bool S) {
    switch (e.kind) {
      case ExprKind::kNumber:
        op(TOp::kConst, 0, 0,
           extend_bits(e.num & umask(e.self_w), e.self_w, W, S));
        return;
      case ExprKind::kString:
        fallback("string literal used as a value");
      case ExprKind::kIdent: {
        if (e.sig < 0) fallback("unresolved identifier");
        const Signal& s = d->signals[static_cast<size_t>(e.sig)];
        if (s.array_len > 0)
          fallback("register file '" + s.name +
                   "' used without an element select");
        op(TOp::kLoad, 0, e.sig);
        ext(e.self_w, W, S);
        return;
      }
      case ExprKind::kSelect: {
        const Expr& base = *e.kids[0];
        if (base.kind == ExprKind::kIdent && base.sig >= 0 &&
            d->signals[static_cast<size_t>(base.sig)].array_len > 0) {
          cx_index(*e.kids[1]);
          op(TOp::kLoadElem, 0, base.sig);
          ext(e.self_w, W, S);
          return;
        }
        cx_self(base);
        cx_index(*e.kids[1]);
        op(TOp::kBitSel, static_cast<std::uint8_t>(base.self_w));
        ext(1, W, S);
        return;
      }
      case ExprKind::kRange:
        cx_self(*e.kids[0]);
        op(TOp::kRange, 0, e.lo, umask(e.self_w));
        ext(e.self_w, W, S);
        return;
      case ExprKind::kUnary: {
        const Expr& k = *e.kids[0];
        switch (e.op) {
          case Op::kNeg:
            cx(k, W, S);
            op(TOp::kNeg, 0, 0, umask(W));
            return;
          case Op::kPlus:
            cx(k, W, S);
            return;
          case Op::kBitNot:
            cx(k, W, S);
            op(TOp::kNot, 0, 0, umask(W));
            return;
          default:
            break;
        }
        // Reductions and ! are self-determined 1-bit boundaries.
        cx_self(k);
        switch (e.op) {
          case Op::kLogNot: op(TOp::kLNot); break;
          case Op::kRedAnd: op(TOp::kRedAnd, 0, 0, umask(k.self_w)); break;
          case Op::kRedNand: op(TOp::kRedNand, 0, 0, umask(k.self_w)); break;
          case Op::kRedOr: op(TOp::kRedOr); break;
          case Op::kRedNor: op(TOp::kRedNor); break;
          case Op::kRedXor: op(TOp::kRedXor); break;
          case Op::kRedXnor: op(TOp::kRedXnor); break;
          default:
            fallback(std::string("unknown unary operator '") +
                     to_string(e.op) + "'");
        }
        ext(1, W, S);
        return;
      }
      case ExprKind::kBinary: {
        const Expr& k0 = *e.kids[0];
        const Expr& k1 = *e.kids[1];
        switch (e.op) {
          case Op::kLogAnd: case Op::kLogOr:
            cx_self(k0);
            op(TOp::kNeZero);
            cx_self(k1);
            op(TOp::kNeZero);
            op(e.op == Op::kLogAnd ? TOp::kAnd : TOp::kOr);
            ext(1, W, S);
            return;
          case Op::kEq: case Op::kNe:
          case Op::kLt: case Op::kLe: case Op::kGt: case Op::kGe: {
            const int wc = std::max(k0.self_w, k1.self_w);
            const bool sc = k0.self_sgn && k1.self_sgn;
            cx(k0, wc, sc);
            cx(k1, wc, sc);
            const auto cw = static_cast<std::uint8_t>(wc);
            switch (e.op) {
              case Op::kEq: op(TOp::kEq); break;
              case Op::kNe: op(TOp::kNe); break;
              case Op::kLt: op(sc ? TOp::kLtS : TOp::kLtU, cw); break;
              case Op::kLe: op(sc ? TOp::kLeS : TOp::kLeU, cw); break;
              case Op::kGt: op(sc ? TOp::kGtS : TOp::kGtU, cw); break;
              default: op(sc ? TOp::kGeS : TOp::kGeU, cw); break;
            }
            ext(1, W, S);
            return;
          }
          case Op::kShl: case Op::kShr: case Op::kAShr:
            cx(k0, W, S);
            cx_self(k1);
            if (e.op == Op::kShl)
              op(TOp::kShl, 0, 0, umask(W));
            else if (e.op == Op::kShr || !S)
              op(TOp::kShrU);
            else
              op(TOp::kShrS, static_cast<std::uint8_t>(W), 0, umask(W));
            return;
          default:
            break;
        }
        cx(k0, W, S);
        cx(k1, W, S);
        const auto ww = static_cast<std::uint8_t>(W);
        const std::uint64_t m = umask(W);
        switch (e.op) {
          case Op::kAdd: op(TOp::kAdd, 0, 0, m); break;
          case Op::kSub: op(TOp::kSub, 0, 0, m); break;
          case Op::kMul: op(TOp::kMul, 0, 0, m); break;
          case Op::kDiv: op(S ? TOp::kDivS : TOp::kDivU, ww, 0, m); break;
          case Op::kMod: op(S ? TOp::kModS : TOp::kModU, ww, 0, m); break;
          case Op::kAnd: op(TOp::kAnd); break;
          case Op::kOr: op(TOp::kOr); break;
          case Op::kXor: op(TOp::kXor); break;
          case Op::kXnor: op(TOp::kXnorB, 0, 0, m); break;
          default:
            fallback(std::string("unknown binary operator '") +
                     to_string(e.op) + "'");
        }
        return;
      }
      case ExprKind::kTernary:
        // The event kernel evaluates only the taken branch; compiled
        // expressions are pure (no side effects, total semantics), so
        // evaluating both and selecting is observably identical.
        cx_self(*e.kids[0]);
        cx(*e.kids[1], W, S);
        cx(*e.kids[2], W, S);
        op(TOp::kMux);
        return;
      case ExprKind::kConcat: {
        for (std::size_t i = 0; i < e.kids.size(); ++i) {
          cx_self(*e.kids[i]);
          if (i > 0)
            op(TOp::kConcatAcc,
               static_cast<std::uint8_t>(e.kids[i]->self_w));
        }
        ext(e.self_w, W, S);
        return;
      }
      case ExprKind::kReplicate: {
        const Expr& k = *e.kids[1];
        cx_self(k);
        op(TOp::kRepl, static_cast<std::uint8_t>(k.self_w),
           static_cast<std::int32_t>(e.repl));
        ext(e.self_w, W, S);
        return;
      }
      case ExprKind::kSysCall:
        // Simulation time is the event kernel's; nothing advances it here.
        if (e.name == "$time") fallback("$time");
        // $signed/$unsigned: self-determined argument, reinterpreted.
        cx_self(*e.kids[0]);
        ext(e.self_w, W, S);
        return;
    }
    fallback("unreachable expression kind");
  }

  // Per-op stack effect, used to size the evaluation stack once.
  static int delta(TOp::Code c) {
    switch (c) {
      case TOp::kConst:
      case TOp::kLoad:
      case TOp::kLoadSx:
      case TOp::kLoadTr:
      case TOp::kRangeL:
      case TOp::kLoadShlC:
        return 1;
      case TOp::kBitSel:
      case TOp::kAnd:
      case TOp::kOr:
      case TOp::kXor:
      case TOp::kXnorB:
      case TOp::kAdd:
      case TOp::kSub:
      case TOp::kMul:
      case TOp::kDivU:
      case TOp::kModU:
      case TOp::kDivS:
      case TOp::kModS:
      case TOp::kEq:
      case TOp::kNe:
      case TOp::kLtU:
      case TOp::kLeU:
      case TOp::kGtU:
      case TOp::kGeU:
      case TOp::kLtS:
      case TOp::kLeS:
      case TOp::kGtS:
      case TOp::kGeS:
      case TOp::kShl:
      case TOp::kShrU:
      case TOp::kShrS:
      case TOp::kConcatAcc:
        return -1;
      case TOp::kMux:
        return -2;
      default:
        return 0;
    }
  }

  // Only set during the netlist fusion pass, once signal read sites are
  // final: a kLoad folded into an xL superinstruction can no longer be
  // spliced away, so original tapes are built without load folding and
  // only exec/process re-seals enable it.
  bool fuse_loads = false;

  // Attempts to merge `o` into the preceding op `p` (the value `o`
  // consumes from the top of the stack). Returns true when `o` was
  // absorbed. Constants fold fully; a constant or plain load feeding a
  // binop becomes one superinstruction (xC / xL families).
  bool try_fold(TOp& p, const TOp& o) {
    const bool p_const = p.code == TOp::kConst;
    const bool p_load = p.code == TOp::kLoad;
    const bool c_fits = p_const && p.imm <= 0xFFFFFFFFull;
    const auto c32 = [&] {
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(p.imm));
    };
    switch (o.code) {
      case TOp::kTrunc:
        switch (p.code) {
          case TOp::kConst:
          case TOp::kLoadTr:
          case TOp::kLoadElemTr:
          case TOp::kTrunc:
          case TOp::kRange:
            // For these the stored imm is already a pure result mask (or
            // the constant itself) — intersecting masks composes.
          case TOp::kLoadSx:
          case TOp::kLoadElemSx:
          case TOp::kSext:
          case TOp::kNeg:
          case TOp::kNot:
          case TOp::kXnorB:
          case TOp::kAdd:
          case TOp::kSub:
          case TOp::kMul:
          case TOp::kShl:
          case TOp::kShrS:
          case TOp::kAddC:
          case TOp::kSubC:
          case TOp::kMulC:
          case TOp::kShlC:
          case TOp::kAddL:
          case TOp::kSubL:
          case TOp::kMulL:
          case TOp::kRangeL:
          case TOp::kLoadShlC:
            p.imm &= o.imm;
            return true;
          case TOp::kLoad:
            p.code = TOp::kLoadTr;
            p.imm = o.imm;
            return true;
          case TOp::kLoadElem:
            p.code = TOp::kLoadElemTr;
            p.imm = o.imm;
            return true;
          default:
            return false;
        }
      case TOp::kSext:
        if (p_const) {
          if (o.w < 64 && ((p.imm >> (o.w - 1)) & 1)) p.imm |= ~umask(o.w);
          p.imm &= o.imm;
          return true;
        }
        if (p_load) {
          p.code = TOp::kLoadSx;
          p.w = o.w;
          p.imm = o.imm;
          return true;
        }
        if (p.code == TOp::kLoadElem && p.w == 0) {
          // p.w != 0 already carries a folded index sign-extend; the
          // value extend must stay a separate op then.
          p.code = TOp::kLoadElemSx;
          p.w = o.w;
          p.imm = o.imm;
          return true;
        }
        return false;
      case TOp::kLoadElem:
        // A sign-extended index (cx_index) folds into the element load
        // itself; kSext with an all-ones mask is exactly that pattern.
        if (p.code == TOp::kSext && p.imm == ~0ull && o.w == 0) {
          p = TOp{TOp::kLoadElem, p.w, o.a, 0};
          return true;
        }
        return false;
      case TOp::kRange:
        if (p_const) {
          p.imm = (p.imm >> o.a) & o.imm;
          return true;
        }
        if (p_load && fuse_loads && o.a < 64) {
          p = TOp{TOp::kRangeL, static_cast<std::uint8_t>(o.a), p.a, o.imm};
          return true;
        }
        return false;
      case TOp::kShlC:
        // Only reachable through the cascade recheck (kShlC is itself a
        // fold product, never raw emission).
        if (p_load && fuse_loads) {
          p = TOp{TOp::kLoadShlC, static_cast<std::uint8_t>(o.a), p.a,
                  o.imm};
          return true;
        }
        return false;
      case TOp::kNeg:
        if (!p_const) return false;
        p.imm = (0 - p.imm) & o.imm;
        return true;
      case TOp::kNot:
        if (!p_const) return false;
        p.imm = ~p.imm & o.imm;
        return true;
      case TOp::kRepl:
        if (!p_const) return false;
        {
          std::uint64_t v = 0;
          for (std::int32_t i = 0; i < o.a; ++i) v = (v << o.w) | p.imm;
          p.imm = v;
        }
        return true;
      case TOp::kBitSel:
        // The constant is the (signed) index; the base stays on the stack
        // and the pair collapses to an op on it.
        if (!p_const) return false;
        {
          const auto idx = static_cast<long long>(p.imm);
          if (idx >= 0 && idx < o.w) {
            p = TOp{TOp::kRange, 0, static_cast<std::int32_t>(idx), 1};
          } else {
            p = TOp{TOp::kTrunc, 0, 0, 0};  // out of range: base -> 0
          }
        }
        return true;
      case TOp::kAdd:
        if (c_fits) { p = TOp{TOp::kAddC, 0, c32(), o.imm}; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kAddL;
          p.imm = o.imm;
          return true;
        }
        return false;
      case TOp::kSub:
        if (c_fits) { p = TOp{TOp::kSubC, 0, c32(), o.imm}; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kSubL;
          p.imm = o.imm;
          return true;
        }
        return false;
      case TOp::kMul:
        if (c_fits) { p = TOp{TOp::kMulC, 0, c32(), o.imm}; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kMulL;
          p.imm = o.imm;
          return true;
        }
        return false;
      case TOp::kAnd:
        if (p_const) { p = TOp{TOp::kTrunc, 0, 0, p.imm}; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kAndL;
          p.imm = 0;
          return true;
        }
        return false;
      case TOp::kOr:
        if (p_const) { p.code = TOp::kOrC; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kOrL;
          p.imm = 0;
          return true;
        }
        return false;
      case TOp::kXor:
        if (p_const) { p.code = TOp::kXorC; return true; }
        if (p_load && fuse_loads) {
          p.code = TOp::kXorL;
          p.imm = 0;
          return true;
        }
        return false;
      case TOp::kShl:
        if (!p_const) return false;
        if (p.imm >= 64) {
          p = TOp{TOp::kTrunc, 0, 0, 0};  // whole base shifted out
        } else {
          p = TOp{TOp::kShlC, 0, c32(), o.imm};
        }
        return true;
      case TOp::kConcatAcc:
        // Safe for any plain kLoad / small const: both are masked to at
        // most the kid's context width `w`, so OR-ing under the shifted
        // accumulator cannot clobber its bits.
        if (c_fits) {
          p = TOp{TOp::kConcatC, o.w, c32(), 0};
          return true;
        }
        if (p_load && fuse_loads) {
          p.code = TOp::kConcatL;
          p.w = o.w;
          return true;
        }
        return false;
      default:
        return false;
    }
  }

  // Peephole pass run when a tape is sealed: canonicalizes kToSigned into
  // kSext, folds constant subexpressions, and forms superinstructions so
  // the interpreter dispatches common (operand, binop) pairs once. Folds
  // cascade: a fold leaves its result as the new "previous" op for the
  // next iteration ([kConst][kSext][kTrunc] collapses to one kConst).
  void compact(std::uint32_t begin) {
    auto& v = cd->ops;
    std::size_t w = begin;
    for (std::size_t r = begin; r < v.size(); ++r) {
      TOp o = v[r];
      if (o.code == TOp::kToSigned) {
        if (o.w >= 64) continue;  // no-op at full width
        o = TOp{TOp::kSext, o.w, 0, ~0ull};
      }
      // Replicating a single bit is a negate-under-mask (all-ones or
      // zero) — kills the per-repetition interpreter loop.
      if (o.code == TOp::kRepl && o.w == 1) o = TOp{TOp::kNeg, 0, 0, umask(o.a)};
      if (w > begin && try_fold(v[w - 1], o)) {
        // A fold product can expose a new pair with the op before it
        // ([kLoad][kConst][kShl]: const+shl -> kShlC, then
        // load+kShlC -> kLoadShlC), so cascade backwards.
        while (w - 1 > begin && try_fold(v[w - 2], v[w - 1])) --w;
        continue;
      }
      v[w++] = o;
    }
    v.resize(w);
  }

  // Seals the ops emitted since `begin` into a registered TapeRef:
  // runs the superinstruction peephole, appends the kHalt sentinel the
  // interpreter loop stops on and sizes the shared evaluation stack.
  int finish_tape(std::uint32_t begin) {
    compact(begin);
    op(TOp::kHalt);
    TapeRef t;
    t.begin = begin;
    t.len = static_cast<std::uint32_t>(cd->ops.size()) - begin;
    int depth = 0, max_depth = 0;
    for (std::uint32_t i = begin; i < begin + t.len; ++i) {
      depth += delta(cd->ops[i].code);
      max_depth = std::max(max_depth, depth);
    }
    cd->max_stack = std::max(cd->max_stack, max_depth);
    cd->tapes.push_back(t);
    return static_cast<int>(cd->tapes.size()) - 1;
  }

  int make_tape(const Expr& e, int W, bool S) {
    const auto begin = static_cast<std::uint32_t>(cd->ops.size());
    cx(e, W, S);
    return finish_tape(begin);
  }

  int make_tape_self(const Expr& e) { return make_tape(e, e.self_w, e.self_sgn); }

  // Statement-level index tapes carry the signed reinterpretation inline
  // so the engine can read them as plain int64.
  int make_index_tape(const Expr& e) {
    const auto begin = static_cast<std::uint32_t>(cd->ops.size());
    cx_index(e);
    return finish_tape(begin);
  }
};

// ---- Process programs -------------------------------------------------------

struct ProgBuilder {
  CompiledDesign* cd;
  TapeBuilder* tb;
  const Design* d;

  int size() const { return static_cast<int>(cd->prog.size()); }
  int emit(PInstr in) {
    cd->prog.push_back(in);
    return size() - 1;
  }

  void assign(const Stmt& st, bool nonblocking) {
    const Expr& lhs = *st.lhs;
    const Expr& rhs = *st.rhs;
    // Assignment context: max(lhs, rhs) width with the RHS's signedness,
    // exactly like Simulation::exec_assign.
    const int w = std::max(lhs.self_w, rhs.self_w);
    PInstr in;
    if (lhs.kind == ExprKind::kIdent) {
      if (lhs.sig < 0) fallback("unresolved assignment target");
      if (d->signals[static_cast<size_t>(lhs.sig)].array_len > 0)
        fallback("whole-array assignment target");
      in.sig = lhs.sig;
      // reg <= wire copies and state <= CONST dominate the emitted FSM's
      // arms; both skip the tape interpreter entirely. A copy is exact
      // when the RHS needs no extension into the assignment context
      // (unsigned zero-extends for free; equal-width never extends).
      if (rhs.kind == ExprKind::kNumber) {
        in.code = nonblocking ? PInstr::kNbConst : PInstr::kAssignConst;
        in.imm = extend_bits(rhs.num & umask(rhs.self_w), rhs.self_w, w,
                             rhs.self_sgn) &
                 umask(d->signals[static_cast<size_t>(lhs.sig)].width);
        emit(in);
        return;
      }
      if (rhs.kind == ExprKind::kIdent && rhs.sig >= 0 &&
          d->signals[static_cast<size_t>(rhs.sig)].array_len == 0 &&
          (!rhs.self_sgn || rhs.self_w >= w)) {
        in.code = nonblocking ? PInstr::kNbCopy : PInstr::kAssignCopy;
        in.a = rhs.sig;
        emit(in);
        return;
      }
      in.t0 = tb->make_tape(rhs, w, rhs.self_sgn);
      in.code = nonblocking ? PInstr::kNb : PInstr::kAssign;
      emit(in);
      return;
    }
    in.t0 = tb->make_tape(rhs, w, rhs.self_sgn);
    if (lhs.kind != ExprKind::kSelect) fallback("unsupported assignment target");
    const Expr& base = *lhs.kids[0];
    if (base.kind != ExprKind::kIdent || base.sig < 0)
      fallback("unsupported assignment target");
    in.sig = base.sig;
    in.t1 = tb->make_index_tape(*lhs.kids[1]);
    if (d->signals[static_cast<size_t>(base.sig)].array_len > 0)
      in.code = nonblocking ? PInstr::kNbElem : PInstr::kAssignElem;
    else
      in.code = nonblocking ? PInstr::kNbBit : PInstr::kAssignBit;
    emit(in);
  }

  // The hot shape of `case` — the emitted FSM's state dispatch — is an
  // unsigned scalar subject with all-constant labels. The subject being
  // unsigned makes every pairwise comparison context unsigned (sc =
  // subj_sgn && label_sgn), so both sides zero-extend — label signedness
  // is irrelevant (folded localparams and unsized decimal literals are
  // signed). Equality over the shared context is then raw u64 equality of
  // the masked values and the whole chain collapses into one table lookup
  // (kCaseJump).
  bool case_jump_eligible(const Stmt& st) const {
    const Expr& subject = *st.cond;
    if (subject.kind != ExprKind::kIdent || subject.sig < 0 ||
        subject.self_sgn)
      return false;
    if (d->signals[static_cast<size_t>(subject.sig)].array_len > 0)
      return false;
    for (const auto& item : st.items) {
      if (item.is_default) continue;
      if (item.labels.empty()) fallback("case item without labels");
      for (const auto& label : item.labels)
        if (label->kind != ExprKind::kNumber) return false;
    }
    return true;
  }

  void case_jump(const Stmt& st) {
    PInstr in;
    in.code = PInstr::kCaseJump;
    in.sig = st.cond->sig;
    in.a = static_cast<std::int32_t>(cd->case_tables.size());
    cd->case_tables.emplace_back();
    const int dispatch = emit(in);

    std::vector<int> exits;
    CompiledDesign::CaseTable table;
    const CaseItem* def = nullptr;
    for (const auto& item : st.items) {
      if (item.is_default) {
        def = &item;
        continue;
      }
      const auto arm_pc = static_cast<std::int32_t>(size());
      for (const auto& label : item.labels) {
        const std::uint64_t key = label->num & umask(label->self_w);
        bool seen = false;  // first matching item wins, as in the chain
        for (const auto& [k, pc] : table.arms) seen = seen || k == key;
        if (!seen) table.arms.emplace_back(key, arm_pc);
      }
      stmt(*item.body);
      PInstr jmp;
      jmp.code = PInstr::kJump;
      exits.push_back(emit(jmp));
    }
    table.def_pc = static_cast<std::int32_t>(size());
    if (def != nullptr) stmt(*def->body);
    for (const int j : exits) cd->prog[static_cast<size_t>(j)].a = size();
    std::sort(table.arms.begin(), table.arms.end());
    cd->case_tables[static_cast<size_t>(cd->prog[static_cast<size_t>(
                        dispatch)].a)] = std::move(table);
  }

  // case items match via chained (subject == label) || ... compares, in
  // the same comparison context the event kernel's synthetic nodes use.
  int case_tape(const ExprPtr& subject, const CaseItem& item) {
    if (item.labels.empty()) fallback("case item without labels");
    const auto begin = static_cast<std::uint32_t>(cd->ops.size());
    for (std::size_t i = 0; i < item.labels.size(); ++i) {
      const Expr& label = *item.labels[i];
      const int wc = std::max(subject->self_w, label.self_w);
      const bool sc = subject->self_sgn && label.self_sgn;
      tb->cx(*subject, wc, sc);
      tb->cx(label, wc, sc);
      tb->op(TOp::kEq);
      if (i > 0) tb->op(TOp::kOr);
    }
    return tb->finish_tape(begin);
  }

  void stmt(const Stmt& st) {
    switch (st.kind) {
      case StmtKind::kBlock:
        for (const auto& s : st.sub) stmt(*s);
        return;
      case StmtKind::kBlockingAssign:
        assign(st, false);
        return;
      case StmtKind::kNbAssign:
        assign(st, true);
        return;
      case StmtKind::kIf: {
        PInstr jf;
        const Expr& c = *st.cond;
        // `if (flag)` on a plain scalar tests val[] directly — no tape.
        if (c.kind == ExprKind::kIdent && c.sig >= 0 &&
            d->signals[static_cast<size_t>(c.sig)].array_len == 0) {
          jf.code = PInstr::kJumpIfFalseSig;
          jf.sig = c.sig;
        } else {
          jf.code = PInstr::kJumpIfFalse;
          jf.t0 = tb->make_tape_self(c);
        }
        const int j = emit(jf);
        stmt(*st.sub[0]);
        if (st.sub.size() > 1 && st.sub[1] != nullptr) {
          PInstr jmp;
          jmp.code = PInstr::kJump;
          const int j2 = emit(jmp);
          cd->prog[static_cast<size_t>(j)].a = size();
          stmt(*st.sub[1]);
          cd->prog[static_cast<size_t>(j2)].a = size();
        } else {
          cd->prog[static_cast<size_t>(j)].a = size();
        }
        return;
      }
      case StmtKind::kCase: {
        if (case_jump_eligible(st)) {
          case_jump(st);
          return;
        }
        std::vector<int> exits;
        const CaseItem* def = nullptr;
        for (const auto& item : st.items) {
          if (item.is_default) {
            def = &item;
            continue;
          }
          PInstr jf;
          jf.code = PInstr::kJumpIfFalse;
          jf.t0 = case_tape(st.cond, item);
          const int j = emit(jf);
          stmt(*item.body);
          PInstr jmp;
          jmp.code = PInstr::kJump;
          exits.push_back(emit(jmp));
          cd->prog[static_cast<size_t>(j)].a = size();
        }
        if (def != nullptr) stmt(*def->body);
        for (const int j : exits) cd->prog[static_cast<size_t>(j)].a = size();
        return;
      }
      // Testbench constructs: the event kernel owns them.
      case StmtKind::kRepeat:
        fallback("repeat loop");
      case StmtKind::kSysTask:
        fallback("system task " + st.callee);
      case StmtKind::kForever:
        fallback("forever loop");
      case StmtKind::kEventCtrl:
        fallback("event control inside a process body");
      case StmtKind::kDelay:
        fallback("# delay");
      case StmtKind::kNull:
        return;
      case StmtKind::kTaskCall:
        fallback("task call survived elaboration");
    }
  }
};

// Collects the base signals of blocking-assignment targets in a process
// body (every branch) — the "writes" side of the comb feedback graph.
void collect_blocking_writes(const Stmt& st, std::vector<int>* out) {
  switch (st.kind) {
    case StmtKind::kBlock:
      for (const auto& s : st.sub) collect_blocking_writes(*s, out);
      return;
    case StmtKind::kBlockingAssign: {
      const Expr& lhs = *st.lhs;
      if (lhs.kind == ExprKind::kIdent && lhs.sig >= 0)
        out->push_back(lhs.sig);
      else if (lhs.kind == ExprKind::kSelect &&
               lhs.kids[0]->kind == ExprKind::kIdent && lhs.kids[0]->sig >= 0)
        out->push_back(lhs.kids[0]->sig);
      return;
    }
    case StmtKind::kIf:
    case StmtKind::kCase:
    case StmtKind::kRepeat:
    case StmtKind::kForever:
    case StmtKind::kEventCtrl:
    case StmtKind::kDelay:
      for (const auto& s : st.sub)
        if (s) collect_blocking_writes(*s, out);
      for (const auto& item : st.items)
        if (item.body) collect_blocking_writes(*item.body, out);
      return;
    default:
      return;
  }
}

void build_csr(std::size_t nsig,
               const std::vector<std::pair<int, std::int32_t>>& pairs,
               std::vector<std::int32_t>* index,
               std::vector<std::int32_t>* out) {
  index->assign(nsig + 1, 0);
  for (const auto& [sig, v] : pairs) ++(*index)[static_cast<size_t>(sig) + 1];
  for (std::size_t i = 1; i <= nsig; ++i) (*index)[i] += (*index)[i - 1];
  out->resize(pairs.size());
  std::vector<std::int32_t> cursor(index->begin(), index->end() - 1);
  for (const auto& [sig, v] : pairs)
    (*out)[static_cast<size_t>(cursor[static_cast<size_t>(sig)]++)] = v;
}

}  // namespace

// ---- compile_design ---------------------------------------------------------

std::shared_ptr<const CompiledDesign> compile_design(
    const std::shared_ptr<const Design>& design, std::string* why) {
  obs::ScopedSpan span("vsim.compile", "vsim");
  const Design& d = *design;
  auto cd = std::make_shared<CompiledDesign>();
  cd->design = design;
  const std::size_t nsig = d.signals.size();

  try {
    if (!d.instances.empty())
      fallback("bound instance '" + d.instances.front().name +
               "' runs only under the event kernel");
    TapeBuilder tb{cd.get(), &d};
    ProgBuilder pb{cd.get(), &tb, &d};

    // ---- Processes: classify, wire triggers, compile bodies ----
    // sens/writes of sensitivity-triggered ("comb") always bodies feed the
    // feedback graph below; edge-triggered bodies are registers and cut it.
    std::vector<std::pair<int, std::int32_t>> trig_pairs;  // (sig, trig idx)
    struct CombProc {
      std::vector<int> sens;
      std::vector<int> writes;
    };
    std::vector<CombProc> comb_procs;
    for (std::size_t pi = 0; pi < d.processes.size(); ++pi) {
      const Process& p = d.processes[pi];
      CompiledDesign::ProcMeta meta;
      meta.is_always = p.is_always;
      meta.origin = p.origin;
      const Stmt* body = p.body.get();
      if (p.is_always) {
        if (body->kind != StmtKind::kEventCtrl)
          fallback("always body of '" + p.origin +
                   "' has no top-level event control");
        CombProc cp;
        bool level_sensitive = false;
        for (const auto& [edge, ev] : body->events) {
          if (ev->kind != ExprKind::kIdent || ev->sig < 0)
            fallback("non-identifier event expression in '" + p.origin + "'");
          // Array-base events never fire in the event kernel (element
          // writes do not wake edge waits) — drop them identically.
          if (d.signals[static_cast<size_t>(ev->sig)].array_len > 0) continue;
          const auto ti = static_cast<std::int32_t>(cd->trigs.size());
          cd->trigs.push_back({static_cast<std::int32_t>(cd->procs.size()),
                               edge});
          trig_pairs.emplace_back(ev->sig, ti);
          if (edge == Edge::kAny) {
            level_sensitive = true;
            cp.sens.push_back(ev->sig);
          }
        }
        meta.entry = pb.size();
        pb.stmt(*body->sub[0]);
        if (level_sensitive) {
          collect_blocking_writes(*body->sub[0], &cp.writes);
          comb_procs.push_back(std::move(cp));
        }
      } else {
        meta.initially_ready = true;
        meta.entry = pb.size();
        pb.stmt(*body);
      }
      PInstr halt;
      halt.code = PInstr::kHalt;
      pb.emit(halt);
      cd->procs.push_back(std::move(meta));
    }

    // ---- Levelize the combinational graph ----
    // Nodes: continuous assigns, then level-sensitive always bodies.
    // Edge u->v when u writes a signal v reads (assign deps / sensitivity
    // lists). A cycle is zero-delay feedback: not cycle-schedulable.
    const std::size_t A = d.assigns.size();
    const std::size_t total = A + comb_procs.size();
    std::vector<std::vector<std::int32_t>> readers(nsig);
    for (std::size_t ai = 0; ai < A; ++ai)
      for (const int dep : d.assigns[ai].deps)
        readers[static_cast<size_t>(dep)].push_back(
            static_cast<std::int32_t>(ai));
    for (std::size_t ci = 0; ci < comb_procs.size(); ++ci)
      for (const int s : comb_procs[ci].sens)
        readers[static_cast<size_t>(s)].push_back(
            static_cast<std::int32_t>(A + ci));
    auto writes_of = [&](std::size_t u) -> std::vector<int> {
      if (u < A) return {d.assigns[u].target};
      return comb_procs[u - A].writes;
    };
    std::vector<int> indeg(total, 0), level(total, 0);
    for (std::size_t u = 0; u < total; ++u)
      for (const int s : writes_of(u))
        for (const std::int32_t v : readers[static_cast<size_t>(s)])
          ++indeg[static_cast<size_t>(v)];
    std::vector<std::int32_t> topo;
    topo.reserve(total);
    for (std::size_t u = 0; u < total; ++u)
      if (indeg[u] == 0) topo.push_back(static_cast<std::int32_t>(u));
    for (std::size_t head = 0; head < topo.size(); ++head) {
      const std::size_t u = static_cast<std::size_t>(topo[head]);
      for (const int s : writes_of(u))
        for (const std::int32_t v : readers[static_cast<size_t>(s)]) {
          level[static_cast<size_t>(v)] =
              std::max(level[static_cast<size_t>(v)], level[u] + 1);
          if (--indeg[static_cast<size_t>(v)] == 0) topo.push_back(v);
        }
    }
    if (topo.size() != total)
      fallback("zero-delay combinational feedback");

    cd->nodes.resize(A);
    for (std::size_t ai = 0; ai < A; ++ai) {
      const ElabAssign& a = d.assigns[ai];
      const Signal& t = d.signals[static_cast<size_t>(a.target)];
      CompiledDesign::Node n;
      n.target = a.target;
      n.tape = tb.make_tape(*a.rhs, std::max(t.width, a.rhs->self_w),
                            a.rhs->self_sgn);
      n.level = level[ai];
      cd->num_levels = std::max(cd->num_levels, n.level + 1);
      cd->nodes[ai] = n;
    }

    // ---- Single-reader fusion + lazy outputs ----
    // The emitted datapath names every scheduled op as its own wire, so the
    // assign graph is dominated by single-reader chains; evaluating each
    // link as a separate node pays a full round trip (tape call, store,
    // change test, fanout walk) per wire per delta. Splice any wire with
    // exactly one load site anywhere into that reader's tape, and stop
    // scheduling wires nothing inside the design observes at all (output
    // ports at the chain ends): those become *lazy*, recomputed on demand
    // by peek(). A wire stays live (unfusable) when a fast-path
    // instruction or a trigger references it outside any tape. Splicing
    // into a *process* tape moves the evaluation from flush time to
    // proc-run time; settle() flushes before every process runs, so that
    // is equivalent unless the spliced expression reads a signal some
    // process blocking-writes (the tape could then run mid-proc between
    // the write and the next flush and see the new value where the stored
    // wire would still be stale) — such producers stay eager.
    cd->node_of.assign(nsig, -1);
    for (std::size_t ai = 0; ai < A; ++ai)
      cd->node_of[static_cast<size_t>(cd->nodes[ai].target)] =
          static_cast<std::int32_t>(ai);
    cd->node_lazy.assign(A, 0);

    std::vector<char> live(nsig, 0);
    std::vector<std::int32_t> reads(nsig, 0);  // load sites across all tapes
    std::vector<char> blocked(nsig, 0);        // blocking-write targets
    for (const TOp& o : cd->ops)
      if (reads_scalar(o) || reads_array(o))
        ++reads[static_cast<size_t>(o.a)];
    for (const PInstr& in : cd->prog) {
      switch (in.code) {
        case PInstr::kCaseJump:
        case PInstr::kJumpIfFalseSig:
        case PInstr::kNbBit:  // commit does a read-modify-write of sig
          live[static_cast<size_t>(in.sig)] = 1;
          break;
        case PInstr::kAssignCopy:
          live[static_cast<size_t>(in.a)] = 1;
          blocked[static_cast<size_t>(in.sig)] = 1;
          break;
        case PInstr::kNbCopy:
          live[static_cast<size_t>(in.a)] = 1;
          break;
        case PInstr::kAssign:
        case PInstr::kAssignConst:
        case PInstr::kAssignElem:
          blocked[static_cast<size_t>(in.sig)] = 1;
          break;
        case PInstr::kAssignBit:
          live[static_cast<size_t>(in.sig)] = 1;
          blocked[static_cast<size_t>(in.sig)] = 1;
          break;
        default:
          break;
      }
    }
    for (const auto& [sig, ti] : trig_pairs)
      live[static_cast<size_t>(sig)] = 1;

    // Expand node bodies in topological order so a spliced producer is
    // itself already fully expanded, tracking per node whether its
    // expanded fanin touches a blocking-written signal (tb_flag). A
    // single-reader producer's body is stolen (swapped out) after the
    // splice; a *small* multi-reader producer is duplicated into each
    // reader instead — recomputing a few ops per site is cheaper than an
    // eager eval round trip per delta.
    constexpr std::int32_t kDupReads = 4;  // max load sites to duplicate to
    constexpr std::size_t kDupOps = 12;    // max expanded body size to dup
    std::vector<std::vector<TOp>> xops(A);
    std::vector<char> tb_flag(A, 0);
    const auto fusable_src = [&](const TOp& o) -> std::int32_t {
      if (o.code != TOp::kLoad && o.code != TOp::kLoadSx &&
          o.code != TOp::kLoadTr)
        return -1;
      if (live[static_cast<size_t>(o.a)]) return -1;
      const std::int32_t src = cd->node_of[static_cast<size_t>(o.a)];
      if (src < 0) return -1;
      if (reads[static_cast<size_t>(o.a)] == 1) return src;
      if (reads[static_cast<size_t>(o.a)] <= kDupReads &&
          xops[static_cast<size_t>(src)].size() <= kDupOps)
        return src;
      return -1;
    };
    // Splices the producer's expanded body, then reproduces the load's
    // view of the stored value: a load sees it masked to the declared
    // width (a no-op when the producer's context already was the declared
    // width), plus the fused extension if any.
    const auto splice_load = [&](std::vector<TOp>* out, const TOp& o,
                                 std::int32_t src) {
      std::vector<TOp>& body = xops[static_cast<size_t>(src)];
      out->insert(out->end(), body.begin(), body.end());
      if (reads[static_cast<size_t>(o.a)] == 1)
        std::vector<TOp>().swap(body);  // sole reader: steal, stay linear
      const int tw = d.signals[static_cast<size_t>(o.a)].width;
      const std::uint64_t m = umask(tw);
      const bool pre_masked =
          d.assigns[static_cast<size_t>(src)].rhs->self_w <= tw;
      if (o.code == TOp::kLoadTr) {
        out->push_back(TOp{TOp::kTrunc, 0, 0, m & o.imm});
      } else {
        if (!pre_masked) out->push_back(TOp{TOp::kTrunc, 0, 0, m});
        if (o.code == TOp::kLoadSx)
          out->push_back(TOp{TOp::kSext, o.w, 0, o.imm});
      }
    };
    std::vector<char> eager_n(A, 0);
    for (const std::int32_t uu : topo) {
      if (static_cast<std::size_t>(uu) >= A) continue;
      const std::size_t ai = static_cast<std::size_t>(uu);
      std::vector<TOp>& out = xops[ai];
      const TapeRef& t =
          cd->tapes[static_cast<size_t>(cd->nodes[ai].tape)];
      for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
        const TOp& o = cd->ops[i];
        if (o.code == TOp::kHalt) break;
        const std::int32_t src = fusable_src(o);
        if (src < 0) {
          out.push_back(o);
          if ((reads_scalar(o) || reads_array(o)) &&
              blocked[static_cast<size_t>(o.a)])
            tb_flag[ai] = 1;
          continue;
        }
        if (tb_flag[static_cast<size_t>(src)]) tb_flag[ai] = 1;
        splice_load(&out, o, src);
      }
    }

    // Process tapes (NBA values/indices, conditions): same splice, in
    // place — the tape slot is rewritten so every PInstr reference picks
    // up the fused body — but only of
    // producers whose expanded fanin is never blocking-written.
    const std::size_t ntapes = cd->tapes.size();
    std::vector<char> is_node_tape(ntapes, 0);
    for (std::size_t ai = 0; ai < A; ++ai)
      is_node_tape[static_cast<size_t>(cd->nodes[ai].tape)] = 1;
    std::vector<TOp> pout;
    std::vector<std::int32_t> eager_work;
    const auto mark_eager = [&](std::int32_t n) {
      if (n >= 0 && !eager_n[static_cast<size_t>(n)]) {
        eager_n[static_cast<size_t>(n)] = 1;
        eager_work.push_back(n);
      }
    };
    // Read sites are final from here on: re-seals may fold loads into
    // xL superinstructions.
    tb.fuse_loads = true;
    for (std::size_t ti = 0; ti < ntapes; ++ti) {
      if (is_node_tape[ti]) continue;
      const TapeRef t = cd->tapes[ti];  // copy: the slot is rewritten
      pout.clear();
      for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
        const TOp& o = cd->ops[i];
        if (o.code == TOp::kHalt) break;
        const std::int32_t src = fusable_src(o);
        if (src < 0 || tb_flag[static_cast<size_t>(src)]) {
          pout.push_back(o);
          continue;
        }
        splice_load(&pout, o, src);
      }
      // Whatever the final body loads must be stored at flush time —
      // including loads inside just-spliced producer bodies. Scanned
      // before sealing, so loads hidden by folding are still seen.
      for (const TOp& o : pout)
        if (reads_scalar(o))
          mark_eager(cd->node_of[static_cast<size_t>(o.a)]);
      // Unconditional re-seal (not just when a splice changed the
      // body): load folding only applies now.
      const auto begin = static_cast<std::uint32_t>(cd->ops.size());
      cd->ops.insert(cd->ops.end(), pout.begin(), pout.end());
      const int nt = tb.finish_tape(begin);
      cd->tapes[ti] = cd->tapes[static_cast<size_t>(nt)];
      cd->tapes.pop_back();
    }

    // Eagerness is a transitive closure from what must be stored in
    // val_ at flush time: live wires and wires whose kept load sites
    // sit in a process tape or in another eager node's exec body.
    // Everything outside the closure — including multi-reader wires
    // every reader duplicated — is recomputed on demand instead.
    for (std::size_t ai = 0; ai < A; ++ai)
      if (live[static_cast<size_t>(cd->nodes[ai].target)])
        mark_eager(static_cast<std::int32_t>(ai));
    while (!eager_work.empty()) {
      const std::int32_t n = eager_work.back();
      eager_work.pop_back();
      for (const TOp& o : xops[static_cast<size_t>(n)])
        if (reads_scalar(o))
          mark_eager(cd->node_of[static_cast<size_t>(o.a)]);
    }

    cd->num_eager = 0;
    for (std::size_t ai = 0; ai < A; ++ai) {
      CompiledDesign::Node& n = cd->nodes[ai];
      if (!eager_n[ai]) {
        cd->node_lazy[ai] = 1;
        n.exec_tape = n.tape;  // forced through the original tape on peek
        continue;
      }
      ++cd->num_eager;
      // Re-sealed even when no splice touched the body so the exec copy
      // gets the load-folded superinstructions the original cannot carry
      // (the original tape stays splice-grade for lazy forcing).
      const auto begin = static_cast<std::uint32_t>(cd->ops.size());
      cd->ops.insert(cd->ops.end(), xops[ai].begin(), xops[ai].end());
      n.exec_tape = tb.finish_tape(begin);
    }

    // Fanout CSR: signal -> *eager* assign nodes whose exec tape reads it
    // (dep_map equivalent; includes array-base loads so element writes
    // re-evaluate readers). Built from the exec tapes so fused-away
    // intermediates no longer appear and spliced fanin does.
    std::vector<std::pair<int, std::int32_t>> fan_pairs;
    for (std::size_t ai = 0; ai < A; ++ai) {
      if (cd->node_lazy[ai]) continue;
      const TapeRef& t =
          cd->tapes[static_cast<size_t>(cd->nodes[ai].exec_tape)];
      for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
        const TOp& o = cd->ops[i];
        if (reads_scalar(o) || reads_array(o))
          fan_pairs.emplace_back(o.a, static_cast<std::int32_t>(ai));
      }
    }
    std::sort(fan_pairs.begin(), fan_pairs.end());
    fan_pairs.erase(std::unique(fan_pairs.begin(), fan_pairs.end()),
                    fan_pairs.end());
    build_csr(nsig, fan_pairs, &cd->fan_index, &cd->fan_nodes);

    std::vector<std::int32_t> trig_order;
    {
      build_csr(nsig, trig_pairs, &cd->trig_index, &trig_order);
      std::vector<CompiledDesign::Trigger> sorted;
      sorted.reserve(cd->trigs.size());
      for (const std::int32_t ti : trig_order)
        sorted.push_back(cd->trigs[static_cast<size_t>(ti)]);
      cd->trigs = std::move(sorted);
    }

    cd->sig_mask.resize(nsig);
    for (std::size_t i = 0; i < nsig; ++i)
      cd->sig_mask[i] = umask(d.signals[i].width);
  } catch (const FallbackError& f) {
    if (why) *why = f.why;
    if (span.active()) span.arg("fallback_reason", f.why);
    return nullptr;
  }

  if (span.active()) {
    span.arg("levels", static_cast<long long>(cd->num_levels));
    span.arg("comb_nodes", static_cast<long long>(cd->nodes.size()));
    span.arg("eager_nodes", static_cast<long long>(cd->num_eager));
    span.arg("procs", static_cast<long long>(cd->procs.size()));
    span.arg("tape_ops", static_cast<long long>(cd->ops.size()));
  }
  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::instance();
    m.set_gauge("vsim.compile.levels", static_cast<double>(cd->num_levels));
    m.add("vsim.compile.designs", 1.0);
  }
  if (why) why->clear();
  return cd;
}

// ---- Plan memoization -------------------------------------------------------

namespace {

struct PlanCache {
  std::mutex mu;
  struct Entry {
    std::weak_ptr<const Design> key;
    std::shared_ptr<const CompiledDesign> plan;
    std::string why;
  };
  std::unordered_map<const Design*, Entry> map;
};

PlanCache& plan_cache() {
  static auto* c = new PlanCache;
  return *c;
}

}  // namespace

std::shared_ptr<const CompiledDesign> compiled_plan(
    const std::shared_ptr<const Design>& design, std::string* why) {
  auto& c = plan_cache();
  {
    std::lock_guard<std::mutex> lk(c.mu);
    auto it = c.map.find(design.get());
    // A live weak_ptr at the same address is necessarily the same design;
    // expired entries mean the address was freed and possibly reused.
    if (it != c.map.end() && !it->second.key.expired()) {
      if (why) *why = it->second.why;
      if (obs::enabled())
        obs::MetricsRegistry::instance().add("vsim.plan_cache.hits", 1.0);
      return it->second.plan;
    }
  }
  auto plan = compile_design(design, why);  // pure: compile outside the lock
  {
    std::lock_guard<std::mutex> lk(c.mu);
    if (obs::enabled())
      obs::MetricsRegistry::instance().add("vsim.plan_cache.misses", 1.0);
    if (c.map.size() > 64) {
      // A compiled plan owns its Design, so a cached key never expires on
      // its own. Also drop entries only the cache can reach (the plan held
      // by nobody else, its Design held by nobody but the plan): no caller
      // can present that Design again, so no future lookup could hit them.
      const auto unreachable = [](const PlanCache::Entry& e) {
        return e.key.expired() ||
               (e.plan.use_count() == 1 && e.plan->design.use_count() == 1);
      };
      for (auto it = c.map.begin(); it != c.map.end();)
        it = unreachable(it->second) ? c.map.erase(it) : std::next(it);
    }
    PlanCache::Entry e;
    e.key = design;
    e.plan = plan;
    if (plan == nullptr && why != nullptr) e.why = *why;
    c.map[design.get()] = std::move(e);
  }
  return plan;
}

// ---- CompiledSim ------------------------------------------------------------

CompiledSim::CompiledSim(std::shared_ptr<const CompiledDesign> cd,
                         const SimConfig& cfg)
    : cd_(std::move(cd)), cfg_(cfg) {
  const Design& d = *cd_->design;
  const std::size_t n = d.signals.size();
  val_.assign(n, 0);
  arr_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Signal& s = d.signals[i];
    if (s.array_len > 0)
      arr_[i].assign(static_cast<size_t>(s.array_len), 0);
    else if (s.has_init)
      val_[i] = static_cast<std::uint64_t>(s.init) & cd_->sig_mask[i];
  }
  stack_.resize(static_cast<size_t>(std::max(cd_->max_stack, 1)));

  // Time 0: every continuous assign evaluates once; initial bodies are
  // ready; always bodies park until their first trigger (exactly the
  // event kernel's t0, where an always thread immediately hits its wait).
  level_q_.resize(static_cast<size_t>(std::max(cd_->num_levels, 1)));
  node_pending_.assign(cd_->nodes.size(), 0);
  for (std::size_t i = 0; i < cd_->nodes.size(); ++i) {
    if (cd_->node_lazy[i]) continue;  // lazy nodes never enter the queue
    node_pending_[i] = 1;
    level_q_[static_cast<size_t>(cd_->nodes[i].level)].push_back(
        static_cast<std::int32_t>(i));
    ++pending_;
  }

  ready_.assign(cd_->procs.size(), 0);
  for (std::size_t p = 0; p < cd_->procs.size(); ++p) {
    if (cd_->procs[p].initially_ready) {
      ready_[p] = 1;
      ++ready_count_;
    }
  }

  settle();
}

CompiledSim::~CompiledSim() {
  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::instance();
    m.add("vsim.events", static_cast<double>(stats_.events));
    m.add("vsim.nba_commits", static_cast<double>(stats_.nba_commits));
    m.add("vsim.compiled.comb_evals", static_cast<double>(comb_evals_));
    m.add("vsim.compiled.gated_evals", static_cast<double>(gated_evals_));
  }
}

void CompiledSim::fail_budget(int proc) const {
  fail("instruction budget exceeded without time advancing "
       "(zero-delay loop in " +
       cd_->procs[static_cast<size_t>(proc)].origin + "?)");
}

long long CompiledSim::peek_signed(int sig) const {
  return s64(peek(sig),
             cd_->design->signals[static_cast<size_t>(sig)].width);
}

// Recomputes a lazy node's target on demand: force the lazy transitive
// fanin first (scanning the *original* tape, whose loads name the real
// producer wires), then replay the original tape. The levelized graph is
// acyclic, so the recursion is bounded by the chain depth.
void CompiledSim::force_lazy(int node) {
  const CompiledDesign::Node& nd = cd_->nodes[static_cast<size_t>(node)];
  const TapeRef& t = cd_->tapes[static_cast<size_t>(nd.tape)];
  for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    const TOp& o = cd_->ops[i];
    if (!reads_scalar(o)) continue;
    const std::int32_t m = cd_->node_of[static_cast<size_t>(o.a)];
    if (m >= 0 && cd_->node_lazy[static_cast<size_t>(m)]) force_lazy(m);
  }
  val_[static_cast<size_t>(nd.target)] =
      run_tape(nd.tape) & cd_->sig_mask[static_cast<size_t>(nd.target)];
}

std::uint64_t CompiledSim::peek_elem(int sig, int index) const {
  const auto& a = arr_[static_cast<size_t>(sig)];
  if (index < 0 || index >= static_cast<int>(a.size()))
    fail("element " + std::to_string(index) + " out of range for '" +
         cd_->design->signals[static_cast<size_t>(sig)].name + "'");
  return a[static_cast<size_t>(index)];
}

// Tape interpreter. Every tape ends in a kHalt sentinel (finish_tape), so
// the loop needs no bounds check. On GCC/Clang dispatch is direct-threaded:
// each op body jumps straight to the next op's handler through its own
// indirect branch, so the predictor learns the op sequences of hot tapes
// instead of funneling every transition through one shared switch site.
// The op bodies are written once; VSIM_OP / VSIM_NEXT expand to labels +
// computed goto or to case + break depending on the dispatch mode.
#if defined(__GNUC__) || defined(__clang__)
#define VSIM_THREADED 1
#define VSIM_OP(name) lbl_##name
#define VSIM_NEXT goto* kJump[static_cast<size_t>((++op)->code)]
#else
#define VSIM_OP(name) case TOp::name
#define VSIM_NEXT break
#endif

std::uint64_t CompiledSim::run_tape(int tape) {
  const TapeRef& t = cd_->tapes[static_cast<size_t>(tape)];
  const TOp* op = cd_->ops.data() + t.begin;
  std::uint64_t* sp = stack_.data();
#ifdef VSIM_THREADED
  // Handler table indexed by TOp::Code — order must match the enum.
  static const void* const kJump[] = {
      &&lbl_kConst,     &&lbl_kLoad,   &&lbl_kLoadSx, &&lbl_kLoadTr,
      &&lbl_kLoadElem,  &&lbl_kTrunc,  &&lbl_kSext,   &&lbl_kToSigned,
      &&lbl_kBitSel,    &&lbl_kRange,  &&lbl_kNeg,    &&lbl_kNot,
      &&lbl_kLNot,      &&lbl_kNeZero, &&lbl_kRedAnd, &&lbl_kRedNand,
      &&lbl_kRedOr,     &&lbl_kRedNor, &&lbl_kRedXor, &&lbl_kRedXnor,
      &&lbl_kAnd,       &&lbl_kOr,     &&lbl_kXor,    &&lbl_kXnorB,
      &&lbl_kAdd,       &&lbl_kSub,    &&lbl_kMul,    &&lbl_kDivU,
      &&lbl_kModU,      &&lbl_kDivS,   &&lbl_kModS,   &&lbl_kEq,
      &&lbl_kNe,        &&lbl_kLtU,    &&lbl_kLeU,    &&lbl_kGtU,
      &&lbl_kGeU,       &&lbl_kLtS,    &&lbl_kLeS,    &&lbl_kGtS,
      &&lbl_kGeS,       &&lbl_kShl,    &&lbl_kShrU,   &&lbl_kShrS,
      &&lbl_kConcatAcc, &&lbl_kRepl,   &&lbl_kMux,
      &&lbl_kLoadElemSx, &&lbl_kLoadElemTr,
      &&lbl_kAddC,      &&lbl_kSubC,   &&lbl_kMulC,   &&lbl_kOrC,
      &&lbl_kXorC,      &&lbl_kShlC,   &&lbl_kConcatC,
      &&lbl_kAddL,      &&lbl_kSubL,   &&lbl_kMulL,   &&lbl_kAndL,
      &&lbl_kOrL,       &&lbl_kXorL,   &&lbl_kConcatL,
      &&lbl_kRangeL,    &&lbl_kLoadShlC,
      &&lbl_kHalt,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                static_cast<size_t>(TOp::kHalt) + 1);
  goto* kJump[static_cast<size_t>(op->code)];
#else
  for (;; ++op) switch (op->code) {
#endif
  VSIM_OP(kConst):
    *sp++ = op->imm;
    VSIM_NEXT;
  VSIM_OP(kLoad):
    *sp++ = val_[static_cast<size_t>(op->a)];
    VSIM_NEXT;
  VSIM_OP(kLoadSx): {
    std::uint64_t v = val_[static_cast<size_t>(op->a)];
    if ((v >> (op->w - 1)) & 1) v |= ~umask(op->w);
    *sp++ = v & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kLoadTr):
    *sp++ = val_[static_cast<size_t>(op->a)] & op->imm;
    VSIM_NEXT;
  VSIM_OP(kLoadElem): {
    std::uint64_t u = sp[-1];
    if (op->w && ((u >> (op->w - 1)) & 1)) u |= ~umask(op->w);
    const long long idx = static_cast<long long>(u);
    const auto& a = arr_[static_cast<size_t>(op->a)];
    sp[-1] = (idx >= 0 && idx < static_cast<long long>(a.size()))
                 ? a[static_cast<size_t>(idx)]
                 : 0;
    VSIM_NEXT;
  }
  VSIM_OP(kTrunc):
    sp[-1] &= op->imm;
    VSIM_NEXT;
  VSIM_OP(kSext): {
    std::uint64_t v = sp[-1];
    if ((v >> (op->w - 1)) & 1) v |= ~umask(op->w);
    sp[-1] = v & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kToSigned): {
    std::uint64_t v = sp[-1];
    if (op->w < 64 && ((v >> (op->w - 1)) & 1)) v |= ~umask(op->w);
    sp[-1] = v;
    VSIM_NEXT;
  }
  VSIM_OP(kBitSel): {
    const long long idx = static_cast<long long>(sp[-1]);
    --sp;
    sp[-1] = (idx >= 0 && idx < op->w) ? (sp[-1] >> idx) & 1 : 0;
    VSIM_NEXT;
  }
  VSIM_OP(kRange):
    sp[-1] = (sp[-1] >> op->a) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kNeg):
    sp[-1] = (0 - sp[-1]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kNot):
    sp[-1] = ~sp[-1] & op->imm;
    VSIM_NEXT;
  VSIM_OP(kLNot):
    sp[-1] = sp[-1] == 0;
    VSIM_NEXT;
  VSIM_OP(kNeZero):
    sp[-1] = sp[-1] != 0;
    VSIM_NEXT;
  VSIM_OP(kRedAnd):
    sp[-1] = sp[-1] == op->imm;
    VSIM_NEXT;
  VSIM_OP(kRedNand):
    sp[-1] = sp[-1] != op->imm;
    VSIM_NEXT;
  VSIM_OP(kRedOr):
    sp[-1] = sp[-1] != 0;
    VSIM_NEXT;
  VSIM_OP(kRedNor):
    sp[-1] = sp[-1] == 0;
    VSIM_NEXT;
  VSIM_OP(kRedXor):
    sp[-1] = static_cast<std::uint64_t>(
        __builtin_parityll(static_cast<long long>(sp[-1])));
    VSIM_NEXT;
  VSIM_OP(kRedXnor):
    sp[-1] = static_cast<std::uint64_t>(
        !__builtin_parityll(static_cast<long long>(sp[-1])));
    VSIM_NEXT;
  VSIM_OP(kAnd):
    --sp;
    sp[-1] &= sp[0];
    VSIM_NEXT;
  VSIM_OP(kOr):
    --sp;
    sp[-1] |= sp[0];
    VSIM_NEXT;
  VSIM_OP(kXor):
    --sp;
    sp[-1] ^= sp[0];
    VSIM_NEXT;
  VSIM_OP(kXnorB):
    --sp;
    sp[-1] = ~(sp[-1] ^ sp[0]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kAdd):
    --sp;
    sp[-1] = (sp[-1] + sp[0]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kSub):
    --sp;
    sp[-1] = (sp[-1] - sp[0]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kMul):
    --sp;
    sp[-1] = (sp[-1] * sp[0]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kDivU):
    --sp;
    sp[-1] = sp[0] == 0 ? 0 : sp[-1] / sp[0];
    VSIM_NEXT;
  VSIM_OP(kModU):
    --sp;
    sp[-1] = sp[0] == 0 ? 0 : sp[-1] % sp[0];
    VSIM_NEXT;
  VSIM_OP(kDivS): {
    --sp;
    const long long sa = s64(sp[-1], op->w), sb = s64(sp[0], op->w);
    std::uint64_t r;
    if (sb == 0) r = 0;
    else if (sb == -1) r = 0 - sp[-1];  // avoid INT64_MIN / -1
    else r = static_cast<std::uint64_t>(sa / sb);
    sp[-1] = r & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kModS): {
    --sp;
    const long long sa = s64(sp[-1], op->w), sb = s64(sp[0], op->w);
    std::uint64_t r;
    if (sb == 0 || sb == -1) r = 0;
    else r = static_cast<std::uint64_t>(sa % sb);
    sp[-1] = r & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kEq):
    --sp;
    sp[-1] = sp[-1] == sp[0];
    VSIM_NEXT;
  VSIM_OP(kNe):
    --sp;
    sp[-1] = sp[-1] != sp[0];
    VSIM_NEXT;
  VSIM_OP(kLtU):
    --sp;
    sp[-1] = sp[-1] < sp[0];
    VSIM_NEXT;
  VSIM_OP(kLeU):
    --sp;
    sp[-1] = sp[-1] <= sp[0];
    VSIM_NEXT;
  VSIM_OP(kGtU):
    --sp;
    sp[-1] = sp[-1] > sp[0];
    VSIM_NEXT;
  VSIM_OP(kGeU):
    --sp;
    sp[-1] = sp[-1] >= sp[0];
    VSIM_NEXT;
  VSIM_OP(kLtS):
    --sp;
    sp[-1] = s64(sp[-1], op->w) < s64(sp[0], op->w);
    VSIM_NEXT;
  VSIM_OP(kLeS):
    --sp;
    sp[-1] = s64(sp[-1], op->w) <= s64(sp[0], op->w);
    VSIM_NEXT;
  VSIM_OP(kGtS):
    --sp;
    sp[-1] = s64(sp[-1], op->w) > s64(sp[0], op->w);
    VSIM_NEXT;
  VSIM_OP(kGeS):
    --sp;
    sp[-1] = s64(sp[-1], op->w) >= s64(sp[0], op->w);
    VSIM_NEXT;
  VSIM_OP(kShl): {
    --sp;
    const std::uint64_t sh = sp[0];
    sp[-1] = sh >= 64 ? 0 : (sp[-1] << sh) & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kShrU): {
    --sp;
    const std::uint64_t sh = sp[0];
    sp[-1] = sh >= 64 ? 0 : sp[-1] >> sh;
    VSIM_NEXT;
  }
  VSIM_OP(kShrS): {
    --sp;
    const std::uint64_t sh = sp[0];
    const long long sa = s64(sp[-1], op->w);
    sp[-1] = static_cast<std::uint64_t>(sa >> (sh > 63 ? 63 : sh)) &
             op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kConcatAcc):
    --sp;
    sp[-1] = (sp[-1] << op->w) | sp[0];
    VSIM_NEXT;
  VSIM_OP(kRepl): {
    const std::uint64_t kv = sp[-1];
    std::uint64_t v = 0;
    for (std::int32_t i = 0; i < op->a; ++i) v = (v << op->w) | kv;
    sp[-1] = v;
    VSIM_NEXT;
  }
  VSIM_OP(kMux):
    sp -= 2;
    sp[-1] = sp[-1] != 0 ? sp[0] : sp[1];
    VSIM_NEXT;
  VSIM_OP(kLoadElemSx): {
    const long long idx = static_cast<long long>(sp[-1]);
    const auto& a = arr_[static_cast<size_t>(op->a)];
    std::uint64_t v = (idx >= 0 && idx < static_cast<long long>(a.size()))
                          ? a[static_cast<size_t>(idx)]
                          : 0;
    if ((v >> (op->w - 1)) & 1) v |= ~umask(op->w);
    sp[-1] = v & op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kLoadElemTr): {
    std::uint64_t u = sp[-1];
    if (op->w && ((u >> (op->w - 1)) & 1)) u |= ~umask(op->w);
    const long long idx = static_cast<long long>(u);
    const auto& a = arr_[static_cast<size_t>(op->a)];
    sp[-1] = ((idx >= 0 && idx < static_cast<long long>(a.size()))
                  ? a[static_cast<size_t>(idx)]
                  : 0) &
             op->imm;
    VSIM_NEXT;
  }
  VSIM_OP(kAddC):
    sp[-1] = (sp[-1] + static_cast<std::uint32_t>(op->a)) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kSubC):
    sp[-1] = (sp[-1] - static_cast<std::uint32_t>(op->a)) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kMulC):
    sp[-1] = (sp[-1] * static_cast<std::uint32_t>(op->a)) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kOrC):
    sp[-1] |= op->imm;
    VSIM_NEXT;
  VSIM_OP(kXorC):
    sp[-1] ^= op->imm;
    VSIM_NEXT;
  VSIM_OP(kShlC):
    sp[-1] = (sp[-1] << static_cast<std::uint32_t>(op->a)) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kConcatC):
    sp[-1] = (sp[-1] << op->w) | static_cast<std::uint32_t>(op->a);
    VSIM_NEXT;
  VSIM_OP(kAddL):
    sp[-1] = (sp[-1] + val_[static_cast<size_t>(op->a)]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kSubL):
    sp[-1] = (sp[-1] - val_[static_cast<size_t>(op->a)]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kMulL):
    sp[-1] = (sp[-1] * val_[static_cast<size_t>(op->a)]) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kAndL):
    sp[-1] &= val_[static_cast<size_t>(op->a)];
    VSIM_NEXT;
  VSIM_OP(kOrL):
    sp[-1] |= val_[static_cast<size_t>(op->a)];
    VSIM_NEXT;
  VSIM_OP(kXorL):
    sp[-1] ^= val_[static_cast<size_t>(op->a)];
    VSIM_NEXT;
  VSIM_OP(kConcatL):
    sp[-1] = (sp[-1] << op->w) | val_[static_cast<size_t>(op->a)];
    VSIM_NEXT;
  VSIM_OP(kRangeL):
    *sp++ = (val_[static_cast<size_t>(op->a)] >> op->w) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kLoadShlC):
    *sp++ = (val_[static_cast<size_t>(op->a)] << op->w) & op->imm;
    VSIM_NEXT;
  VSIM_OP(kHalt):
    return sp[-1];
#ifndef VSIM_THREADED
  }
#endif
}

#undef VSIM_THREADED
#undef VSIM_OP
#undef VSIM_NEXT

void CompiledSim::mark_fanout(int sig) {
  const auto b = cd_->fan_index[static_cast<size_t>(sig)];
  const auto e = cd_->fan_index[static_cast<size_t>(sig) + 1];
  for (auto i = b; i < e; ++i) {
    const std::int32_t n = cd_->fan_nodes[static_cast<size_t>(i)];
    if (!node_pending_[static_cast<size_t>(n)]) {
      node_pending_[static_cast<size_t>(n)] = 1;
      level_q_[static_cast<size_t>(cd_->nodes[static_cast<size_t>(n)].level)]
          .push_back(n);
      ++pending_;
    }
  }
}

void CompiledSim::set_scalar(int sig, std::uint64_t v) {
  v &= cd_->sig_mask[static_cast<size_t>(sig)];
  const std::uint64_t old = val_[static_cast<size_t>(sig)];
  if (old == v) return;
  val_[static_cast<size_t>(sig)] = v;
  ++stats_.events;
  mark_fanout(sig);
  const auto b = cd_->trig_index[static_cast<size_t>(sig)];
  const auto e = cd_->trig_index[static_cast<size_t>(sig) + 1];
  if (b == e) return;
  const bool pos = !(old & 1) && (v & 1);
  const bool neg = (old & 1) && !(v & 1);
  for (auto i = b; i < e; ++i) {
    const auto& t = cd_->trigs[static_cast<size_t>(i)];
    // The running process cannot re-arm itself: the event kernel's thread
    // is not edge-waiting while it executes, so self-edges are lost.
    if (t.proc == running_proc_) continue;
    if (t.edge == Edge::kAny || (t.edge == Edge::kPos && pos) ||
        (t.edge == Edge::kNeg && neg)) {
      if (!ready_[static_cast<size_t>(t.proc)]) {
        ready_[static_cast<size_t>(t.proc)] = 1;
        ++ready_count_;
      }
    }
  }
}

void CompiledSim::set_elem(int sig, long long index, std::uint64_t v) {
  auto& a = arr_[static_cast<size_t>(sig)];
  if (index < 0 || index >= static_cast<long long>(a.size())) return;
  v &= cd_->sig_mask[static_cast<size_t>(sig)];
  if (a[static_cast<size_t>(index)] == v) return;
  a[static_cast<size_t>(index)] = v;
  ++stats_.events;
  mark_fanout(sig);  // element writes never wake edge waits (kernel parity)
}

void CompiledSim::flush_comb() {
  if (pending_ == 0) return;
  long long evals = 0;
  for (auto& q : level_q_) {
    if (q.empty()) continue;
    // Appends during this loop go to strictly higher levels: a reader's
    // level always exceeds its writer's.
    for (std::size_t i = 0; i < q.size(); ++i) {
      const std::int32_t n = q[i];
      node_pending_[static_cast<size_t>(n)] = 0;
      const CompiledDesign::Node& nd = cd_->nodes[static_cast<size_t>(n)];
      set_scalar(nd.target, run_tape(nd.exec_tape));
      ++evals;
    }
    pending_ -= static_cast<long long>(q.size());
    q.clear();
    if (pending_ == 0) break;
  }
  comb_evals_ += evals;
  gated_evals_ += static_cast<long long>(cd_->num_eager) - evals;
}

void CompiledSim::commit_nba() {
  // Swap through a persistent scratch so neither vector re-allocates once
  // warm (a fresh vector here cost one malloc per delta cycle).
  std::vector<NbaEntry>& q = nba_scratch_;
  q.clear();
  q.swap(nba_);
  stats_.nba_commits += static_cast<long long>(q.size());
  const Design& d = *cd_->design;
  for (const NbaEntry& e : q) {
    const Signal& s = d.signals[static_cast<size_t>(e.sig)];
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

void CompiledSim::run_proc(int p) {
  running_proc_ = p;
  ready_[static_cast<size_t>(p)] = 0;
  --ready_count_;
  int pc = cd_->procs[static_cast<size_t>(p)].entry;
  for (;;) {
    const PInstr& in = cd_->prog[static_cast<size_t>(pc)];
    ++stats_.instrs;
    switch (in.code) {
      case PInstr::kAssign:
        set_scalar(in.sig, run_tape(in.t0));
        ++pc;
        break;
      case PInstr::kAssignCopy:
        set_scalar(in.sig, val_[static_cast<size_t>(in.a)]);
        ++pc;
        break;
      case PInstr::kAssignConst:
        set_scalar(in.sig, in.imm);
        ++pc;
        break;
      case PInstr::kAssignElem: {
        const std::uint64_t v = run_tape(in.t0);
        const long long idx = static_cast<long long>(run_tape(in.t1));
        set_elem(in.sig, idx, v);
        ++pc;
        break;
      }
      case PInstr::kAssignBit: {
        const std::uint64_t v = run_tape(in.t0);
        const long long idx = static_cast<long long>(run_tape(in.t1));
        const Signal& s =
            cd_->design->signals[static_cast<size_t>(in.sig)];
        if (idx >= 0 && idx < s.width) {
          const std::uint64_t old = val_[static_cast<size_t>(in.sig)];
          set_scalar(in.sig,
                     (old & ~(1ULL << idx)) | ((v & 1ULL) << idx));
        }
        ++pc;
        break;
      }
      case PInstr::kNb:
        nba_.push_back(
            {in.sig, -1,
             run_tape(in.t0) & cd_->sig_mask[static_cast<size_t>(in.sig)]});
        ++pc;
        break;
      case PInstr::kNbCopy:
        nba_.push_back({in.sig, -1,
                        val_[static_cast<size_t>(in.a)] &
                            cd_->sig_mask[static_cast<size_t>(in.sig)]});
        ++pc;
        break;
      case PInstr::kNbConst:
        nba_.push_back({in.sig, -1, in.imm});  // masked at compile time
        ++pc;
        break;
      case PInstr::kNbElem: {
        const std::uint64_t v =
            run_tape(in.t0) & cd_->sig_mask[static_cast<size_t>(in.sig)];
        const long long idx = static_cast<long long>(run_tape(in.t1));
        nba_.push_back({in.sig, idx, v});
        ++pc;
        break;
      }
      case PInstr::kNbBit: {
        const std::uint64_t v = run_tape(in.t0);
        const long long idx = static_cast<long long>(run_tape(in.t1));
        nba_.push_back({in.sig, idx, v & 1});
        ++pc;
        break;
      }
      case PInstr::kJump:
        // Only backward jumps (loop back-edges) can run unboundedly, so
        // the zero-delay budget is checked here instead of per instruction.
        if (in.a <= pc &&
            stats_.instrs - slot_instr_base_ > cfg_.max_instrs_per_slot) {
          running_proc_ = -1;
          fail_budget(p);
        }
        pc = in.a;
        break;
      case PInstr::kJumpIfFalse:
        pc = run_tape(in.t0) != 0 ? pc + 1 : in.a;
        break;
      case PInstr::kJumpIfFalseSig:
        pc = val_[static_cast<size_t>(in.sig)] != 0 ? pc + 1 : in.a;
        break;
      case PInstr::kCaseJump: {
        const CompiledDesign::CaseTable& t =
            cd_->case_tables[static_cast<size_t>(in.a)];
        const std::uint64_t v = val_[static_cast<size_t>(in.sig)];
        const auto it = std::lower_bound(
            t.arms.begin(), t.arms.end(), v,
            [](const std::pair<std::uint64_t, std::int32_t>& a,
               std::uint64_t key) { return a.first < key; });
        pc = (it != t.arms.end() && it->first == v) ? it->second : t.def_pc;
        break;
      }
      case PInstr::kHalt:
        running_proc_ = -1;
        return;
    }
  }
}

void CompiledSim::settle() {
  slot_instr_base_ = stats_.instrs;
  for (;;) {
    flush_comb();
    if (ready_count_ > 0) {
      int p = -1;
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        if (ready_[i]) {
          p = static_cast<int>(i);
          break;
        }
      }
      run_proc(p);
      continue;
    }
    if (nba_.empty()) break;
    commit_nba();
    ++stats_.delta_cycles;
  }
}

void CompiledSim::poke(int sig, std::uint64_t value) {
  set_scalar(sig, value);
}

}  // namespace hlsw::vsim
