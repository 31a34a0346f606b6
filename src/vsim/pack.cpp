#include "vsim/pack.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/testbench.h"
#include "vsim/codegen.h"

// The lane loops below autovectorize, but the default x86-64 baseline only
// gives SSE2 (2 lanes per vector op). target_clones emits additional
// AVX2/AVX-512 bodies for the hot engine functions and picks the widest
// the host supports at load time (GNU ifunc), so one portable binary gets
// 4-8 lanes per vector op where available — measured ~1.5x on the packed
// sweep. No-op on toolchains without the attribute. Also disabled under
// ThreadSanitizer: the ifunc resolvers target_clones emits run during
// relocation, before the TSan runtime has set up its thread state, and the
// instrumented resolver prologue (__tsan_func_entry) then segfaults on the
// null TLS — the sanitized build only checks races, it does not need SIMD.
#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__SANITIZE_THREAD__)
#define HLSW_PACK_NO_SIMD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HLSW_PACK_NO_SIMD 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && !defined(HLSW_PACK_NO_SIMD) && \
    __has_attribute(target_clones)
#define HLSW_PACK_SIMD \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define HLSW_PACK_SIMD
#endif

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

inline int popcount(std::uint64_t m) { return __builtin_popcountll(m); }

// Load-site classification as in compile.cpp: the xL superinstructions are
// reads of val[a] too.
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

}  // namespace

// ---- PackedSim --------------------------------------------------------------

PackedSim::PackedSim(std::shared_ptr<const CompiledDesign> cd, int lanes,
                     const SimConfig& cfg)
    : cd_(std::move(cd)), cfg_(cfg), lanes_(lanes) {
  if (lanes_ < 1 || lanes_ > kMaxLanes)
    fail("packed lane count " + std::to_string(lanes_) + " outside [1, " +
         std::to_string(kMaxLanes) + "]");
  full_mask_ = lanes_ == 64 ? ~0ULL : (1ULL << lanes_) - 1ULL;

  const Design& d = *cd_->design;
  const std::size_t nsig = d.signals.size();
  const std::size_t L = static_cast<std::size_t>(lanes_);
  vals_.assign(nsig * L, 0);
  arr_.resize(nsig);
  for (std::size_t i = 0; i < nsig; ++i) {
    const Signal& s = d.signals[i];
    if (s.array_len > 0) {
      arr_[i].assign(static_cast<std::size_t>(s.array_len) * L, 0);
    } else if (s.has_init) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(s.init) & cd_->sig_mask[i];
      std::fill_n(val(static_cast<int>(i)), L, v);
    }
  }
  stack_.resize(static_cast<std::size_t>(std::max(cd_->max_stack, 1)) * L);
  scratch_.resize(2 * L);

  level_q_.resize(static_cast<std::size_t>(std::max(cd_->num_levels, 1)));
  node_pending_.assign(cd_->nodes.size(), 0);
  for (std::size_t i = 0; i < cd_->nodes.size(); ++i) {
    if (cd_->node_lazy[i]) continue;
    node_pending_[i] = 1;
    level_q_[static_cast<std::size_t>(cd_->nodes[i].level)].push_back(
        static_cast<std::int32_t>(i));
    ++pending_;
  }

  ready_.assign(cd_->procs.size(), 0);
  reps_.resize(cd_->procs.size());
  for (auto& r : reps_) r.resize(L);
  for (std::size_t p = 0; p < cd_->procs.size(); ++p)
    if (cd_->procs[p].initially_ready) ready_[p] = full_mask_;
  settle();
}

PackedSim::~PackedSim() {
  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::instance();
    m.add("vsim.events", static_cast<double>(stats_.events));
    m.add("vsim.nba_commits", static_cast<double>(stats_.nba_commits));
    if (divergence_splits_ > 0)
      m.add("vsim.packed.divergence_splits",
            static_cast<double>(divergence_splits_));
  }
}

void PackedSim::fail_budget(int proc) const {
  fail("instruction budget exceeded without time advancing "
       "(zero-delay loop in " +
       cd_->procs[static_cast<std::size_t>(proc)].origin + "?)");
}

void PackedSim::mark_fanout(int sig) {
  const auto b = cd_->fan_index[static_cast<std::size_t>(sig)];
  const auto e = cd_->fan_index[static_cast<std::size_t>(sig) + 1];
  for (auto i = b; i < e; ++i) {
    const std::int32_t n = cd_->fan_nodes[static_cast<std::size_t>(i)];
    if (!node_pending_[static_cast<std::size_t>(n)]) {
      node_pending_[static_cast<std::size_t>(n)] = 1;
      level_q_[static_cast<std::size_t>(
                   cd_->nodes[static_cast<std::size_t>(n)].level)]
          .push_back(n);
      ++pending_;
    }
  }
}

HLSW_PACK_SIMD
void PackedSim::set_masked(int sig, const std::uint64_t* nv,
                           std::uint64_t mask) {
  if (mask == 0) return;
  const std::uint64_t sm = cd_->sig_mask[static_cast<std::size_t>(sig)];
  std::uint64_t* v = val(sig);
  std::uint64_t ch = 0, pos = 0, neg = 0;
  if (mask == full_mask_) {
    // Full-context write (every flush store, most proc stores in lockstep):
    // branchless — stores are unconditional (unchanged lanes rewrite their
    // old value) and the edge masks need no change guard, since a bit-0
    // transition implies o != n.
    for (int l = 0; l < lanes_; ++l) {
      const std::uint64_t n = nv[l] & sm;
      const std::uint64_t o = v[l];
      v[l] = n;
      ch |= static_cast<std::uint64_t>(o != n) << l;
      pos |= ((~o & n) & 1) << l;
      neg |= ((o & ~n) & 1) << l;
    }
  } else {
    for (int l = 0; l < lanes_; ++l) {
      if (!((mask >> l) & 1)) continue;
      const std::uint64_t n = nv[l] & sm;
      const std::uint64_t o = v[l];
      if (o == n) continue;
      v[l] = n;
      const std::uint64_t bit = 1ULL << l;
      ch |= bit;
      if (!(o & 1) && (n & 1)) pos |= bit;
      if ((o & 1) && !(n & 1)) neg |= bit;
    }
  }
  if (ch == 0) return;
  stats_.events += popcount(ch);
  mark_fanout(sig);
  const auto b = cd_->trig_index[static_cast<std::size_t>(sig)];
  const auto e = cd_->trig_index[static_cast<std::size_t>(sig) + 1];
  for (auto i = b; i < e; ++i) {
    const auto& t = cd_->trigs[static_cast<std::size_t>(i)];
    // Self-skip, per lane exact: every changed lane lies inside the
    // running context's mask, so the whole change mask is the process's
    // own write.
    if (t.proc == running_proc_) continue;
    ready_[static_cast<std::size_t>(t.proc)] |=
        t.edge == Edge::kAny ? ch : (t.edge == Edge::kPos ? pos : neg);
  }
}

void PackedSim::set_masked_const(int sig, std::uint64_t nv,
                                 std::uint64_t mask) {
  std::uint64_t* plane = scratch_.data();
  for (int l = 0; l < lanes_; ++l) plane[l] = nv;
  set_masked(sig, plane, mask);
}

void PackedSim::set_elem_lane(int sig, int lane, long long index,
                              std::uint64_t v) {
  const long long n =
      cd_->design->signals[static_cast<std::size_t>(sig)].array_len;
  if (index < 0 || index >= n) return;  // silent drop, kernel parity
  v &= cd_->sig_mask[static_cast<std::size_t>(sig)];
  std::uint64_t& slot =
      arr_[static_cast<std::size_t>(sig)]
          [static_cast<std::size_t>(index) * lanes_ +
           static_cast<std::size_t>(lane)];
  if (slot == v) return;
  slot = v;
  ++stats_.events;
  mark_fanout(sig);  // element writes never wake edge waits
}

void PackedSim::poke(int sig, std::uint64_t value, std::uint64_t mask) {
  set_masked_const(sig, value, mask & full_mask_);
}

void PackedSim::poke_lane(int sig, int lane, std::uint64_t value) {
  set_masked_const(sig, value, 1ULL << lane);
}

void PackedSim::poke_plane(int sig, const std::uint64_t* plane,
                           std::uint64_t mask) {
  set_masked(sig, plane, mask & full_mask_);
}

std::uint64_t PackedSim::peek_nonzero_mask(int sig) const {
  const std::int32_t n = cd_->node_of[static_cast<std::size_t>(sig)];
  if (n >= 0 && cd_->node_lazy[static_cast<std::size_t>(n)])
    const_cast<PackedSim*>(this)->force_lazy(n);
  const std::uint64_t* v = val(sig);
  std::uint64_t m = 0;
  for (int l = 0; l < lanes_; ++l)
    m |= static_cast<std::uint64_t>(v[l] != 0) << l;
  return m;
}

std::uint64_t PackedSim::peek(int sig, int lane) const {
  const std::int32_t n = cd_->node_of[static_cast<std::size_t>(sig)];
  if (n >= 0 && cd_->node_lazy[static_cast<std::size_t>(n)])
    const_cast<PackedSim*>(this)->force_lazy(n);
  return val(sig)[lane];
}

long long PackedSim::peek_signed(int sig, int lane) const {
  return s64(peek(sig, lane),
             cd_->design->signals[static_cast<std::size_t>(sig)].width);
}

std::uint64_t PackedSim::peek_elem(int sig, int index, int lane) const {
  const Signal& s = cd_->design->signals[static_cast<std::size_t>(sig)];
  if (index < 0 || index >= s.array_len)
    fail("element " + std::to_string(index) + " out of range for '" + s.name +
         "'");
  return arr_[static_cast<std::size_t>(sig)]
             [static_cast<std::size_t>(index) * lanes_ +
              static_cast<std::size_t>(lane)];
}

void PackedSim::force_lazy(int node) {
  const CompiledDesign::Node& nd = cd_->nodes[static_cast<std::size_t>(node)];
  const TapeRef& t = cd_->tapes[static_cast<std::size_t>(nd.tape)];
  for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    const TOp& o = cd_->ops[i];
    if (!reads_scalar(o)) continue;
    const std::int32_t m = cd_->node_of[static_cast<std::size_t>(o.a)];
    if (m >= 0 && cd_->node_lazy[static_cast<std::size_t>(m)]) force_lazy(m);
  }
  // Shadow write: masked store only, no events, no fanout (logical const).
  const std::uint64_t* r = run_tape(nd.tape);
  const std::uint64_t sm = cd_->sig_mask[static_cast<std::size_t>(nd.target)];
  std::uint64_t* v = val(nd.target);
  for (int l = 0; l < lanes_; ++l) v[l] = r[l] & sm;
}

// ---- Packed tape evaluation -------------------------------------------------

// Every op body is a lane loop over contiguous planes — one dispatch per op
// covers all lanes, and the loops autovectorize. Evaluation is pure, so
// computing lanes outside the running context's mask is harmless (their
// results are simply never consumed).
HLSW_PACK_SIMD
const std::uint64_t* PackedSim::run_tape(int tape) {
  const TapeRef& t = cd_->tapes[static_cast<std::size_t>(tape)];
  const TOp* op = cd_->ops.data() + t.begin;
  const int L = lanes_;
  int sp = 0;
  for (;; ++op) {
    switch (op->code) {
      case TOp::kConst: {
        std::uint64_t* d = at(sp++);
        for (int l = 0; l < L; ++l) d[l] = op->imm;
        break;
      }
      case TOp::kLoad: {
        const std::uint64_t* s = val(op->a);
        std::copy(s, s + L, at(sp++));
        break;
      }
      case TOp::kLoadSx: {
        const std::uint64_t* s = val(op->a);
        std::uint64_t* d = at(sp++);
        const std::uint64_t ext = ~umask(op->w);
        for (int l = 0; l < L; ++l) {
          std::uint64_t v = s[l];
          if ((v >> (op->w - 1)) & 1) v |= ext;
          d[l] = v & op->imm;
        }
        break;
      }
      case TOp::kLoadTr: {
        const std::uint64_t* s = val(op->a);
        std::uint64_t* d = at(sp++);
        for (int l = 0; l < L; ++l) d[l] = s[l] & op->imm;
        break;
      }
      case TOp::kLoadElem: {
        std::uint64_t* d = at(sp - 1);
        const auto& a = arr_[static_cast<std::size_t>(op->a)];
        const long long n =
            cd_->design->signals[static_cast<std::size_t>(op->a)].array_len;
        const std::uint64_t ext = op->w ? ~umask(op->w) : 0;
        for (int l = 0; l < L; ++l) {
          std::uint64_t u = d[l];
          if (op->w && ((u >> (op->w - 1)) & 1)) u |= ext;
          const long long idx = static_cast<long long>(u);
          d[l] = (idx >= 0 && idx < n)
                     ? a[static_cast<std::size_t>(idx) * L + l]
                     : 0;
        }
        break;
      }
      case TOp::kTrunc: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] &= op->imm;
        break;
      }
      case TOp::kSext: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t ext = ~umask(op->w);
        for (int l = 0; l < L; ++l) {
          std::uint64_t v = d[l];
          if ((v >> (op->w - 1)) & 1) v |= ext;
          d[l] = v & op->imm;
        }
        break;
      }
      case TOp::kToSigned: {
        std::uint64_t* d = at(sp - 1);
        if (op->w < 64) {
          const std::uint64_t ext = ~umask(op->w);
          for (int l = 0; l < L; ++l)
            if ((d[l] >> (op->w - 1)) & 1) d[l] |= ext;
        }
        break;
      }
      case TOp::kBitSel: {
        const std::uint64_t* ix = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) {
          const long long idx = static_cast<long long>(ix[l]);
          d[l] = (idx >= 0 && idx < op->w) ? (d[l] >> idx) & 1 : 0;
        }
        break;
      }
      case TOp::kRange: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (d[l] >> op->a) & op->imm;
        break;
      }
      case TOp::kNeg: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (0 - d[l]) & op->imm;
        break;
      }
      case TOp::kNot: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = ~d[l] & op->imm;
        break;
      }
      case TOp::kLNot: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] == 0;
        break;
      }
      case TOp::kNeZero:
      case TOp::kRedOr: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] != 0;
        break;
      }
      case TOp::kRedAnd: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] == op->imm;
        break;
      }
      case TOp::kRedNand: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] != op->imm;
        break;
      }
      case TOp::kRedNor: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] == 0;
        break;
      }
      case TOp::kRedXor: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l)
          d[l] = static_cast<std::uint64_t>(
              __builtin_parityll(static_cast<long long>(d[l])));
        break;
      }
      case TOp::kRedXnor: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l)
          d[l] = static_cast<std::uint64_t>(
              !__builtin_parityll(static_cast<long long>(d[l])));
        break;
      }
      case TOp::kAnd: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] &= b[l];
        break;
      }
      case TOp::kOr: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] |= b[l];
        break;
      }
      case TOp::kXor: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] ^= b[l];
        break;
      }
      case TOp::kXnorB: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = ~(d[l] ^ b[l]) & op->imm;
        break;
      }
      case TOp::kAdd: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (d[l] + b[l]) & op->imm;
        break;
      }
      case TOp::kSub: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (d[l] - b[l]) & op->imm;
        break;
      }
      case TOp::kMul: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (d[l] * b[l]) & op->imm;
        break;
      }
      case TOp::kDivU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = b[l] == 0 ? 0 : d[l] / b[l];
        break;
      }
      case TOp::kModU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = b[l] == 0 ? 0 : d[l] % b[l];
        break;
      }
      case TOp::kDivS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) {
          const long long sa = s64(d[l], op->w), sb = s64(b[l], op->w);
          std::uint64_t r;
          if (sb == 0) r = 0;
          else if (sb == -1) r = 0 - d[l];  // avoid INT64_MIN / -1
          else r = static_cast<std::uint64_t>(sa / sb);
          d[l] = r & op->imm;
        }
        break;
      }
      case TOp::kModS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) {
          const long long sa = s64(d[l], op->w), sb = s64(b[l], op->w);
          d[l] = (sb == 0 || sb == -1)
                     ? 0
                     : static_cast<std::uint64_t>(sa % sb) & op->imm;
        }
        break;
      }
      case TOp::kEq: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] == b[l];
        break;
      }
      case TOp::kNe: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] != b[l];
        break;
      }
      case TOp::kLtU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] < b[l];
        break;
      }
      case TOp::kLeU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] <= b[l];
        break;
      }
      case TOp::kGtU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] > b[l];
        break;
      }
      case TOp::kGeU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] >= b[l];
        break;
      }
      case TOp::kLtS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = s64(d[l], op->w) < s64(b[l], op->w);
        break;
      }
      case TOp::kLeS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l)
          d[l] = s64(d[l], op->w) <= s64(b[l], op->w);
        break;
      }
      case TOp::kGtS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = s64(d[l], op->w) > s64(b[l], op->w);
        break;
      }
      case TOp::kGeS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l)
          d[l] = s64(d[l], op->w) >= s64(b[l], op->w);
        break;
      }
      case TOp::kShl: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l)
          d[l] = b[l] >= 64 ? 0 : (d[l] << b[l]) & op->imm;
        break;
      }
      case TOp::kShrU: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = b[l] >= 64 ? 0 : d[l] >> b[l];
        break;
      }
      case TOp::kShrS: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) {
          const std::uint64_t sh = b[l];
          d[l] = static_cast<std::uint64_t>(s64(d[l], op->w) >>
                                            (sh > 63 ? 63 : sh)) &
                 op->imm;
        }
        break;
      }
      case TOp::kConcatAcc: {
        const std::uint64_t* b = at(--sp);
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] = (d[l] << op->w) | b[l];
        break;
      }
      case TOp::kRepl: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) {
          const std::uint64_t kv = d[l];
          std::uint64_t v = 0;
          for (std::int32_t i = 0; i < op->a; ++i) v = (v << op->w) | kv;
          d[l] = v;
        }
        break;
      }
      case TOp::kMux: {
        sp -= 2;
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* tv = at(sp);
        const std::uint64_t* ev = at(sp + 1);
        for (int l = 0; l < L; ++l) d[l] = d[l] != 0 ? tv[l] : ev[l];
        break;
      }
      case TOp::kTime: {
        std::uint64_t* d = at(sp++);
        for (int l = 0; l < L; ++l) d[l] = 0;
        break;
      }
      case TOp::kLoadElemSx: {
        std::uint64_t* d = at(sp - 1);
        const auto& a = arr_[static_cast<std::size_t>(op->a)];
        const long long n =
            cd_->design->signals[static_cast<std::size_t>(op->a)].array_len;
        const std::uint64_t ext = ~umask(op->w);
        for (int l = 0; l < L; ++l) {
          const long long idx = static_cast<long long>(d[l]);
          std::uint64_t v = (idx >= 0 && idx < n)
                                ? a[static_cast<std::size_t>(idx) * L + l]
                                : 0;
          if ((v >> (op->w - 1)) & 1) v |= ext;
          d[l] = v & op->imm;
        }
        break;
      }
      case TOp::kLoadElemTr: {
        std::uint64_t* d = at(sp - 1);
        const auto& a = arr_[static_cast<std::size_t>(op->a)];
        const long long n =
            cd_->design->signals[static_cast<std::size_t>(op->a)].array_len;
        const std::uint64_t ext = op->w ? ~umask(op->w) : 0;
        for (int l = 0; l < L; ++l) {
          std::uint64_t u = d[l];
          if (op->w && ((u >> (op->w - 1)) & 1)) u |= ext;
          const long long idx = static_cast<long long>(u);
          d[l] = ((idx >= 0 && idx < n)
                      ? a[static_cast<std::size_t>(idx) * L + l]
                      : 0) &
                 op->imm;
        }
        break;
      }
      case TOp::kAddC: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t c = static_cast<std::uint32_t>(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] + c) & op->imm;
        break;
      }
      case TOp::kSubC: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t c = static_cast<std::uint32_t>(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] - c) & op->imm;
        break;
      }
      case TOp::kMulC: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t c = static_cast<std::uint32_t>(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] * c) & op->imm;
        break;
      }
      case TOp::kOrC: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] |= op->imm;
        break;
      }
      case TOp::kXorC: {
        std::uint64_t* d = at(sp - 1);
        for (int l = 0; l < L; ++l) d[l] ^= op->imm;
        break;
      }
      case TOp::kShlC: {
        std::uint64_t* d = at(sp - 1);
        const std::uint32_t c = static_cast<std::uint32_t>(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] << c) & op->imm;
        break;
      }
      case TOp::kConcatC: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t c = static_cast<std::uint32_t>(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] << op->w) | c;
        break;
      }
      case TOp::kAddL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] + s[l]) & op->imm;
        break;
      }
      case TOp::kSubL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] - s[l]) & op->imm;
        break;
      }
      case TOp::kMulL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] * s[l]) & op->imm;
        break;
      }
      case TOp::kAndL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] &= s[l];
        break;
      }
      case TOp::kOrL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] |= s[l];
        break;
      }
      case TOp::kXorL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] ^= s[l];
        break;
      }
      case TOp::kConcatL: {
        std::uint64_t* d = at(sp - 1);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (d[l] << op->w) | s[l];
        break;
      }
      case TOp::kRangeL: {
        std::uint64_t* d = at(sp++);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (s[l] >> op->w) & op->imm;
        break;
      }
      case TOp::kLoadShlC: {
        std::uint64_t* d = at(sp++);
        const std::uint64_t* s = val(op->a);
        for (int l = 0; l < L; ++l) d[l] = (s[l] << op->w) & op->imm;
        break;
      }
      case TOp::kHalt:
        return at(sp - 1);
    }
  }
}

// ---- NBA arenas -------------------------------------------------------------

std::int64_t PackedSim::push_val_plane(const std::uint64_t* v,
                                       std::uint64_t pmask) {
  const std::int64_t ofs = static_cast<std::int64_t>(nba_vals_.size());
  for (int l = 0; l < lanes_; ++l) nba_vals_.push_back(v[l] & pmask);
  return ofs;
}

std::int64_t PackedSim::push_idx_plane(const std::uint64_t* v,
                                       std::uint64_t /*pmask*/) {
  const std::int64_t ofs = static_cast<std::int64_t>(nba_idx_.size());
  for (int l = 0; l < lanes_; ++l)
    nba_idx_.push_back(static_cast<long long>(v[l]));
  return ofs;
}

HLSW_PACK_SIMD
void PackedSim::commit_nba() {
  nba_scratch_.clear();
  nba_scratch_.swap(nba_);
  nba_vals_scratch_.clear();
  nba_vals_scratch_.swap(nba_vals_);
  nba_idx_scratch_.clear();
  nba_idx_scratch_.swap(nba_idx_);
  const Design& d = *cd_->design;
  for (const NbaEntry& e : nba_scratch_) {
    stats_.nba_commits += popcount(e.mask);
    const Signal& s = d.signals[static_cast<std::size_t>(e.sig)];
    const std::uint64_t* v = nba_vals_scratch_.data() + e.val_ofs;
    if (s.array_len > 0) {
      // Inlined set_elem_lane loop: same per-lane change detection and
      // silent out-of-range drop, but the array/mask lookups hoist and
      // fanout is marked once for the whole plane (marking is idempotent).
      const long long* ix = nba_idx_scratch_.data() + e.idx_ofs;
      const std::uint64_t sm = cd_->sig_mask[static_cast<std::size_t>(e.sig)];
      const long long n = s.array_len;
      auto& a = arr_[static_cast<std::size_t>(e.sig)];
      bool changed = false;
      for (int l = 0; l < lanes_; ++l) {
        if (!((e.mask >> l) & 1)) continue;
        const long long idx = ix[l];
        if (idx < 0 || idx >= n) continue;
        const std::uint64_t nv = v[l] & sm;
        std::uint64_t& slot = a[static_cast<std::size_t>(idx) * lanes_ +
                               static_cast<std::size_t>(l)];
        if (slot == nv) continue;
        slot = nv;
        ++stats_.events;
        changed = true;
      }
      if (changed) mark_fanout(e.sig);
    } else if (e.idx_ofs >= 0) {
      // Nonblocking bit write: per-lane RMW for in-range indices, silent
      // drop past the width, and a *negative* index degrades to a full
      // scalar write of the enqueued value — exactly the interpreter's
      // commit dispatch on NbaEntry::index.
      const long long* ix = nba_idx_scratch_.data() + e.idx_ofs;
      std::uint64_t* nv = scratch_.data() + lanes_;
      const std::uint64_t* cur = val(e.sig);
      std::uint64_t bit_mask = 0, neg_mask = 0;
      for (int l = 0; l < lanes_; ++l) {
        if (!((e.mask >> l) & 1)) continue;
        if (ix[l] < 0) {
          neg_mask |= 1ULL << l;
        } else if (ix[l] < s.width) {
          nv[l] = (cur[l] & ~(1ULL << ix[l])) | ((v[l] & 1ULL) << ix[l]);
          bit_mask |= 1ULL << l;
        }
      }
      if (neg_mask) set_masked(e.sig, v, neg_mask);
      if (bit_mask) set_masked(e.sig, nv, bit_mask);
    } else {
      set_masked(e.sig, v, e.mask);
    }
  }
}

// ---- Flush + scheduling -----------------------------------------------------

HLSW_PACK_SIMD
void PackedSim::flush_comb() {
  if (pending_ == 0) return;
  for (auto& q : level_q_) {
    if (q.empty()) continue;
    // Appends during this loop go to strictly higher levels, as in the
    // scalar engine.
    for (std::size_t i = 0; i < q.size(); ++i) {
      const std::int32_t n = q[i];
      node_pending_[static_cast<std::size_t>(n)] = 0;
      const CompiledDesign::Node& nd = cd_->nodes[static_cast<std::size_t>(n)];
      // All lanes re-evaluate when any lane's fanin changed; per-lane
      // change detection keeps the unchanged lanes event-silent.
      set_masked(nd.target, run_tape(nd.exec_tape), full_mask_);
    }
    pending_ -= static_cast<long long>(q.size());
    q.clear();
    if (pending_ == 0) break;
  }
}

HLSW_PACK_SIMD
void PackedSim::run_proc(int p, std::uint64_t mask) {
  running_proc_ = p;
  std::vector<Ctx> work;  // contexts split off by divergent branches
  auto& lane_reps = reps_[static_cast<std::size_t>(p)];
  int pc = cd_->procs[static_cast<std::size_t>(p)].entry;
  std::uint64_t m = mask;
  const std::uint64_t* r;
  for (;;) {
    const PInstr& in = cd_->prog[static_cast<std::size_t>(pc)];
    stats_.instrs += popcount(m);
    switch (in.code) {
      case PInstr::kAssign:
        set_masked(in.sig, run_tape(in.t0), m);
        ++pc;
        break;
      case PInstr::kAssignCopy:
        set_masked(in.sig, val(in.a), m);
        ++pc;
        break;
      case PInstr::kAssignConst:
        set_masked_const(in.sig, in.imm, m);
        ++pc;
        break;
      case PInstr::kAssignElem: {
        r = run_tape(in.t0);  // value first, then index (kernel order)
        std::uint64_t* v = scratch_.data() + lanes_;
        std::copy(r, r + lanes_, v);
        r = run_tape(in.t1);
        for (int l = 0; l < lanes_; ++l)
          if ((m >> l) & 1)
            set_elem_lane(in.sig, l, static_cast<long long>(r[l]), v[l]);
        ++pc;
        break;
      }
      case PInstr::kAssignBit: {
        r = run_tape(in.t0);
        std::uint64_t* v = scratch_.data() + lanes_;
        std::copy(r, r + lanes_, v);
        r = run_tape(in.t1);
        const int w =
            cd_->design->signals[static_cast<std::size_t>(in.sig)].width;
        const std::uint64_t* cur = val(in.sig);
        std::uint64_t valid = 0;
        for (int l = 0; l < lanes_; ++l) {
          if (!((m >> l) & 1)) continue;
          const long long idx = static_cast<long long>(r[l]);
          if (idx < 0 || idx >= w) continue;
          v[l] = (cur[l] & ~(1ULL << idx)) | ((v[l] & 1ULL) << idx);
          valid |= 1ULL << l;
        }
        set_masked(in.sig, v, valid);
        ++pc;
        break;
      }
      case PInstr::kNb:
        nba_.push_back(
            {in.sig, m,
             push_val_plane(run_tape(in.t0),
                            cd_->sig_mask[static_cast<std::size_t>(in.sig)]),
             -1});
        ++pc;
        break;
      case PInstr::kNbCopy:
        nba_.push_back(
            {in.sig, m,
             push_val_plane(val(in.a),
                            cd_->sig_mask[static_cast<std::size_t>(in.sig)]),
             -1});
        ++pc;
        break;
      case PInstr::kNbConst: {
        std::uint64_t* plane = scratch_.data();
        for (int l = 0; l < lanes_; ++l) plane[l] = in.imm;
        nba_.push_back({in.sig, m, push_val_plane(plane, ~0ULL), -1});
        ++pc;
        break;
      }
      case PInstr::kNbElem: {
        const std::int64_t vofs = push_val_plane(
            run_tape(in.t0),
            cd_->sig_mask[static_cast<std::size_t>(in.sig)]);
        nba_.push_back(
            {in.sig, m, vofs, push_idx_plane(run_tape(in.t1), ~0ULL)});
        ++pc;
        break;
      }
      case PInstr::kNbBit: {
        const std::int64_t vofs = push_val_plane(run_tape(in.t0), 1ULL);
        nba_.push_back(
            {in.sig, m, vofs, push_idx_plane(run_tape(in.t1), ~0ULL)});
        ++pc;
        break;
      }
      case PInstr::kJump:
        // Aggregate budget: per-lane instruction counts sum into instrs,
        // so the slot ceiling scales by the lane count.
        if (in.a <= pc &&
            stats_.instrs - slot_instr_base_ >
                cfg_.max_instrs_per_slot * static_cast<long long>(lanes_)) {
          running_proc_ = -1;
          fail_budget(p);
        }
        pc = in.a;
        break;
      case PInstr::kJumpIfFalse: {
        r = run_tape(in.t0);
        std::uint64_t taken = 0;
        for (int l = 0; l < lanes_; ++l)
          taken |= static_cast<std::uint64_t>(r[l] == 0) << l;
        taken &= m;
        if (taken == m) {
          pc = in.a;
        } else if (taken == 0) {
          ++pc;
        } else {
          ++divergence_splits_;
          work.push_back({in.a, taken});
          m &= ~taken;
          ++pc;
        }
        break;
      }
      case PInstr::kJumpIfFalseSig: {
        const std::uint64_t* s = val(in.sig);
        std::uint64_t taken = 0;
        for (int l = 0; l < lanes_; ++l)
          taken |= static_cast<std::uint64_t>(s[l] == 0) << l;
        taken &= m;
        if (taken == m) {
          pc = in.a;
        } else if (taken == 0) {
          ++pc;
        } else {
          ++divergence_splits_;
          work.push_back({in.a, taken});
          m &= ~taken;
          ++pc;
        }
        break;
      }
      case PInstr::kCaseJump: {
        const CompiledDesign::CaseTable& t =
            cd_->case_tables[static_cast<std::size_t>(in.a)];
        const std::uint64_t* s = val(in.sig);
        // Group lanes by dispatch target; sweep lanes usually stay in
        // lockstep (the FSM state is schedule-, not data-, dependent).
        struct Group {
          std::int32_t pc;
          std::uint64_t mask;
        };
        Group groups[kMaxLanes];
        int ng = 0;
        // Lockstep fast path: when every running lane holds the same
        // selector (the usual sweep case — the FSM state is schedule-, not
        // data-, dependent), one binary search dispatches them all.
        const int first = __builtin_ctzll(m);
        const std::uint64_t s0 = s[first];
        bool lockstep = true;
        for (int l = 0; l < lanes_; ++l)
          lockstep &= (s[l] == s0) | !((m >> l) & 1);
        if (lockstep) {
          const auto it = std::lower_bound(
              t.arms.begin(), t.arms.end(), s0,
              [](const std::pair<std::uint64_t, std::int32_t>& a,
                 std::uint64_t v) { return a.first < v; });
          pc = (it != t.arms.end() && it->first == s0) ? it->second
                                                       : t.def_pc;
          break;
        }
        for (int l = 0; l < lanes_; ++l) {
          if (!((m >> l) & 1)) continue;
          const auto it = std::lower_bound(
              t.arms.begin(), t.arms.end(), s[l],
              [](const std::pair<std::uint64_t, std::int32_t>& a,
                 std::uint64_t v) { return a.first < v; });
          const std::int32_t target =
              (it != t.arms.end() && it->first == s[l]) ? it->second
                                                        : t.def_pc;
          int g = 0;
          while (g < ng && groups[g].pc != target) ++g;
          if (g == ng) groups[ng++] = {target, 0};
          groups[g].mask |= 1ULL << l;
        }
        divergence_splits_ += ng - 1;
        for (int g = 1; g < ng; ++g)
          work.push_back({groups[g].pc, groups[g].mask});
        pc = groups[0].pc;
        m = groups[0].mask;
        break;
      }
      case PInstr::kRepeatInit: {
        r = run_tape(in.t0);
        const TapeRef& t = cd_->tapes[static_cast<std::size_t>(in.t0)];
        for (int l = 0; l < lanes_; ++l)
          if ((m >> l) & 1)
            lane_reps[static_cast<std::size_t>(l)].push_back(
                t.sgn ? s64(r[l], t.w) : static_cast<long long>(r[l]));
        ++pc;
        break;
      }
      case PInstr::kRepeatTest: {
        std::uint64_t cont = 0;
        for (int l = 0; l < lanes_; ++l) {
          if (!((m >> l) & 1)) continue;
          auto& st = lane_reps[static_cast<std::size_t>(l)];
          if (st.back() > 0) {
            --st.back();
            cont |= 1ULL << l;
          } else {
            st.pop_back();
          }
        }
        const std::uint64_t exit = m & ~cont;
        if (exit == m) {
          pc = in.a;
        } else if (exit == 0) {
          ++pc;
        } else {
          ++divergence_splits_;
          work.push_back({in.a, exit});
          m = cont;
          ++pc;
        }
        break;
      }
      case PInstr::kDisplay:
      case PInstr::kDumpFile:
      case PInstr::kDumpVars:
        running_proc_ = -1;
        fail("$display/$dump system tasks are not supported on the packed "
             "multi-lane backend");
      case PInstr::kHalt:
        if (work.empty()) {
          running_proc_ = -1;
          return;
        }
        pc = work.back().pc;
        m = work.back().mask;
        work.pop_back();
        break;
    }
  }
}

void PackedSim::settle() {
  slot_instr_base_ = stats_.instrs;
  for (;;) {
    flush_comb();
    int p = -1;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (ready_[i] != 0) {
        p = static_cast<int>(i);
        break;
      }
    }
    if (p >= 0) {
      const std::uint64_t m = ready_[static_cast<std::size_t>(p)];
      ready_[static_cast<std::size_t>(p)] = 0;
      run_proc(p, m);
      continue;
    }
    if (nba_.empty()) break;
    commit_nba();
    ++stats_.delta_cycles;
  }
}

// ---- PackedDutHarness -------------------------------------------------------

namespace {

int find_signal(const Design& d, const std::string& name) {
  const int h = d.find(name);
  if (h < 0)
    fail("packed harness: signal '" + name + "' not found in design '" +
         d.top + "'");
  return h;
}

// Engine selection for the packed tiers: kAuto and kPackedCodegen try the
// generated engine first; kEvent/kCompiled force the interpreted tier so
// the benchmarks can measure the interpreted baseline on demand.
std::unique_ptr<PackedEngine> make_packed_engine(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    const SimConfig& cfg, std::string* fallback_reason) {
  if (cfg.backend == Backend::kAuto ||
      cfg.backend == Backend::kPackedCodegen) {
    std::string why;
    if (auto mod = packed_codegen_plan(plan, lanes, &why))
      return std::make_unique<PackedCodegenSim>(std::move(mod), cfg);
    *fallback_reason = "packed-codegen: " + why;
  }
  return std::make_unique<PackedSim>(plan, lanes, cfg);
}

}  // namespace

PackedDutHarness::PackedDutHarness(const hls::Function& f,
                                   std::shared_ptr<const CompiledDesign> plan,
                                   int lanes, const SimConfig& cfg)
    : pins_(rtl::flatten_port_pins(f)) {
  // Built in the body (not the init list): the factory records the
  // degrade reason into fallback_reason_, declared after sim_
  sim_ = make_packed_engine(plan, lanes, cfg, &fallback_reason_);
  const Design& d = *plan->design;
  pin_handle_.reserve(pins_.size());
  for (const auto& p : pins_) pin_handle_.push_back(find_signal(d, p.name));
  h_clk_ = find_signal(d, "clk");
  h_rst_ = find_signal(d, "rst");
  h_start_ = find_signal(d, "start");
  h_done_ = find_signal(d, "done");
  reset();
}

void PackedDutHarness::tick(std::uint64_t mask) {
  sim_->poke(h_clk_, 1, mask);
  sim_->settle();
  sim_->poke(h_clk_, 0, mask);
  sim_->settle();
}

void PackedDutHarness::reset() {
  const std::uint64_t all = sim_->full_mask();
  sim_->poke(h_clk_, 0, all);
  sim_->poke(h_start_, 0, all);
  sim_->poke(h_rst_, 1, all);
  for (int i = 0; i < 3; ++i) tick(all);
  sim_->poke(h_rst_, 0, all);
  sim_->settle();
}

std::vector<std::vector<hls::PortIo>> PackedDutHarness::run_streams(
    const std::vector<std::vector<hls::PortIo>>& streams) {
  const int L = sim_->lanes();
  if (static_cast<int>(streams.size()) != L)
    fail("packed harness: " + std::to_string(streams.size()) +
         " streams for " + std::to_string(L) + " lanes");
  std::vector<std::vector<hls::PortIo>> outs(streams.size());
  std::size_t nvec = 0;
  for (const auto& s : streams) nvec = std::max(nvec, s.size());

  for (std::size_t v = 0; v < nvec; ++v) {
    std::uint64_t active = 0;
    for (int l = 0; l < L; ++l)
      if (v < streams[static_cast<std::size_t>(l)].size())
        active |= 1ULL << l;

    in_plane_.assign(static_cast<std::size_t>(L), 0);
    for (std::size_t i = 0; i < pins_.size(); ++i) {
      const auto& p = pins_[i];
      if (!p.is_input) continue;
      for (int l = 0; l < L; ++l)
        if ((active >> l) & 1)
          in_plane_[static_cast<std::size_t>(l)] =
              static_cast<std::uint64_t>(rtl::pin_value(
                  p, streams[static_cast<std::size_t>(l)][v]));
      sim_->poke_plane(pin_handle_[i], in_plane_.data(), active);
    }
    sim_->poke(h_start_, 1, active);
    tick(active);
    sim_->poke(h_start_, 0, active);
    std::uint64_t waiting = active & ~sim_->peek_nonzero_mask(h_done_);
    long long cycles = 1;
    // Lanes whose done arrived are clock-gated out of subsequent ticks, so
    // every lane sees exactly the edges its scalar replay would.
    while (waiting != 0) {
      if (++cycles > 1'000'000)
        throw std::runtime_error(
            "vsim harness: done never asserted — emitted FSM hung");
      tick(waiting);
      waiting &= ~sim_->peek_nonzero_mask(h_done_);
    }

    for (int l = 0; l < L; ++l) {
      if (!((active >> l) & 1)) continue;
      hls::PortIo out;
      for (std::size_t i = 0; i < pins_.size(); ++i) {
        const auto& p = pins_[i];
        if (p.is_input) continue;
        const long long raw =
            p.sgn ? sim_->peek_signed(pin_handle_[i], l)
                  : static_cast<long long>(sim_->peek(pin_handle_[i], l));
        hls::FxValue* slot;
        if (p.from_array) {
          auto& vec = out.arrays[p.port];
          if (vec.size() <= static_cast<std::size_t>(p.index))
            vec.resize(static_cast<std::size_t>(p.index) + 1);
          slot = &vec[static_cast<std::size_t>(p.index)];
        } else {
          slot = &out.vars[p.port];
        }
        slot->fw = p.fw;
        slot->cplx = p.cplx;
        (p.re ? slot->re : slot->im) = raw;
      }
      outs[static_cast<std::size_t>(l)].push_back(std::move(out));
    }
  }
  return outs;
}

hls::CounterValues PackedDutHarness::read_counters(
    const std::vector<hls::PerfCounter>& map) const {
  hls::CounterValues out;
  out.source = "vsim_packed";
  const Design& d = *sim_->compiled().design;
  for (const hls::PerfCounter& c : map) {
    const int h = find_signal(d, c.name);
    long long total = 0;
    for (int l = 0; l < sim_->lanes(); ++l)
      total += static_cast<long long>(sim_->peek(h, l));
    out.values[c.name] = total;
  }
  return out;
}

}  // namespace hlsw::vsim
