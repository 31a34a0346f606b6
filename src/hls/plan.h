// Compiled execution plan: the one engine behind both IR executors.
//
// hls::Interpreter (the untimed C model) and rtl::Simulator (the scheduled
// hardware) run the same compiled program. ExecPlan walks every region,
// every iteration k and every scheduled cycle c of a Schedule and emits a
// flat table of compact PlanOp records grouped into spans,
// spans[k*depth + c], so execution touches exactly the ops of each
// (iteration, cycle) pair and nothing else.
//
// The plan is specialized PER ITERATION: because every operand's
// fractional width is statically derivable (state reads carry their
// port/static type, converted results carry their op's result type, and
// guard-skipped producers deterministically yield a fresh zero with
// fw = 0), the alignment shifts, conversion shift/rounding/saturation
// constants and affine array indices of each (iteration, cycle) pair are
// baked at construction. The runtime loop therefore performs no guard
// checks, no type derivation and no index evaluation — it only moves
// values and applies pre-parameterized arithmetic.
//
// There is one executor, a template over the component type of a region's
// value slots and over a lane count L. Where static interval propagation
// proves every value of a region fits in int64 ("narrow"), the region runs
// on long long components; elsewhere on __int128. Slot i's re lanes are the
// row vals[2i*L, 2i*L + L), its im lanes the next row, so every op is
// decoded once and applied to L lanes, its conversion mode switched
// outside the lane loop. The plan has no data-dependent control flow
// (guards, indices and conversion modes are baked per iteration), so L
// independent invocations walk the same op stream in lockstep: the SPMD
// case. Values reach or leave the state only at the var/array boundary,
// where fw and cplx are baked constants of the conversion.
//
// The two IR executors differ only in the schedule they compile and in
// the sink they run with, never in the compiler:
//  * untimed — untimed_schedule(f) places every op of a block in one
//    cycle with loops unpipelined, and hls::Interpreter's sink lands array
//    writes at once, in program order: exactly the sequential C semantics.
//    Its state is lane-major planes of raw components, at one lane for
//    run() and at Interpreter::kLaneWidth lanes for run_streams();
//  * timed — the synthesized schedule, whose cycle buckets and pipelined
//    iteration overlap the plan preserves, at one lane, with a sink that
//    keeps FxValue state and defers array writes to the end of each cycle
//    (rtl::Simulator commits them at the clock edge, so reads observe
//    start-of-cycle state).
//
// A sink is the executor's view of the machine: the state it reads and
// where its writes go, one row of L lanes at a time. Any type with these
// members (all inlined into the executor) will do; T is the region's
// component type, `d`/`s` a slot's rows (re lanes, then im lanes):
//   void load_var(int var, T* d);                         // var read
//   void store_var(int var, const ConvSpec& cs, const T* s);  // var write
//   void load_elem(int array, int idx, T* d);     // one array element read
//   void store_elem(int array, int idx, const ConvSpec& cs, const T* s);
//   void ops(std::size_t region, long long n);  // one span's op count
//   void enter(std::size_t region, const RegionPlan& rp);  // once per run
//   void end_cycle();                           // after every cycle
// Stores convert with plan_detail::store_rows, as the executor's own
// results do.
//
// The interpretive reference both executors are pinned against is exec_op
// + fx_convert (hls/interp.h), run op by op by rtl::Simulator under
// SimOptions::compiled = false.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "hls/ir.h"

namespace hlsw::hls {

struct Schedule;

// Pre-baked fixed-point conversion: everything fx_convert() derives from
// the destination FxType and the source width, resolved once — plus a mode
// classifying how much of the general algorithm this particular conversion
// can actually need. The mode is proved by static interval propagation
// over the plan (every slot's raw-value range is known at compile time),
// which demotes most conversions to a bare shift.
struct ConvSpec {
  enum class Mode : unsigned char {
    kShiftUp,    // shift >= 0, overflow impossible: raw << shift
    kShiftDown,  // shift < 0, truncating, overflow impossible: raw >> -shift
    kRound,      // shift < 0, rounding, overflow impossible
    kFull,       // general path (rounding + saturation/wrap)
  };
  int shift = 0;   // dst.fw() - src_fw
  int out_fw = 0;  // dst.fw()
  int w = 0;       // dst width (saturation/wrap bounds, derived on demand)
  Mode mode = Mode::kFull;
  fixpt::Quant q = fixpt::Quant::kTrn;
  fixpt::Ovf o = fixpt::Ovf::kWrap;
  bool sgn = true;
  bool out_cplx = false;
};

// Compact op record with pre-resolved operand slots and pre-decoded
// targets; ordered by (iteration, cycle, program index) in its region
// table. Skipped (guarded-out) ops are not emitted at all.
struct PlanOp {
  OpKind kind = OpKind::kConst;
  int dst = 0;             // value slot (== op index in the block)
  int a0 = -1, a1 = -1;    // operand slots, -1 = absent
  int target = -1;         // var or array state index
  int idx = -1;            // baked affine index (memory ops; -1 = OOB);
                           // for kConst: index into the constant pool
  int sa = 0, sb = 0;      // pre-add alignment shifts (add/sub/mk_cplx)
  ConvSpec conv;           // conversion into the result/storage type
};

struct PlanSpan {
  int begin = 0, end = 0;  // [begin, end) into RegionPlan::ops
};

struct RegionPlan {
  bool pipelined = false;
  // Interval analysis proved every slot value, aligned operand and
  // pre-conversion intermediate of this region fits in int64: its value
  // slots are long long pairs instead of __int128 pairs.
  bool narrow = false;
  int trip = 1;
  int ii = 0;        // > 0: pipelined
  int depth = 0;     // body cycles
  int nops = 0;      // block op count (value-slot count)
  int ctx_base = 0;  // first value buffer in the plan's narrow or wide
                     // pool (pipelined: trip buffers, one per in-flight
                     // iteration; else one)
  std::vector<PlanOp> ops;      // per-(iteration, cycle) specialized records
  std::vector<PlanSpan> spans;  // trip * depth entries: spans[k*depth + c]
  // Sequential loops reuse one value buffer across iterations, so the slot
  // of an op that becomes guard-skipped at iteration k (== its guard_trip)
  // is zeroed there — consumers must observe the fresh-zero value the
  // interpretive path's per-iteration vectors provide. Pipelined loops
  // have a dedicated buffer per iteration whose skipped slots are simply
  // never written after their zero initialization.
  std::vector<int> zero_slots;
  std::vector<PlanSpan> zero_spans;  // trip entries into zero_slots
};

// The one-cycle, unpipelined schedule of `f`: every op of every block in
// cycle 0, loops sequential. A plan compiled from it and run with a sink
// that writes arrays immediately executes regions in order, ops in
// program order and loops iteration by iteration — the untimed C
// semantics.
Schedule untimed_schedule(const Function& f);

// Installs the initial architectural state of `f`: vars at their init
// values, arrays zeroed, each carrying its declared fw and complex flag.
void initial_state(const Function& f, std::vector<FxValue>* vars,
                   std::vector<std::vector<FxValue>>* arrays);

class ExecPlan {
 public:
  // Compiles `f` under schedule `s` (one RegionSchedule per region). The
  // plan keeps no reference to either: it is self-contained and copyable.
  ExecPlan(const Function& f, const Schedule& s);

  const std::vector<RegionPlan>& regions() const { return regions_; }
  // Peak array writes any single cycle can issue (pipelined overlap
  // included): the capacity a deferring sink needs to never reallocate.
  std::size_t max_writes_per_cycle() const { return max_writes_per_cycle_; }

  // Executes every region once, on L lanes in lockstep, against the
  // sink's state, indexed like the compiled Function's vars/arrays.
  template <int L, class Sink>
  void run(Sink& sink);

 private:
  // One lane width's value buffers, allocated on the first run at that
  // width and reused by every later one (no per-iteration allocation or
  // zero-fill): per region, one buffer per in-flight iteration
  // (pipelined) or one (straight/sequential), each 2 * nops rows of
  // `lanes` components, zeroed at allocation. Narrow regions take theirs
  // from the int64 pool, the rest from the int128 one.
  struct Pools {
    int lanes = 0;
    std::vector<std::vector<long long>> narrow;
    std::vector<std::vector<__int128>> wide;
  };
  Pools& pools(int lanes);

  // T is the slot component type (long long or __int128); `bufs` are the
  // region's value buffers.
  template <class T, int L, class Sink>
  void run_region(const RegionPlan& rp, std::size_t region,
                  std::vector<T>* bufs, Sink& sink);
  template <class T, int L, class Sink>
  void exec_span(const RegionPlan& rp, std::size_t region, int span_index,
                 T* vals, Sink& sink);
  [[noreturn]] void out_of_bounds(const char* what, int array) const;

  std::vector<RegionPlan> regions_;
  std::vector<FxValue> const_pool_;  // kConst payloads (PlanOp::idx)
  std::vector<std::string> array_names_;  // out-of-bounds diagnostics
  std::size_t max_writes_per_cycle_ = 0;
  std::vector<Pools> pools_;  // one per lane width run so far
};

// ---- Executor ----------------------------------------------------------------

namespace plan_detail {

// T's unsigned twin, named explicitly: std::make_unsigned does not accept
// __int128 under strict ISO C++.
template <class T>
struct unsigned_twin;
template <>
struct unsigned_twin<long long> {
  using type = unsigned long long;
};
template <>
struct unsigned_twin<__int128> {
  using type = unsigned __int128;
};

// Saturation bounds of a (w, sgn) format; mirror the definitions in
// hls/ir.cpp (the conversion constants baked here must be bit-identical to
// what fx_convert derives per call).
template <class T>
inline T max_raw(int w, bool sgn) {
  return (static_cast<T>(1) << (sgn ? w - 1 : w)) - 1;
}
template <class T>
inline T min_raw(int w, bool sgn) {
  return sgn ? -(static_cast<T>(1) << (w - 1)) : 0;
}

// The conversion helpers below are forced inline: GCC otherwise leaves
// them out of line once the executor template grows, and a call per lane
// component cost the one-lane golden about 12% and cut the 32-lane gain
// on merge from about 2.6x to 2.1x.

// Rounded floor-shift shared by the kRound and kFull paths — bit-identical
// to the shift-negative branch of hls::fx_convert_component. In a narrow
// region T = long long: the plan proved every value and constant fits, so
// the result equals the 128-bit one.
template <class T>
[[gnu::always_inline]] inline T conv_round(T raw, const ConvSpec& cs) {
  const int d = -cs.shift;
  const T base = raw >> d;  // arithmetic shift: floor
  const bool msb = ((raw >> (d - 1)) & 1) != 0;
  const bool rest =
      d >= 2 && (raw & ((static_cast<T>(1) << (d - 1)) - 1)) != 0;
  const bool neg = raw < 0;
  const bool lsb_kept = (base & 1) != 0;
  return base +
         (fixpt::round_increment(cs.q, msb, rest, neg, lsb_kept) ? 1 : 0);
}

// The general conversion (kFull): shift or round, then saturate or wrap —
// bit-identical to hls::fx_convert_component with shift and rounding mode
// resolved at plan compile time.
template <class T>
[[gnu::always_inline]] inline T conv_full(T raw, const ConvSpec& cs) {
  using U = typename unsigned_twin<T>::type;
  const T v = cs.shift >= 0 ? raw << cs.shift : conv_round(raw, cs);
  const T hi = max_raw<T>(cs.w, cs.sgn);
  const T lo = (cs.o == fixpt::Ovf::kSatSym && cs.sgn)
                   ? -hi
                   : min_raw<T>(cs.w, cs.sgn);
  if (v > hi || v < lo) {
    switch (cs.o) {
      case fixpt::Ovf::kSat:
      case fixpt::Ovf::kSatSym:
        return v > hi ? hi : lo;
      case fixpt::Ovf::kSatZero:
        return 0;
      case fixpt::Ovf::kWrap: {
        const U mask = (static_cast<U>(1) << cs.w) - 1;
        U u = static_cast<U>(v) & mask;
        if (cs.sgn && (u >> (cs.w - 1)) & 1) u |= ~mask;  // sign extend
        return static_cast<T>(u);
      }
    }
  }
  return v;
}

// Applies a pre-baked conversion to L lanes: d[l] = convert(f(l)), where
// f(l) is lane l's pre-conversion value. The mode is switched once,
// outside the lane loop; the saturate/wrap stage runs only in kFull,
// which the plan's interval analysis leaves only where overflow is
// possible (the common case drops it). D, the destination's component
// type, may be wider than T at the state boundary.
template <class T, int L, class D, class F>
[[gnu::always_inline]] inline void conv_lanes(D* __restrict d,
                                              const ConvSpec& cs, F f) {
  using Mode = ConvSpec::Mode;
  switch (cs.mode) {
    case Mode::kShiftUp: {
      const int s = cs.shift;
#pragma GCC ivdep
      for (int l = 0; l < L; ++l) d[l] = static_cast<D>(f(l) << s);
      return;
    }
    case Mode::kShiftDown: {
      const int s = -cs.shift;
#pragma GCC ivdep
      for (int l = 0; l < L; ++l) d[l] = static_cast<D>(f(l) >> s);
      return;
    }
    case Mode::kRound:
#pragma GCC ivdep
      for (int l = 0; l < L; ++l)
        d[l] = static_cast<D>(conv_round<T>(f(l), cs));
      return;
    case Mode::kFull:
#pragma GCC ivdep
      for (int l = 0; l < L; ++l)
        d[l] = static_cast<D>(conv_full<T>(f(l), cs));
      return;
  }
}

// Converts a slot's rows `s` (re lanes, then im lanes) into the baked
// destination format at the var/array state boundary: re lanes into `re`,
// im lanes into `im` (zeros when the destination is not complex).
template <class T, int L, class D>
[[gnu::always_inline]] inline void store_rows(D* re, D* im, const T* s,
                                              const ConvSpec& cs) {
  conv_lanes<T, L>(re, cs, [s](int l) { return s[l]; });
  if (cs.out_cplx)
    conv_lanes<T, L>(im, cs, [s](int l) { return s[L + l]; });
  else
    for (int l = 0; l < L; ++l) im[l] = 0;
}

}  // namespace plan_detail

template <int L, class Sink>
void ExecPlan::run(Sink& sink) {
  Pools& p = pools(L);
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RegionPlan& rp = regions_[r];
    sink.enter(r, rp);
    const std::size_t base = static_cast<std::size_t>(rp.ctx_base);
    if (rp.narrow)
      run_region<long long, L>(rp, r, &p.narrow[base], sink);
    else
      run_region<__int128, L>(rp, r, &p.wide[base], sink);
  }
}

template <class T, int L, class Sink>
void ExecPlan::run_region(const RegionPlan& rp, std::size_t region,
                          std::vector<T>* bufs, Sink& sink) {
  if (!rp.pipelined) {
    // Straight block (trip 1) or sequential loop: one value buffer reused
    // across iterations and runs. Every executed op rewrites its slot each
    // iteration, so the only refresh needed is the zero-list: slots whose
    // producer becomes guard-skipped at this iteration.
    T* vals = bufs->data();
    for (int k = 0; k < rp.trip; ++k) {
      const PlanSpan zs = rp.zero_spans[static_cast<std::size_t>(k)];
      for (int z = zs.begin; z < zs.end; ++z) {
        T* row = vals + 2 * rp.zero_slots[static_cast<std::size_t>(z)] * L;
        std::fill(row, row + 2 * L, T{0});
      }
      for (int c = 0; c < rp.depth; ++c) {
        exec_span<T, L>(rp, region, k * rp.depth + c, vals, sink);
        sink.end_cycle();
      }
    }
    return;
  }

  // Pipelined loop: iteration k occupies global cycles
  // [k*ii, k*ii + depth); earlier iterations execute first in a cycle.
  // Only the active iteration window [k_lo, k_hi] is visited per cycle.
  // Each iteration has its own value buffer; guard-skipped slots were
  // zeroed at allocation and are never written, so no per-run refresh.
  const int total = rp.depth + (rp.trip - 1) * rp.ii;
  for (int t = 0; t < total; ++t) {
    const int k_hi = std::min(rp.trip - 1, t / rp.ii);
    const int k_lo = t < rp.depth ? 0 : (t - rp.depth) / rp.ii + 1;
    for (int k = k_lo; k <= k_hi; ++k)
      exec_span<T, L>(rp, region, k * rp.depth + (t - k * rp.ii),
                      bufs[k].data(), sink);
    sink.end_cycle();
  }
}

template <class T, int L, class Sink>
void ExecPlan::exec_span(const RegionPlan& rp, std::size_t region,
                         int span_index, T* vals, Sink& sink) {
  using plan_detail::conv_lanes;
  const PlanSpan sp = rp.spans[static_cast<std::size_t>(span_index)];
  // Spans contain exactly the ops the interpretive path would execute for
  // this (iteration, cycle), so one bulk count keeps op totals identical.
  sink.ops(region, sp.end - sp.begin);
  // Slot s's rows: re lanes at row(s)[0, L), im lanes at row(s)[L, 2L).
  const auto row = [vals](int s) { return vals + 2 * s * L; };
  const PlanOp* const end = rp.ops.data() + sp.end;
  for (const PlanOp* it = rp.ops.data() + sp.begin; it != end; ++it) {
    const PlanOp& p = *it;
    T* const d = row(p.dst);
    T* const di = d + L;
    const auto zero_im = [di] {
      for (int l = 0; l < L; ++l) di[l] = 0;
    };
    switch (p.kind) {
      case OpKind::kConst: {
        const FxValue& c = const_pool_[static_cast<std::size_t>(p.idx)];
        const T re = static_cast<T>(c.re), im = static_cast<T>(c.im);
        for (int l = 0; l < L; ++l) {
          d[l] = re;
          di[l] = im;
        }
        break;
      }
      case OpKind::kVarRead:
        // Scalar registers forward: reads observe the latest write.
        sink.load_var(p.target, d);
        break;
      case OpKind::kVarWrite:
        sink.store_var(p.target, p.conv, row(p.a0));
        break;
      case OpKind::kArrayRead:
        if (p.idx < 0) out_of_bounds("read", p.target);
        sink.load_elem(p.target, p.idx, d);
        break;
      case OpKind::kArrayWrite:
        if (p.idx < 0) out_of_bounds("write", p.target);
        sink.store_elem(p.target, p.idx, p.conv, row(p.a0));
        break;
      case OpKind::kAdd: {
        const T* a = row(p.a0);
        const T* b = row(p.a1);
        const int sa = p.sa, sb = p.sb;
        conv_lanes<T, L>(d, p.conv, [=](int l) {
          return (a[l] << sa) + (b[l] << sb);
        });
        if (p.conv.out_cplx)
          conv_lanes<T, L>(di, p.conv, [=](int l) {
            return (a[L + l] << sa) + (b[L + l] << sb);
          });
        else
          zero_im();
        break;
      }
      case OpKind::kSub: {
        const T* a = row(p.a0);
        const T* b = row(p.a1);
        const int sa = p.sa, sb = p.sb;
        conv_lanes<T, L>(d, p.conv, [=](int l) {
          return (a[l] << sa) - (b[l] << sb);
        });
        if (p.conv.out_cplx)
          conv_lanes<T, L>(di, p.conv, [=](int l) {
            return (a[L + l] << sa) - (b[L + l] << sb);
          });
        else
          zero_im();
        break;
      }
      case OpKind::kMul: {
        const T* a = row(p.a0);
        const T* b = row(p.a1);
        conv_lanes<T, L>(d, p.conv, [=](int l) {
          return a[l] * b[l] - a[L + l] * b[L + l];
        });
        if (p.conv.out_cplx)
          conv_lanes<T, L>(di, p.conv, [=](int l) {
            return a[l] * b[L + l] + a[L + l] * b[l];
          });
        else
          zero_im();
        break;
      }
      case OpKind::kNeg: {
        const T* a = row(p.a0);
        conv_lanes<T, L>(d, p.conv, [=](int l) { return -a[l]; });
        if (p.conv.out_cplx)
          conv_lanes<T, L>(di, p.conv, [=](int l) { return -a[L + l]; });
        else
          zero_im();
        break;
      }
      case OpKind::kCast:
        plan_detail::store_rows<T, L>(d, di, row(p.a0), p.conv);
        break;
      case OpKind::kSignConj: {
        const T* a = row(p.a0);
        for (int l = 0; l < L; ++l) {
          d[l] = a[l] >= 0 ? 1 : -1;
          di[l] = a[L + l] >= 0 ? -1 : 1;
        }
        break;
      }
      case OpKind::kReal: {
        const T* a = row(p.a0);
        for (int l = 0; l < L; ++l) d[l] = a[l];
        zero_im();
        break;
      }
      case OpKind::kImag: {
        const T* a = row(p.a0) + L;
        for (int l = 0; l < L; ++l) d[l] = a[l];
        zero_im();
        break;
      }
      case OpKind::kMakeComplex: {
        // Second operand's REAL part becomes the imaginary component,
        // aligned like fx_add (see exec_op in hls/interp.cpp).
        const T* a = row(p.a0);
        const T* b = row(p.a1);
        const int sa = p.sa, sb = p.sb;
        conv_lanes<T, L>(d, p.conv, [=](int l) { return a[l] << sa; });
        if (p.conv.out_cplx)
          conv_lanes<T, L>(di, p.conv, [=](int l) { return b[l] << sb; });
        else
          zero_im();
        break;
      }
    }
  }
}

}  // namespace hlsw::hls
