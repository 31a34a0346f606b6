#include "hls/plan.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "hls/schedule.h"

namespace hlsw::hls {

using plan_detail::max_raw;
using plan_detail::min_raw;

Schedule untimed_schedule(const Function& f) {
  Schedule s;
  s.regions.resize(f.regions.size());
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    RegionSchedule& rs = s.regions[r];
    rs.is_loop = region.is_loop;
    rs.trip = region.is_loop ? region.loop.trip : 1;
    rs.body.place.assign(b.ops.size(), OpPlacement{});
    rs.body.cycles = 1;
  }
  return s;
}

void initial_state(const Function& f, std::vector<FxValue>* vars,
                   std::vector<std::vector<FxValue>>* arrays) {
  vars->clear();
  arrays->clear();
  for (const auto& v : f.vars) {
    FxValue init = v.init;
    init.fw = v.type.fw();
    init.cplx = v.type.cplx;
    vars->push_back(init);
  }
  for (const auto& a : f.arrays) {
    FxValue zero;
    zero.fw = a.elem.fw();
    zero.cplx = a.elem.cplx;
    arrays->emplace_back(static_cast<std::size_t>(a.length), zero);
  }
}

namespace {

// Bakes a conversion given the statically known raw-value interval
// [lo, hi] of the source (covering both components; always contains 0).
// If the post-shift value provably fits the destination's overflow bounds,
// the runtime saturation/wrap checks are dropped; a truncating down-shift
// further degenerates to a bare arithmetic shift.
ConvSpec conv_spec(const FxType& dst, int src_fw, __int128 lo, __int128 hi) {
  ConvSpec cs;
  cs.shift = dst.fw() - src_fw;
  cs.out_fw = dst.fw();
  cs.out_cplx = dst.cplx;
  cs.w = dst.w;
  cs.sgn = dst.sgn;
  cs.q = dst.q;
  cs.o = dst.o;
  const __int128 bhi = max_raw<__int128>(dst.w, dst.sgn);
  const __int128 blo = (dst.o == fixpt::Ovf::kSatSym && dst.sgn)
                           ? -bhi
                           : min_raw<__int128>(dst.w, dst.sgn);
  bool no_ovf;
  if (cs.shift >= 0) {
    no_ovf = (lo << cs.shift) >= blo && (hi << cs.shift) <= bhi;
    cs.mode = no_ovf ? ConvSpec::Mode::kShiftUp : ConvSpec::Mode::kFull;
  } else {
    // Rounding adds at most one ulp to the floor-shifted value.
    const int d = -cs.shift;
    no_ovf = (lo >> d) >= blo && ((hi >> d) + 1) <= bhi;
    cs.mode = !no_ovf ? ConvSpec::Mode::kFull
              : dst.q == fixpt::Quant::kTrn ? ConvSpec::Mode::kShiftDown
                                            : ConvSpec::Mode::kRound;
  }
  return cs;
}

// Raw-value interval of everything a (w, sgn) storage type can hold.
void type_bounds(const FxType& t, __int128* lo, __int128* hi) {
  *lo = min_raw<__int128>(t.w, t.sgn);
  *hi = max_raw<__int128>(t.w, t.sgn);
}

}  // namespace

ExecPlan::ExecPlan(const Function& f, const Schedule& s) {
  assert(f.regions.size() == s.regions.size());
  for (const auto& a : f.arrays) array_names_.push_back(a.name);
  regions_.resize(f.regions.size());
  int narrow_bufs = 0, wide_bufs = 0;
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const RegionSchedule& rs = s.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    RegionPlan& rp = regions_[r];
    rp.trip = region.is_loop ? region.loop.trip : 1;
    rp.ii = region.is_loop ? rs.ii : 0;
    rp.pipelined = rp.ii > 0;
    rp.depth = rs.body.cycles;
    rp.nops = static_cast<int>(b.ops.size());

    // Narrow candidacy: proved below op by op — every slot value, aligned
    // operand, product and pre-conversion intermediate must fit int64
    // (with margin), and conversion shift/width constants must be small
    // enough for 64-bit masks.
    bool narrow = true;
    constexpr __int128 kNarrowMax = static_cast<__int128>(1) << 62;
    const auto chk = [&](__int128 v) {
      if (v > kNarrowMax || v < -kNarrowMax) narrow = false;
    };

    // Specialize every (iteration, cycle) pair. Operand fractional widths
    // are propagated statically in program order: state reads carry their
    // declared type, converted results carry their op's result type, and
    // guard-skipped producers contribute a fresh zero with fw = 0 —
    // exactly the values the interpretive path materializes at runtime.
    const int trip = rp.trip;
    const int depth = rp.depth;
    rp.spans.assign(static_cast<std::size_t>(trip) *
                        static_cast<std::size_t>(depth),
                    PlanSpan{});
    rp.zero_spans.resize(static_cast<std::size_t>(trip));
    // Bucket ops as (k, cycle) in program order, then flatten.
    std::vector<std::vector<PlanOp>> buckets(rp.spans.size());
    std::vector<std::size_t> bucket_writes(rp.spans.size(), 0);
    std::vector<int> slot_fw(static_cast<std::size_t>(rp.nops), 0);
    // Static raw-value interval of each slot (covers re and im, contains
    // 0) — the evidence behind ConvSpec mode demotion.
    std::vector<__int128> slot_lo(static_cast<std::size_t>(rp.nops), 0);
    std::vector<__int128> slot_hi(static_cast<std::size_t>(rp.nops), 0);
    // conv_spec plus the narrow-fitness bookkeeping for this conversion.
    const auto bake_conv = [&](const FxType& dst, int src_fw, __int128 lo,
                               __int128 hi) {
      const ConvSpec cs = conv_spec(dst, src_fw, lo, hi);
      if (cs.shift > 62 || cs.shift < -62 || cs.w > 62) narrow = false;
      if (cs.shift >= 0) {
        chk(lo << cs.shift);
        chk(hi << cs.shift);
      } else {
        chk(lo);
        chk(hi);
      }
      return cs;
    };
    for (int k = 0; k < trip; ++k) {
      rp.zero_spans[static_cast<std::size_t>(k)].begin =
          static_cast<int>(rp.zero_slots.size());
      for (std::size_t i = 0; i < b.ops.size(); ++i) {
        const Op& op = b.ops[i];
        if (op.guard_trip >= 0 && k >= op.guard_trip) {
          // Skipped: the slot reads as a fresh zero. Sequential loops
          // re-zero it at the first skipped iteration (the buffer is
          // shared across iterations and runs); pipelined buffers are
          // per-iteration, so the slot is never written and the
          // allocation-time zero persists.
          slot_fw[i] = 0;
          slot_lo[i] = 0;
          slot_hi[i] = 0;
          if (!rp.pipelined && k == op.guard_trip)
            rp.zero_slots.push_back(static_cast<int>(i));
          continue;
        }
        PlanOp p;
        p.kind = op.kind;
        p.dst = static_cast<int>(i);
        p.a0 = op.args.size() > 0 ? op.args[0] : -1;
        p.a1 = op.args.size() > 1 ? op.args[1] : -1;
        const int fa = p.a0 >= 0 ? slot_fw[static_cast<size_t>(p.a0)] : 0;
        const int fb = p.a1 >= 0 ? slot_fw[static_cast<size_t>(p.a1)] : 0;
        const __int128 alo = p.a0 >= 0 ? slot_lo[static_cast<size_t>(p.a0)] : 0;
        const __int128 ahi = p.a0 >= 0 ? slot_hi[static_cast<size_t>(p.a0)] : 0;
        const __int128 blo = p.a1 >= 0 ? slot_lo[static_cast<size_t>(p.a1)] : 0;
        const __int128 bhi = p.a1 >= 0 ? slot_hi[static_cast<size_t>(p.a1)] : 0;
        switch (op.kind) {
          case OpKind::kConst:
            p.idx = static_cast<int>(const_pool_.size());
            const_pool_.push_back(op.cval);
            slot_fw[i] = op.cval.fw;
            slot_lo[i] = std::min<__int128>(0, std::min(op.cval.re, op.cval.im));
            slot_hi[i] = std::max<__int128>(0, std::max(op.cval.re, op.cval.im));
            break;
          case OpKind::kVarRead: {
            p.target = op.var;
            const auto& v = f.vars[static_cast<std::size_t>(op.var)];
            slot_fw[i] = v.type.fw();
            type_bounds(v.type, &slot_lo[i], &slot_hi[i]);
            // initial_state() installs v.init raw components unconverted,
            // so the first read of a run may see values outside the type
            // bounds.
            slot_lo[i] = std::min(slot_lo[i], std::min(v.init.re, v.init.im));
            slot_hi[i] = std::max(slot_hi[i], std::max(v.init.re, v.init.im));
            break;
          }
          case OpKind::kVarWrite:
            p.target = op.var;
            p.conv = bake_conv(f.vars[static_cast<std::size_t>(op.var)].type,
                               fa, alo, ahi);
            break;
          case OpKind::kArrayRead:
          case OpKind::kArrayWrite: {
            p.target = op.array;
            const Array& a = f.arrays[static_cast<std::size_t>(op.array)];
            // Affine index baked per iteration; -1 marks out-of-bounds so
            // execution still throws at the same point the interpretive
            // path would.
            const int idx = op.idx.eval(k);
            p.idx = idx >= 0 && idx < a.length ? idx : -1;
            if (op.kind == OpKind::kArrayRead) {
              slot_fw[i] = a.elem.fw();
              type_bounds(a.elem, &slot_lo[i], &slot_hi[i]);
            } else {
              p.conv = bake_conv(a.elem, fa, alo, ahi);
            }
            break;
          }
          case OpKind::kAdd:
          case OpKind::kSub:
            // fx_add/fx_sub align both operands to max(fa, fb).
            p.sa = fa >= fb ? 0 : fb - fa;
            p.sb = fa >= fb ? fa - fb : 0;
            // Sum bounds don't bound the aligned terms, so check those too.
            chk(alo << p.sa);
            chk(ahi << p.sa);
            chk(blo << p.sb);
            chk(bhi << p.sb);
            slot_lo[i] = op.kind == OpKind::kAdd
                             ? (alo << p.sa) + (blo << p.sb)
                             : (alo << p.sa) - (bhi << p.sb);
            slot_hi[i] = op.kind == OpKind::kAdd
                             ? (ahi << p.sa) + (bhi << p.sb)
                             : (ahi << p.sa) - (blo << p.sb);
            p.conv = bake_conv(op.type, std::max(fa, fb), slot_lo[i],
                               slot_hi[i]);
            slot_fw[i] = op.type.fw();
            type_bounds(op.type, &slot_lo[i], &slot_hi[i]);
            break;
          case OpKind::kMul: {
            // fx_mul's full-precision product carries fa + fb; components
            // are p1 - p2 and p1 + p2 with p1, p2 component products.
            const __int128 p1 = alo * blo, p2 = alo * bhi, p3 = ahi * blo,
                           p4 = ahi * bhi;
            const __int128 pmin = std::min(std::min(p1, p2), std::min(p3, p4));
            const __int128 pmax = std::max(std::max(p1, p2), std::max(p3, p4));
            slot_lo[i] = std::min(pmin - pmax, 2 * pmin);
            slot_hi[i] = std::max(pmax - pmin, 2 * pmax);
            p.conv = bake_conv(op.type, fa + fb, slot_lo[i], slot_hi[i]);
            slot_fw[i] = op.type.fw();
            type_bounds(op.type, &slot_lo[i], &slot_hi[i]);
            break;
          }
          case OpKind::kNeg:
          case OpKind::kCast:
            p.conv = bake_conv(op.type, fa,
                               op.kind == OpKind::kNeg ? -ahi : alo,
                               op.kind == OpKind::kNeg ? -alo : ahi);
            slot_fw[i] = op.type.fw();
            type_bounds(op.type, &slot_lo[i], &slot_hi[i]);
            break;
          case OpKind::kSignConj:
            slot_fw[i] = 0;
            slot_lo[i] = -1;
            slot_hi[i] = 1;
            break;
          case OpKind::kReal:
          case OpKind::kImag:
            slot_fw[i] = fa;
            slot_lo[i] = alo;
            slot_hi[i] = ahi;
            break;
          case OpKind::kMakeComplex:
            p.sa = fa >= fb ? 0 : fb - fa;
            p.sb = fa >= fb ? fa - fb : 0;
            p.conv = bake_conv(op.type, std::max(fa, fb),
                               std::min(alo << p.sa, blo << p.sb),
                               std::max(ahi << p.sa, bhi << p.sb));
            slot_fw[i] = op.type.fw();
            type_bounds(op.type, &slot_lo[i], &slot_hi[i]);
            break;
        }
        // Slot bounds feed later operand loads; they must fit int64 too.
        chk(slot_lo[i]);
        chk(slot_hi[i]);
        const std::size_t bucket =
            static_cast<std::size_t>(k) * static_cast<std::size_t>(depth) +
            static_cast<std::size_t>(rs.body.place[i].cycle);
        if (op.kind == OpKind::kArrayWrite) ++bucket_writes[bucket];
        buckets[bucket].push_back(p);
      }
      rp.zero_spans[static_cast<std::size_t>(k)].end =
          static_cast<int>(rp.zero_slots.size());
    }
    for (std::size_t sp = 0; sp < buckets.size(); ++sp) {
      rp.spans[sp].begin = static_cast<int>(rp.ops.size());
      rp.ops.insert(rp.ops.end(), buckets[sp].begin(), buckets[sp].end());
      rp.spans[sp].end = static_cast<int>(rp.ops.size());
    }

    // The region's value buffers start at ctx_base in its pool (see
    // pools()): int64 when the region proved narrow.
    rp.narrow = narrow;
    rp.ctx_base = narrow ? narrow_bufs : wide_bufs;
    (narrow ? narrow_bufs : wide_bufs) += rp.pipelined ? trip : 1;

    // Peak array writes in any single committed cycle, accounting for
    // pipelined iteration overlap.
    if (rp.pipelined) {
      const int total = depth + (trip - 1) * rp.ii;
      for (int t = 0; t < total; ++t) {
        std::size_t w = 0;
        for (int k = 0; k <= std::min(trip - 1, t / rp.ii); ++k) {
          const int local = t - k * rp.ii;
          if (local >= 0 && local < depth)
            w += bucket_writes[static_cast<std::size_t>(k) *
                                   static_cast<std::size_t>(depth) +
                               static_cast<std::size_t>(local)];
        }
        max_writes_per_cycle_ = std::max(max_writes_per_cycle_, w);
      }
    } else {
      for (std::size_t w : bucket_writes)
        max_writes_per_cycle_ = std::max(max_writes_per_cycle_, w);
    }
  }
}

ExecPlan::Pools& ExecPlan::pools(int lanes) {
  for (Pools& p : pools_)
    if (p.lanes == lanes) return p;
  Pools& p = pools_.emplace_back();
  p.lanes = lanes;
  for (const RegionPlan& rp : regions_) {
    const std::size_t nbuf =
        rp.pipelined ? static_cast<std::size_t>(rp.trip) : 1;
    const std::size_t len = 2 * static_cast<std::size_t>(rp.nops) *
                            static_cast<std::size_t>(lanes);
    if (rp.narrow)
      p.narrow.resize(p.narrow.size() + nbuf, std::vector<long long>(len, 0));
    else
      p.wide.resize(p.wide.size() + nbuf, std::vector<__int128>(len, 0));
  }
  return p;
}

void ExecPlan::out_of_bounds(const char* what, int array) const {
  throw std::out_of_range(std::string("array ") + what +
                          " out of bounds: " +
                          array_names_[static_cast<std::size_t>(array)]);
}

}  // namespace hlsw::hls
