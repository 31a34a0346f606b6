#include "rtl/sim.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hlsw::rtl {

using hls::Array;
using hls::Block;
using hls::BlockSchedule;
using hls::FxValue;
using hls::Op;
using hls::OpKind;
using hls::PortIo;
using hls::Region;

Simulator::Simulator(hls::Function f, hls::Schedule s, SimOptions opts)
    : f_(std::move(f)), s_(std::move(s)), opts_(opts), plan_(f_, s_),
      ports_(f_) {
  reset();
  pending_.reserve(plan_.max_writes_per_cycle());
}

void Simulator::reset() {
  pending_.clear();
  cycles_ = 0;
  stats_ = SimStats{};
  for (const auto& region : f_.regions) {
    stats_.region_labels.push_back(region.is_loop ? region.loop.label
                                                  : region.name);
    stats_.region_ops.push_back(0);
    stats_.region_cycles.push_back(0);
    stats_.region_iters.push_back(0);
  }
  for (const auto& a : f_.arrays) {
    stats_.array_labels.push_back(a.name);
    stats_.array_reads.push_back(0);
    stats_.array_writes.push_back(0);
  }
  hls::initial_state(f_, &var_state_, &array_state_);
}

const std::vector<FxValue>& Simulator::array_state(
    const std::string& name) const {
  const int i = f_.array_index(name);
  assert(i >= 0);
  return array_state_[static_cast<size_t>(i)];
}

void Simulator::set_array_state(const std::string& name,
                                const std::vector<FxValue>& values) {
  const int i = f_.array_index(name);
  assert(i >= 0);
  const Array& a = f_.arrays[static_cast<size_t>(i)];
  assert(static_cast<int>(values.size()) == a.length);
  for (int j = 0; j < a.length; ++j)
    array_state_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
        fx_convert(values[static_cast<size_t>(j)], a.elem);
}

void Simulator::exec_cycle(const Block& b, const BlockSchedule& sched,
                           IterationCtx* ctx, int body_cycle,
                           std::size_t region) {
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    if (sched.place[i].cycle != body_cycle) continue;
    const Op& op = b.ops[i];
    if (op.guard_trip >= 0 && ctx->k >= op.guard_trip) continue;
    ++stats_.ops_executed;
    ++stats_.region_ops[region];
    switch (op.kind) {
      case OpKind::kVarRead:
        // Scalar registers forward: reads observe the latest write.
        ctx->vals[i] = var_state_[static_cast<size_t>(op.var)];
        break;
      case OpKind::kVarWrite:
        var_state_[static_cast<size_t>(op.var)] = fx_convert(
            ctx->vals[static_cast<size_t>(op.args[0])],
            f_.vars[static_cast<size_t>(op.var)].type);
        break;
      case OpKind::kArrayRead: {
        const int idx = op.idx.eval(ctx->k);
        const auto& arr = array_state_[static_cast<size_t>(op.array)];
        if (idx < 0 || idx >= static_cast<int>(arr.size()))
          throw std::out_of_range("rtl: array read out of bounds");
        ++stats_.array_reads[static_cast<size_t>(op.array)];
        // Start-of-cycle state only: pending writes are not visible.
        ctx->vals[i] = arr[static_cast<size_t>(idx)];
        break;
      }
      case OpKind::kArrayWrite: {
        const int idx = op.idx.eval(ctx->k);
        if (idx < 0 ||
            idx >= f_.arrays[static_cast<size_t>(op.array)].length)
          throw std::out_of_range("rtl: array write out of bounds");
        ++stats_.array_writes[static_cast<size_t>(op.array)];
        const Array& a = f_.arrays[static_cast<size_t>(op.array)];
        pending_.push_back(
            {{op.array, idx},
             fx_convert(ctx->vals[static_cast<size_t>(op.args[0])], a.elem)});
        break;
      }
      default: {
        const FxValue* a0 =
            !op.args.empty() ? &ctx->vals[static_cast<size_t>(op.args[0])]
                             : nullptr;
        const FxValue* a1 = op.args.size() > 1
                                ? &ctx->vals[static_cast<size_t>(op.args[1])]
                                : nullptr;
        ctx->vals[i] = exec_op(op, a0, a1);
        break;
      }
    }
  }
}

void Simulator::commit_pending() {
  stats_.array_commits += static_cast<long long>(pending_.size());
  stats_.max_commit_queue = std::max(stats_.max_commit_queue,
                                     static_cast<long long>(pending_.size()));
  // Last write (program order) wins, like a priority-encoded register load.
  for (const auto& [loc, value] : pending_)
    array_state_[static_cast<size_t>(loc.first)]
                [static_cast<size_t>(loc.second)] = value;
  pending_.clear();
  ++cycles_;
  ++stats_.cycles;
  if (trace_) trace_(cycles_ - 1, var_state_, array_state_);
}

void Simulator::run_regions_legacy() {
  for (std::size_t r = 0; r < f_.regions.size(); ++r) {
    const Region& region = f_.regions[r];
    const auto& rs = s_.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;

    if (!region.is_loop) {
      stats_.region_cycles[r] += rs.body.cycles;
      IterationCtx ctx;
      ctx.vals.resize(b.ops.size());
      for (int c = 0; c < rs.body.cycles; ++c) {
        exec_cycle(b, rs.body, &ctx, c, r);
        commit_pending();
      }
      continue;
    }

    if (rs.ii <= 0) {
      // Sequential loop: iterations back to back.
      stats_.region_cycles[r] +=
          static_cast<long long>(rs.trip) * rs.body.cycles;
      stats_.region_iters[r] += rs.trip;
      for (int k = 0; k < rs.trip; ++k) {
        IterationCtx ctx;
        ctx.k = k;
        ctx.vals.resize(b.ops.size());
        for (int c = 0; c < rs.body.cycles; ++c) {
          exec_cycle(b, rs.body, &ctx, c, r);
          commit_pending();
        }
      }
      continue;
    }

    // Pipelined loop: iteration k occupies global cycles
    // [k*ii, k*ii + depth); earlier iterations execute first in a cycle.
    const int depth = rs.body.cycles;
    const int total = depth + (rs.trip - 1) * rs.ii;
    stats_.region_cycles[r] += total;
    stats_.region_iters[r] += rs.trip;
    std::vector<IterationCtx> iters(static_cast<size_t>(rs.trip));
    for (int k = 0; k < rs.trip; ++k) {
      iters[static_cast<size_t>(k)].k = k;
      iters[static_cast<size_t>(k)].vals.resize(b.ops.size());
    }
    for (int t = 0; t < total; ++t) {
      for (int k = 0; k < rs.trip; ++k) {
        const int local = t - k * rs.ii;
        if (local < 0 || local >= depth) continue;
        exec_cycle(b, rs.body, &iters[static_cast<size_t>(k)], local, r);
      }
      commit_pending();
    }
  }
}

struct Simulator::TimedSink {
  Simulator* sim;

  // Scalar registers forward: reads observe the latest write.
  template <class T>
  void load_var(int var, T* d) {
    const FxValue& v = sim->var_state_[static_cast<size_t>(var)];
    d[0] = static_cast<T>(v.re);
    d[1] = static_cast<T>(v.im);
  }
  template <class T>
  void store_var(int var, const hls::ConvSpec& cs, const T* s) {
    FxValue& v = sim->var_state_[static_cast<size_t>(var)];
    v.fw = cs.out_fw;
    v.cplx = cs.out_cplx;
    hls::plan_detail::store_rows<T, 1>(&v.re, &v.im, s, cs);
  }
  // Start-of-cycle state only: pending writes are not visible.
  template <class T>
  void load_elem(int array, int idx, T* d) {
    ++sim->stats_.array_reads[static_cast<size_t>(array)];
    const FxValue& v = sim->array_state_[static_cast<size_t>(array)]
                                        [static_cast<size_t>(idx)];
    d[0] = static_cast<T>(v.re);
    d[1] = static_cast<T>(v.im);
  }
  // The write becomes visible at the end-of-cycle commit.
  template <class T>
  void store_elem(int array, int idx, const hls::ConvSpec& cs, const T* s) {
    ++sim->stats_.array_writes[static_cast<size_t>(array)];
    FxValue& v = sim->pending_.emplace_back(std::pair{array, idx}, FxValue{})
                     .second;
    v.fw = cs.out_fw;
    v.cplx = cs.out_cplx;
    hls::plan_detail::store_rows<T, 1>(&v.re, &v.im, s, cs);
  }
  void enter(std::size_t r, const hls::RegionPlan& rp) {
    // Same region-occupancy accounting as the interpretive path (SimStats
    // stays bit-identical across execution engines).
    SimStats& st = sim->stats_;
    st.region_cycles[r] +=
        rp.pipelined ? rp.depth + static_cast<long long>(rp.trip - 1) * rp.ii
                     : static_cast<long long>(rp.trip) * rp.depth;
    if (sim->f_.regions[r].is_loop) st.region_iters[r] += rp.trip;
  }
  void ops(std::size_t r, long long n) {
    sim->stats_.ops_executed += n;
    sim->stats_.region_ops[r] += n;
  }
  void end_cycle() { sim->commit_pending(); }
};

void Simulator::run_regions() {
  if (!opts_.compiled) {
    run_regions_legacy();
    return;
  }
  TimedSink sink{this};
  plan_.run<1>(sink);
}

PortIo Simulator::run_one(const PortIo& in) {
  ++stats_.invocations;
  ports_.load(
      in, [this](std::size_t v, const FxValue& x) { var_state_[v] = x; },
      [this](std::size_t a, std::size_t j, const FxValue& x) {
        array_state_[a][j] = x;
      });
  run_regions();
  return ports_.collect(
      [this](std::size_t v, const hls::FxType&) { return var_state_[v]; },
      [this](std::size_t a, const hls::FxType&, std::size_t) {
        return array_state_[a];
      });
}

PortIo Simulator::run(const PortIo& in) {
  obs::ScopedSpan span("run", "rtl.sim");
  const long long cycles_before = cycles_;
  PortIo out = run_one(in);
  if (span.active()) {
    const long long ran = cycles_ - cycles_before;
    span.arg("function", f_.name);
    span.arg("cycles", ran);
    auto& m = obs::MetricsRegistry::instance();
    m.add("rtl.sim.invocations");
    m.add("rtl.sim.cycles", static_cast<double>(ran));
  }
  return out;
}

std::vector<PortIo> Simulator::run_stream(const std::vector<PortIo>& ins) {
  obs::ScopedSpan span("run_stream", "rtl.sim");
  const long long cycles_before = cycles_;
  std::vector<PortIo> outs;
  outs.reserve(ins.size());
  for (const auto& in : ins) outs.push_back(run_one(in));
  if (span.active()) {
    const long long ran = cycles_ - cycles_before;
    span.arg("function", f_.name);
    span.arg("symbols", static_cast<long long>(ins.size()));
    span.arg("cycles", ran);
    auto& m = obs::MetricsRegistry::instance();
    m.add("rtl.sim.invocations", static_cast<double>(ins.size()));
    m.add("rtl.sim.cycles", static_cast<double>(ran));
  }
  return outs;
}

obs::Json sim_stats_json(const Simulator& sim) {
  const SimStats& st = sim.stats();
  obs::Json regions = obs::Json::array();
  for (std::size_t i = 0; i < st.region_labels.size(); ++i)
    regions.push(obs::Json::object()
                     .set("label", st.region_labels[i])
                     .set("ops", st.region_ops[i])
                     .set("cycles", st.region_cycles[i])
                     .set("iters", st.region_iters[i]));
  obs::Json arrays = obs::Json::array();
  for (std::size_t i = 0; i < st.array_labels.size(); ++i)
    arrays.push(obs::Json::object()
                    .set("name", st.array_labels[i])
                    .set("reads", st.array_reads[i])
                    .set("writes", st.array_writes[i]));
  // schema_version 2: regions gained cycles/iters, arrays section added.
  return obs::Json::object()
      .set("tool", "hlsw.rtl_sim")
      .set("schema_version", 2)
      .set("function", sim.function().name)
      .set("invocations", st.invocations)
      .set("cycles", st.cycles)
      .set("ops_executed", st.ops_executed)
      .set("array_commits", st.array_commits)
      .set("max_commit_queue", st.max_commit_queue)
      .set("regions", std::move(regions))
      .set("arrays", std::move(arrays));
}

bool write_sim_stats_json(const Simulator& sim, const std::string& path) {
  return obs::StructuredReport::write_json_file(path, sim_stats_json(sim));
}

hls::CounterValues read_counters(const Simulator& sim,
                                 const std::vector<hls::PerfCounter>& map) {
  const SimStats& st = sim.stats();
  hls::CounterValues out;
  out.source = "rtl_sim";
  for (const hls::PerfCounter& c : map) {
    long long v = 0;
    switch (c.kind) {
      case hls::CounterKind::kInvocations:
        v = st.invocations;
        break;
      case hls::CounterKind::kActiveCycles:
        v = st.cycles;
        break;
      case hls::CounterKind::kRegionCycles:
        v = st.region_cycles[static_cast<size_t>(c.region)];
        break;
      case hls::CounterKind::kLoopIters:
        v = st.region_iters[static_cast<size_t>(c.region)];
        break;
      case hls::CounterKind::kLoopStall:
        // The simulator executes the schedule model: pipelined iterations
        // genuinely overlap, so no serialization bubbles ever occur.
        v = 0;
        break;
      case hls::CounterKind::kMemReads:
        v = st.array_reads[static_cast<size_t>(c.array)];
        break;
      case hls::CounterKind::kMemWrites:
        v = st.array_writes[static_cast<size_t>(c.array)];
        break;
    }
    // Hardware counters are c.width-bit wrapping registers; wrap the
    // unbounded software count the same way so the legs stay comparable.
    if (c.width < 64) v &= (1LL << c.width) - 1;
    out.values[c.name] = v;
  }
  return out;
}

}  // namespace hlsw::rtl
