#include "hls/profile.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlsw::hls {

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), '_');
  return out;
}

int clamp_width(int w) { return std::max(8, std::min(64, w)); }

const Block& region_block(const Region& r) {
  return r.is_loop ? r.loop.body : r.straight;
}

std::string region_label(const Region& r) {
  return r.is_loop ? r.loop.label : r.name;
}

}  // namespace

const char* to_string(CounterKind k) {
  switch (k) {
    case CounterKind::kInvocations: return "invocations";
    case CounterKind::kActiveCycles: return "active_cycles";
    case CounterKind::kRegionCycles: return "region_cycles";
    case CounterKind::kLoopIters: return "loop_iters";
    case CounterKind::kLoopStall: return "loop_stall";
    case CounterKind::kMemReads: return "mem_reads";
    case CounterKind::kMemWrites: return "mem_writes";
  }
  return "?";
}

long long guarded_executions(const Op& op, int trip) {
  if (op.guard_trip < 0) return trip;
  return std::min<long long>(trip, std::max(0, op.guard_trip));
}

std::vector<PerfCounter> instrument_map(const Function& f, const Schedule& s,
                                        const InstrumentOptions& opts) {
  std::vector<PerfCounter> map;
  if (!opts.enabled) return map;
  const int w = clamp_width(opts.counter_width);
  auto add = [&](PerfCounter c) {
    c.index = static_cast<int>(map.size());
    c.width = w;
    map.push_back(std::move(c));
  };

  add({.name = "perf_invocations", .kind = CounterKind::kInvocations});
  add({.name = "perf_active_cycles", .kind = CounterKind::kActiveCycles});

  // Every region's cycles, every loop's iterations and every pipelined
  // loop's serialization stalls, then every array's port activity.
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const auto& rs = s.regions[r];
    const std::string label = sanitize(region_label(region));
    const std::string base = "perf_r" + std::to_string(r) + "_" + label;
    add({.name = base + "_cycles",
         .kind = CounterKind::kRegionCycles,
         .region = static_cast<int>(r),
         .label = region_label(region)});
    if (region.is_loop)
      add({.name = base + "_iters",
           .kind = CounterKind::kLoopIters,
           .region = static_cast<int>(r),
           .label = region_label(region)});
    if (region.is_loop && rs.ii > 0)
      add({.name = base + "_stall",
           .kind = CounterKind::kLoopStall,
           .region = static_cast<int>(r),
           .label = region_label(region)});
  }

  for (std::size_t a = 0; a < f.arrays.size(); ++a) {
    const std::string base = "perf_mem_" + sanitize(f.arrays[a].name);
    add({.name = base + "_reads",
         .kind = CounterKind::kMemReads,
         .array = static_cast<int>(a),
         .array_name = f.arrays[a].name});
    add({.name = base + "_writes",
         .kind = CounterKind::kMemWrites,
         .array = static_cast<int>(a),
         .array_name = f.arrays[a].name});
  }
  return map;
}

obs::Json instrument_map_json(const std::vector<PerfCounter>& map) {
  obs::Json out = obs::Json::array();
  for (const PerfCounter& c : map) {
    obs::Json o = obs::Json::object()
                      .set("name", c.name)
                      .set("kind", to_string(c.kind))
                      .set("index", c.index)
                      .set("width", c.width);
    if (c.region >= 0) o.set("region", c.region).set("label", c.label);
    if (c.array >= 0) o.set("array", c.array_name);
    out.push(std::move(o));
  }
  return out;
}

// ---- Reconciler -------------------------------------------------------------

namespace {

struct Measured {
  const CounterValues& m;
  std::vector<ProfileDeviation>* devs;
  // Total value of `name`, or -1 when the leg did not report it (missing
  // counters that the map promises are a hard deviation, recorded once).
  long long total(const std::string& name) const {
    auto it = m.values.find(name);
    if (it != m.values.end()) return it->second;
    devs->push_back({"counter '" + name + "' missing from " + m.source +
                         " measurement",
                     false});
    return -1;
  }
};

}  // namespace

obs::Json ProfileReport::to_json() const {
  obs::Json loops_j = obs::Json::array();
  for (const LoopProfile& l : loops) {
    obs::Json o = obs::Json::object()
                      .set("region", l.region)
                      .set("label", l.label)
                      .set("is_loop", l.is_loop)
                      .set("trip", l.trip)
                      .set("body_cycles", l.body_cycles)
                      .set("scheduled_ii", l.scheduled_ii)
                      .set("predicted_ii", l.predicted_ii)
                      .set("predicted_cycles", l.predicted_cycles)
                      .set("emitted_cycles", l.emitted_cycles);
    if (l.measured_cycles >= 0)
      o.set("measured_cycles", l.measured_cycles)
          .set("measured_ii", l.measured_ii);
    if (l.measured_iters >= 0) o.set("measured_iters", l.measured_iters);
    if (l.measured_stall >= 0) o.set("measured_stall", l.measured_stall);
    loops_j.push(std::move(o));
  }
  obs::Json mem_j = obs::Json::array();
  for (const MemProfile& a : mem) {
    obs::Json o = obs::Json::object()
                      .set("array", a.name)
                      .set("predicted_reads", a.predicted_reads)
                      .set("predicted_writes", a.predicted_writes);
    if (a.measured_reads >= 0) o.set("measured_reads", a.measured_reads);
    if (a.measured_writes >= 0) o.set("measured_writes", a.measured_writes);
    mem_j.push(std::move(o));
  }
  obs::Json devs_j = obs::Json::array();
  for (const ProfileDeviation& d : deviations)
    devs_j.push(obs::Json::object()
                    .set("what", d.what)
                    .set("explained", d.explained));
  obs::Json out = obs::Json::object()
                      .set("function", function)
                      .set("source", source)
                      .set("invocations", invocations)
                      .set("predicted_latency_cycles", predicted_latency_cycles)
                      .set("emitted_latency_cycles", emitted_latency_cycles);
  if (measured_active_cycles >= 0)
    out.set("measured_active_cycles", measured_active_cycles);
  if (bounds_checked)
    out.set("feasibility",
            obs::Json::object()
                .set("min_latency_cycles", bounds.min_latency_cycles)
                .set("min_area", bounds.min_area)
                .set("respected", bounds_respected));
  out.set("loops", std::move(loops_j))
      .set("mem", std::move(mem_j))
      .set("deviations", std::move(devs_j))
      .set("ok", ok);
  return out;
}

ProfileReport reconcile_profile(const Function& f, const Schedule& s,
                                const std::vector<PerfCounter>& map,
                                const CounterValues& measured,
                                const DesignBounds* bounds) {
  ProfileReport rep;
  rep.function = f.name;
  rep.source = measured.source;

  const Measured m{measured, &rep.deviations};

  // Divides a cumulative counter into a per-invocation value; a total that
  // does not divide evenly cannot come from the deterministic FSM and is a
  // hard deviation.
  auto per_inv = [&](const std::string& name, long long total) -> long long {
    if (total < 0 || rep.invocations <= 0) return -1;
    if (total % rep.invocations != 0) {
      rep.deviations.push_back(
          {"counter '" + name + "' total " + std::to_string(total) +
               " is not a multiple of " + std::to_string(rep.invocations) +
               " invocations",
           false});
      return -1;
    }
    return total / rep.invocations;
  };

  // Locate counters by (kind, region/array) through the map.
  auto find = [&](CounterKind k, int region, int array) -> const PerfCounter* {
    for (const PerfCounter& c : map)
      if (c.kind == k && c.region == region && c.array == array) return &c;
    return nullptr;
  };

  if (const PerfCounter* c = find(CounterKind::kInvocations, -1, -1))
    rep.invocations = m.total(c->name);

  // ---- Per-region predictions + joins ----
  rep.predicted_latency_cycles = s.latency_cycles;
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const auto& rs = s.regions[r];
    LoopProfile lp;
    lp.region = static_cast<int>(r);
    lp.label = region_label(region);
    lp.is_loop = region.is_loop;
    lp.trip = region.is_loop ? rs.trip : 1;
    lp.body_cycles = rs.body.cycles;
    lp.scheduled_ii = rs.ii;
    lp.predicted_cycles = rs.total_cycles;
    lp.emitted_cycles =
        static_cast<long long>(lp.trip) * lp.body_cycles;
    lp.predicted_ii =
        lp.trip > 0 ? static_cast<double>(lp.predicted_cycles) / lp.trip : 0;
    rep.emitted_latency_cycles += lp.emitted_cycles;

    const long long expected_stall =
        rs.ii > 0 ? static_cast<long long>(lp.trip - 1) *
                        std::max(0, lp.body_cycles - rs.ii)
                  : 0;

    if (const PerfCounter* c = find(CounterKind::kRegionCycles,
                                    static_cast<int>(r), -1)) {
      lp.measured_cycles = per_inv(c->name, m.total(c->name));
      if (lp.measured_cycles >= 0) {
        lp.measured_ii = lp.trip > 0
                             ? static_cast<double>(lp.measured_cycles) / lp.trip
                             : 0;
        if (lp.measured_cycles == lp.predicted_cycles) {
          // schedule model holds — nothing to flag
        } else if (lp.measured_cycles == lp.emitted_cycles) {
          std::ostringstream os;
          os << "loop '" << lp.label << "': measured II " << lp.measured_ii
             << " vs scheduled II " << rs.ii
             << " — emitter initiates pipelined iterations sequentially ("
             << lp.measured_cycles << " vs " << lp.predicted_cycles
             << " cycles/invocation)";
          rep.deviations.push_back({os.str(), true});
        } else {
          std::ostringstream os;
          os << "loop '" << lp.label << "': measured " << lp.measured_cycles
             << " cycles/invocation matches neither the schedule model ("
             << lp.predicted_cycles << ") nor the serialized emission model ("
             << lp.emitted_cycles << ")";
          rep.deviations.push_back({os.str(), false});
        }
      }
    }
    if (const PerfCounter* c =
            find(CounterKind::kLoopIters, static_cast<int>(r), -1)) {
      lp.measured_iters = per_inv(c->name, m.total(c->name));
      if (lp.measured_iters >= 0 && lp.measured_iters != lp.trip)
        rep.deviations.push_back(
            {"loop '" + lp.label + "': measured " +
                 std::to_string(lp.measured_iters) +
                 " iterations/invocation, schedule trip is " +
                 std::to_string(lp.trip),
             false});
    }
    if (const PerfCounter* c =
            find(CounterKind::kLoopStall, static_cast<int>(r), -1)) {
      lp.measured_stall = per_inv(c->name, m.total(c->name));
      if (lp.measured_stall >= 0 && lp.measured_stall != 0 &&
          lp.measured_stall != expected_stall)
        rep.deviations.push_back(
            {"loop '" + lp.label + "': measured " +
                 std::to_string(lp.measured_stall) +
                 " stall cycles/invocation; expected 0 (schedule model) or " +
                 std::to_string(expected_stall) + " (serialized emission)",
             false});
      // Cross-check: a leg that timed the serialized emission must also
      // show the serialization stalls, and vice versa.
      if (lp.measured_stall >= 0 && lp.measured_cycles >= 0 &&
          lp.measured_cycles == lp.emitted_cycles &&
          lp.emitted_cycles != lp.predicted_cycles &&
          lp.measured_stall != expected_stall)
        rep.deviations.push_back(
            {"loop '" + lp.label +
                 "': serialized timing without matching stall count",
             false});
    }
    rep.loops.push_back(std::move(lp));
  }

  // ---- Whole-design active cycles ----
  if (const PerfCounter* c = find(CounterKind::kActiveCycles, -1, -1)) {
    rep.measured_active_cycles = per_inv(c->name, m.total(c->name));
    if (rep.measured_active_cycles >= 0 &&
        rep.measured_active_cycles != rep.predicted_latency_cycles &&
        rep.measured_active_cycles != rep.emitted_latency_cycles) {
      std::ostringstream os;
      os << "total: measured " << rep.measured_active_cycles
         << " active cycles/invocation matches neither the schedule latency ("
         << rep.predicted_latency_cycles << ") nor the serialized emission ("
         << rep.emitted_latency_cycles << ")";
      rep.deviations.push_back({os.str(), false});
    } else if (rep.measured_active_cycles ==
                   rep.emitted_latency_cycles &&
               rep.emitted_latency_cycles != rep.predicted_latency_cycles) {
      std::ostringstream os;
      os << "total: measured latency " << rep.measured_active_cycles
         << " cycles/invocation vs scheduled " << rep.predicted_latency_cycles
         << " — emitter serialization (explained)";
      rep.deviations.push_back({os.str(), true});
    }
  }

  // ---- Memory-port activity ----
  for (std::size_t a = 0; a < f.arrays.size(); ++a) {
    const PerfCounter* cr =
        find(CounterKind::kMemReads, -1, static_cast<int>(a));
    const PerfCounter* cw =
        find(CounterKind::kMemWrites, -1, static_cast<int>(a));
    if (cr == nullptr && cw == nullptr) continue;
    MemProfile mp;
    mp.array = static_cast<int>(a);
    mp.name = f.arrays[a].name;
    for (std::size_t r = 0; r < f.regions.size(); ++r) {
      const Region& region = f.regions[r];
      const int trip = region.is_loop ? s.regions[r].trip : 1;
      for (const Op& op : region_block(region).ops) {
        if (op.array != static_cast<int>(a)) continue;
        if (op.kind == OpKind::kArrayRead)
          mp.predicted_reads += guarded_executions(op, trip);
        else if (op.kind == OpKind::kArrayWrite)
          mp.predicted_writes += guarded_executions(op, trip);
      }
    }
    auto join = [&](const PerfCounter* c, long long predicted,
                    long long* slot, const char* what) {
      if (c == nullptr) return;
      *slot = per_inv(c->name, m.total(c->name));
      if (*slot >= 0 && *slot != predicted)
        rep.deviations.push_back(
            {"array '" + mp.name + "': measured " + std::to_string(*slot) +
                 " " + what + "/invocation, schedule predicts " +
                 std::to_string(predicted),
             false});
    };
    join(cr, mp.predicted_reads, &mp.measured_reads, "reads");
    join(cw, mp.predicted_writes, &mp.measured_writes, "writes");
    rep.mem.push_back(std::move(mp));
  }

  // ---- Feasibility lower bounds (PR 6) ----
  if (bounds != nullptr) {
    rep.bounds = *bounds;
    rep.bounds_checked = true;
    if (rep.measured_active_cycles >= 0 &&
        rep.measured_active_cycles < bounds->min_latency_cycles) {
      rep.bounds_respected = false;
      rep.deviations.push_back(
          {"measured latency " + std::to_string(rep.measured_active_cycles) +
               " cycles/invocation is below the certified feasibility floor " +
               std::to_string(bounds->min_latency_cycles),
           false});
    }
  }

  std::size_t hard = 0, soft = 0;
  for (const ProfileDeviation& d : rep.deviations)
    (d.explained ? soft : hard)++;
  rep.ok = hard == 0 && rep.bounds_respected;

  if (obs::enabled()) {
    auto& mm = obs::MetricsRegistry::instance();
    mm.add("hw.profile.runs");
    mm.add("hw.profile.deviations", static_cast<double>(hard));
    mm.add("hw.profile.deviations_explained", static_cast<double>(soft));
    for (const LoopProfile& l : rep.loops) {
      if (!l.is_loop) continue;
      if (l.measured_cycles >= 0)
        mm.observe("hw.loop.ii_measured", l.measured_ii);
      if (l.measured_stall > 0)
        mm.add("hw.stall_cycles",
               static_cast<double>(l.measured_stall * rep.invocations));
    }
    if (rep.measured_active_cycles >= 0)
      mm.observe("hw.latency.measured_cycles",
                 static_cast<double>(rep.measured_active_cycles));
  }
  return rep;
}

}  // namespace hlsw::hls
