#include "vsim/profile.h"

#include <sstream>

#include <algorithm>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {

using hls::PortIo;

namespace {

bool io_equal(const PortIo& a, const PortIo& b) {
  return a.arrays == b.arrays && a.vars == b.vars;
}

// Model-independent counters: the same physical events occur no matter
// whether loop iterations overlap (schedule model) or serialize (emitted
// model), so every leg must report identical totals.
bool model_independent(hls::CounterKind k) {
  switch (k) {
    case hls::CounterKind::kInvocations:
    case hls::CounterKind::kLoopIters:
    case hls::CounterKind::kMemReads:
    case hls::CounterKind::kMemWrites:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool ProfileRunResult::ok() const {
  if (!cross_issues.empty()) return false;
  for (const long long mm : output_mismatches)
    if (mm != 0) return false;
  for (const hls::ProfileReport& r : reports)
    if (!r.ok) return false;
  return true;
}

obs::Json ProfileRunResult::to_json() const {
  obs::Json legs = obs::Json::array();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    obs::Json raw = obs::Json::object();
    for (const auto& [name, value] : counters[i].values)
      raw.set(name, value);
    legs.push(obs::Json::object()
                  .set("source", counters[i].source)
                  .set("backend",
                       i < leg_backends.size() ? leg_backends[i] : "")
                  .set("fallback_reason",
                       i < leg_fallbacks.size() ? leg_fallbacks[i] : "")
                  .set("lanes", i < leg_lanes.size() ? leg_lanes[i] : 1)
                  .set("output_mismatches", output_mismatches[i])
                  .set("counters", std::move(raw))
                  .set("report", reports[i].to_json()));
  }
  obs::Json cross = obs::Json::array();
  for (const std::string& s : cross_issues) cross.push(s);
  obs::Json notes_j = obs::Json::array();
  for (const std::string& s : notes) notes_j.push(s);
  return obs::Json::object()
      .set("tool", "hlsw.profile")
      // History in profile.h.
      .set("schema_version", 4)
      .set("function", function)
      .set("predicted",
           obs::Json::object()
               .set("latency_cycles", synthesis.schedule.latency_cycles)
               .set("clock_ns", synthesis.schedule.clock_ns))
      .set("feasibility",
           obs::Json::object()
               .set("min_latency_cycles", bounds.min_latency_cycles)
               .set("min_area", bounds.min_area))
      .set("counter_map", hls::instrument_map_json(counter_map))
      .set("legs", std::move(legs))
      .set("cross_issues", std::move(cross))
      .set("notes", std::move(notes_j))
      .set("ok", ok());
}

ProfileRunResult profile_run(const hls::Function& f,
                             const hls::Directives& dir,
                             const hls::TechLibrary& tech,
                             const std::vector<PortIo>& vectors,
                             const ProfileRunOptions& opts) {
  obs::ScopedSpan span("profile_run", "vsim");
  ProfileRunResult r;
  r.synthesis = hls::run_synthesis(f, dir, tech);
  r.function = r.synthesis.transformed.name;
  // Bounds are certified against the ORIGINAL IR + directives: the measured
  // hardware may never beat them no matter what the transforms did.
  hls::check_feasibility(f, dir, tech, &r.bounds);

  hls::InstrumentOptions inst = opts.instrument;
  inst.enabled = true;
  r.counter_map =
      hls::instrument_map(r.synthesis.transformed, r.synthesis.schedule, inst);

  rtl::VerilogOptions vopts;
  vopts.instrument = inst;
  r.verilog =
      rtl::emit_verilog(r.synthesis.transformed, r.synthesis.schedule, vopts);

  // Untimed golden reference on the transformed IR.
  hls::Interpreter golden(r.synthesis.transformed);
  const std::vector<PortIo> expected = golden.run_stream(vectors);
  auto mismatches = [&](const std::vector<PortIo>& got) {
    long long mm = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
      if (!io_equal(got[i], expected[i])) ++mm;
    return mm;
  };
  auto add_leg = [&](hls::CounterValues values, long long mm,
                     std::string backend, std::string fallback,
                     int lanes = 1) {
    r.output_mismatches.push_back(mm);
    r.reports.push_back(hls::reconcile_profile(
        r.synthesis.transformed, r.synthesis.schedule, r.counter_map, values,
        &r.bounds));
    r.counters.push_back(std::move(values));
    r.leg_backends.push_back(std::move(backend));
    r.leg_fallbacks.push_back(std::move(fallback));
    r.leg_lanes.push_back(lanes);
  };

  if (opts.run_rtl_sim) {
    rtl::Simulator sim(r.synthesis.transformed, r.synthesis.schedule);
    const long long mm = mismatches(sim.run_stream(vectors));
    add_leg(rtl::read_counters(sim, r.counter_map), mm, "rtl_sim", "");
  }

  std::vector<std::size_t> vsim_legs;  // indices into r.counters
  if (opts.run_vsim_event || opts.run_vsim_compiled ||
      opts.run_vsim_codegen) {
    auto design = load_design(r.verilog, r.function);
    // Every vsim leg runs on the one harness. At one lane it replays every
    // vector in order. With `lanes` > 1 the vectors split into contiguous
    // blocks, each replayed from reset in its own lane (the vsim_sweep
    // block contract) and checked against a golden replay of that block;
    // counters are per-invocation accumulators, so their lane sum equals
    // the sequential measurement and every cross-leg check below still
    // applies bit for bit. The engine is built at the lane budget, so
    // every stimulus length shares one engine; lanes past the last block
    // get empty streams.
    auto run_leg = [&](Backend want, const char* wanted_name, int lanes) {
      const std::size_t n = vectors.size();
      const std::size_t bs = std::max<std::size_t>(
          1, (n + static_cast<std::size_t>(lanes) - 1) /
                 static_cast<std::size_t>(lanes));
      std::vector<std::vector<PortIo>> streams;
      for (std::size_t begin = 0; begin < n; begin += bs)
        streams.emplace_back(
            vectors.begin() + static_cast<long>(begin),
            vectors.begin() + static_cast<long>(std::min(begin + bs, n)));
      const int used = static_cast<int>(streams.size());
      streams.resize(static_cast<std::size_t>(lanes));
      SimConfig cfg;
      cfg.backend = want;
      PackedDutHarness h(r.synthesis.transformed, design, lanes, cfg);
      const auto got = h.run_streams(streams);
      long long mm = 0;
      if (used == 1) {
        mm = mismatches(got[0]);  // one stream of every vector
      } else {
        // The blocks' golden replays run in lockstep from the reset state,
        // each output checked as its symbol completes.
        streams.resize(static_cast<std::size_t>(used));
        golden.run_streams(streams, [&](std::size_t l, std::size_t i,
                                        const PortIo& want) {
          if (!io_equal(got[l][i], want)) ++mm;
        });
      }
      const std::string backend = h.backend();
      if (lanes > 1)
        r.notes.push_back(
            "compiled leg auto-selected the packed backend: " +
            std::to_string(n) + " vectors >= " + std::to_string(lanes) +
            " lanes (ran " + std::to_string(used) + " lanes on " + backend +
            ")");
      else if (backend != wanted_name)
        r.notes.push_back(std::string(wanted_name) + " backend fell back to " +
                          backend + ": " + h.fallback_reason());
      vsim_legs.push_back(r.counters.size());
      add_leg(h.read_counters(r.counter_map), mm, backend,
              h.fallback_reason(), std::max(used, 1));
    };
    // Packed auto-selection for the compiled leg: when the caller granted a
    // lane budget and the stimulus is at least that wide, the leg runs at
    // the budget under kAuto, which prefers the generated lane-major engine
    // and degrades to one compiled Simulation per lane.
    const int lanes = std::clamp(opts.lanes, 1, kMaxLanes);
    const bool packed =
        lanes > 1 && vectors.size() >= static_cast<std::size_t>(lanes);
    if (opts.run_vsim_event) run_leg(Backend::kEvent, "event", 1);
    if (opts.run_vsim_compiled)
      run_leg(packed ? Backend::kAuto : Backend::kCompiled, "compiled",
              packed ? lanes : 1);
    if (opts.run_vsim_codegen)
      run_leg(Backend::kPackedCodegen, "packed_codegen", 1);
  }

  // ---- Cross-leg agreement ----
  // The two vsim backends execute the same emitted FSM: every counter must
  // agree bit for bit.
  for (std::size_t i = 1; i < vsim_legs.size(); ++i) {
    const hls::CounterValues& a = r.counters[vsim_legs[0]];
    const hls::CounterValues& b = r.counters[vsim_legs[i]];
    for (const hls::PerfCounter& c : r.counter_map) {
      const auto ia = a.values.find(c.name), ib = b.values.find(c.name);
      if (ia == a.values.end() || ib == b.values.end()) continue;
      if (ia->second != ib->second) {
        std::ostringstream os;
        os << "counter '" << c.name << "': " << a.source << " measured "
           << ia->second << " but " << b.source << " measured " << ib->second
           << " on the same emitted design";
        r.cross_issues.push_back(os.str());
      }
    }
  }
  // Model-independent counters must agree across ALL legs.
  for (const hls::PerfCounter& c : r.counter_map) {
    if (!model_independent(c.kind)) continue;
    for (std::size_t i = 1; i < r.counters.size(); ++i) {
      const auto i0 = r.counters[0].values.find(c.name);
      const auto ii = r.counters[i].values.find(c.name);
      if (i0 == r.counters[0].values.end() ||
          ii == r.counters[i].values.end())
        continue;
      if (i0->second != ii->second) {
        std::ostringstream os;
        os << "counter '" << c.name << "' is timing-model independent but "
           << r.counters[0].source << " measured " << i0->second << " while "
           << r.counters[i].source << " measured " << ii->second;
        r.cross_issues.push_back(os.str());
      }
    }
  }

  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::instance();
    m.add("hw.profile_run.legs", static_cast<double>(r.counters.size()));
    m.add("hw.profile_run.cross_issues",
          static_cast<double>(r.cross_issues.size()));
  }
  if (span.active()) {
    span.arg("function", r.function);
    span.arg("legs", static_cast<long long>(r.counters.size()));
    span.arg("ok", r.ok() ? 1LL : 0LL);
  }
  if (!opts.report_path.empty()) write_profile_run_json(r, opts.report_path);
  return r;
}

bool write_profile_run_json(const ProfileRunResult& r,
                            const std::string& path) {
  return obs::StructuredReport::write_json_file(path, r.to_json());
}

}  // namespace hlsw::vsim
