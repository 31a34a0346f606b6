// The acceptance gate of the instrumentation PR: for every Table 1 and
// exploration architecture — and for randomized directive sets from the
// DSE space — profile_run() closes the predicted-vs-measured loop. The
// instrumented cosim (rtl::Simulator plus both vsim backends, which must
// agree counter for counter) yields measured per-loop II and total latency
// that match the predictions: the rtl leg reproduces the schedule model
// exactly, the vsim legs land on the schedule model or the documented
// serialized-emission model (an EXPLAINED deviation, never dropped), every
// measured latency respects the certified feasibility lower bounds, and
// the whole join round-trips through profile_run.json.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "hls/builder.h"
#include "hls/profile.h"
#include "obs/json.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/pack.h"
#include "vsim/profile.h"

namespace hlsw::vsim {
namespace {

using hls::Directives;
using hls::PortIo;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

// Full three-leg profile run for one directive set; asserts the acceptance
// criteria on the result and returns it for extra checks.
ProfileRunResult run_profile(const Directives& dir, const std::string& name,
                             int symbols) {
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, symbols);
  const ProfileRunResult res =
      profile_run(qam::build_qam_decoder_ir(), dir, TechLibrary::asic90(),
                  vectors);

  EXPECT_TRUE(res.ok()) << name << ": "
                        << (res.cross_issues.empty()
                                ? res.to_json().dump(2)
                                : res.cross_issues.front());
  EXPECT_EQ(res.counters.size(), 3u) << name;
  EXPECT_EQ(res.reports.size(), 3u) << name;
  for (const long long mm : res.output_mismatches) EXPECT_EQ(mm, 0) << name;
  EXPECT_TRUE(res.cross_issues.empty())
      << name << ": " << res.cross_issues.front();

  for (const hls::ProfileReport& rep : res.reports) {
    EXPECT_TRUE(rep.ok) << name << " leg " << rep.source;
    EXPECT_EQ(rep.invocations, symbols) << name << " leg " << rep.source;
    EXPECT_TRUE(rep.bounds_checked) << name;
    EXPECT_TRUE(rep.bounds_respected) << name << " leg " << rep.source;
    EXPECT_GE(rep.measured_active_cycles,
              static_cast<long long>(res.bounds.min_latency_cycles))
        << name << " leg " << rep.source;
    if (rep.source == "rtl_sim") {
      // The rtl::Simulator executes the schedule model: measurements match
      // the predictions exactly, with no deviations of any kind.
      EXPECT_TRUE(rep.deviations.empty())
          << name << ": " << rep.deviations.front().what;
      EXPECT_EQ(rep.measured_active_cycles, rep.predicted_latency_cycles)
          << name;
      for (const auto& l : rep.loops) {
        EXPECT_EQ(l.measured_cycles, l.predicted_cycles)
            << name << " loop " << l.label;
        EXPECT_DOUBLE_EQ(l.measured_ii, l.predicted_ii)
            << name << " loop " << l.label;
      }
    } else {
      // The emitted FSM serializes pipelined iterations: legs measuring it
      // land on the emitted model, and any difference from the schedule
      // model must be EXPLAINED (flagged, not dropped, not failing).
      EXPECT_EQ(rep.measured_active_cycles, rep.emitted_latency_cycles)
          << name << " leg " << rep.source;
      for (const auto& d : rep.deviations)
        EXPECT_TRUE(d.explained)
            << name << " leg " << rep.source << ": " << d.what;
      for (const auto& l : rep.loops)
        EXPECT_EQ(l.measured_cycles, l.emitted_cycles)
            << name << " leg " << rep.source << " loop " << l.label;
    }
    // Iteration and memory-port counts are timing-model independent.
    for (const auto& l : rep.loops) {
      if (l.is_loop) {
        EXPECT_EQ(l.measured_iters, l.trip)
            << name << " leg " << rep.source << " loop " << l.label;
      }
    }
    for (const auto& m : rep.mem) {
      EXPECT_EQ(m.measured_reads, m.predicted_reads)
          << name << " leg " << rep.source << " array " << m.name;
      EXPECT_EQ(m.measured_writes, m.predicted_writes)
          << name << " leg " << rep.source << " array " << m.name;
    }
  }
  return res;
}

class ProfileAllArchitectures : public ::testing::TestWithParam<int> {};

TEST_P(ProfileAllArchitectures, MeasuredMatchesPredictedWithinModels) {
  const auto archs = qam::exploration_architectures();
  const auto& a = archs[static_cast<size_t>(GetParam())];
  run_profile(a.dir, a.name, 8);
}

std::string arch_name(const ::testing::TestParamInfo<int>& info) {
  auto n = qam::exploration_architectures()[static_cast<size_t>(info.param)]
               .name;
  std::string out;
  for (char c : n)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Exploration, ProfileAllArchitectures,
                         ::testing::Range(0, 9), arch_name);

TEST(ProfileRun, Table1Rows) {
  for (const auto& a : qam::table1_architectures())
    run_profile(a.dir, a.name, 6);
}

TEST(ProfileRun, RandomizedDirectiveSets) {
  // Random points from the DSE candidate space, same generator idiom as
  // the equivalence battery. Seeded for replay.
  const char* labels[] = {"ffe",       "dfe",       "ffe_adapt",
                          "dfe_adapt", "ffe_shift", "dfe_shift"};
  std::mt19937 rng(20260805);
  auto pick = [&](auto... v) {
    const int vals[] = {v...};
    return vals[rng() % (sizeof...(v))];
  };
  for (int cfg = 0; cfg < 4; ++cfg) {
    Directives dir;
    dir.clock_period_ns = pick(10, 10, 5);
    const bool merged = (rng() % 2) != 0;
    if (merged) dir.merge_groups = qam::default_merge_groups();
    for (const char* l : labels) {
      const int u = pick(1, 1, 2, 4);
      if (u > 1) dir.loops[l].unroll = u;
    }
    if (merged && (rng() % 2) != 0) {
      dir.loops["ffe"].pipeline_ii = 1;
      dir.loops["ffe_adapt"].pipeline_ii = 1;
      dir.loops["ffe"].unroll = 1;
      dir.loops["ffe_adapt"].unroll = 1;
      dir.loops["dfe"].unroll = 1;
      dir.loops["dfe_adapt"].unroll = 1;
    }
    run_profile(dir, "random#" + std::to_string(cfg), 5);
  }
}

TEST(ProfileRun, DivergentPipelineReportsSerializationAsExplained) {
  // The qam decoder's pipelined loops achieve ii == depth (the accumulator
  // recurrence), so the schedule and emitted timing models coincide there.
  // This recurrence-free pipelined scaler achieves II 1 at depth 2 under a
  // 5 ns clock — the schedule genuinely overlaps iterations, the emitted
  // FSM genuinely serializes them, and the profile loop must tell the two
  // apart: the rtl leg measures the schedule latency with no deviations,
  // the vsim legs measure the serialized latency with EXPLAINED deviations
  // (measured II above scheduled II, bubbles in the stall counters), and
  // the run as a whole still reconciles ok.
  hls::FunctionBuilder fb("scaler8");
  const int a =
      fb.add_array("a", 8, hls::fx(12, 0), false, hls::PortDir::kIn);
  const int c = fb.add_array("c", 8, hls::fx(12, 0), true);
  const int b =
      fb.add_array("b", 8, hls::fx(24, 2), false, hls::PortDir::kOut);
  {
    auto l = fb.loop("scale", 8);
    const int p = l.mul(l.array_read(a, {1, 0}), l.array_read(c, {1, 0}));
    const int q = l.mul(p, l.array_read(a, {1, 0}));
    l.array_write(b, {1, 0}, l.cast(hls::fx(24, 2), q));
  }
  const hls::Function f = fb.build();
  Directives dir;
  dir.clock_period_ns = 5;
  dir.loops["scale"].pipeline_ii = 1;

  std::mt19937_64 rng(20260808);
  std::vector<PortIo> vectors;
  for (int n = 0; n < 5; ++n) {
    PortIo io;
    auto& arr = io.arrays["a"];
    arr.resize(8);
    for (auto& v : arr) {
      v.fw = 12;  // fx(12, 0): the port's binary point
      v.re = static_cast<long long>(rng() % 4096) - 2048;
    }
    vectors.push_back(std::move(io));
  }
  const ProfileRunResult res =
      profile_run(f, dir, TechLibrary::asic90(), vectors);

  const auto& rs = res.synthesis.schedule.regions[0];
  ASSERT_GT(rs.ii, 0);
  ASSERT_LT(rs.ii, rs.body.cycles) << "schedule must genuinely overlap";

  EXPECT_TRUE(res.ok()) << res.to_json().dump(2);
  ASSERT_EQ(res.reports.size(), 3u);
  for (const hls::ProfileReport& rep : res.reports) {
    if (rep.source == "rtl_sim") {
      EXPECT_TRUE(rep.deviations.empty())
          << rep.deviations.front().what;
      EXPECT_EQ(rep.measured_active_cycles, rep.predicted_latency_cycles);
      continue;
    }
    EXPECT_EQ(rep.measured_active_cycles, rep.emitted_latency_cycles)
        << rep.source;
    EXPECT_GT(rep.emitted_latency_cycles, rep.predicted_latency_cycles)
        << rep.source;
    EXPECT_FALSE(rep.deviations.empty()) << rep.source;
    bool ii_flagged = false;
    for (const auto& d : rep.deviations) {
      EXPECT_TRUE(d.explained) << rep.source << ": " << d.what;
      ii_flagged = ii_flagged ||
                   d.what.find("measured II") != std::string::npos;
    }
    EXPECT_TRUE(ii_flagged) << rep.source;
    // The serialized bubbles show up in the stall counters.
    bool stalled = false;
    for (const auto& l : rep.loops)
      stalled = stalled || l.measured_stall > 0;
    EXPECT_TRUE(stalled) << rep.source;
  }
}

TEST(ProfileRun, ReportJsonRoundTripsWithEnvelope) {
  const qam::Architecture a = qam::table1_architectures()[0];
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 4);
  const std::string path =
      ::testing::TempDir() + "/profile_run_roundtrip.json";
  ProfileRunOptions opts;
  opts.report_path = path;
  const ProfileRunResult res = profile_run(
      qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(), vectors,
      opts);
  ASSERT_TRUE(res.ok());

  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr) << path;
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, fp)) > 0;)
    text.append(buf, n);
  std::fclose(fp);
  std::remove(path.c_str());

  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(text, &doc, &err)) << err;
  EXPECT_EQ(doc.find("tool")->as_string(), "hlsw.profile");
  EXPECT_EQ(doc.find("schema_version")->as_int(), 3);
  EXPECT_EQ(doc.find("ok")->as_bool(), true);
  EXPECT_EQ(doc.find("legs")->size(), 3u);
  EXPECT_EQ(doc.find("counter_map")->size(), res.counter_map.size());
  // Every leg embeds its raw counters and its reconciled report.
  for (std::size_t i = 0; i < doc.find("legs")->size(); ++i) {
    const obs::Json& leg = doc.find("legs")->at(i);
    EXPECT_NE(leg.find("source"), nullptr);
    EXPECT_EQ(leg.find("counters")->size(), res.counter_map.size());
    EXPECT_NE(leg.find("report")->find("deviations"), nullptr);
  }
}

TEST(ProfileRun, ReadbackMuxReturnsEveryCounterByIndex) {
  // With readback_mux on, real hardware reads the counters through
  // perf_sel/perf_rdata. Drive the mux in the simulated design and check
  // it returns exactly what the registers hold.
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                                    TechLibrary::asic90());
  hls::InstrumentOptions inst;
  inst.enabled = true;
  inst.readback_mux = true;
  const auto map = hls::instrument_map(r.transformed, r.schedule, inst);
  rtl::VerilogOptions vopts;
  vopts.instrument = inst;
  const std::string v = rtl::emit_verilog(r.transformed, r.schedule, vopts);
  PackedDutHarness dut(r.transformed, load_design(v, r.transformed.name), 1);

  LinkStimulus stim((LinkConfig()));
  dut.run_streams({qam::link_input_batch(&stim, 3)});

  const hls::CounterValues direct = dut.read_counters(map);
  EXPECT_GT(direct.values.at("perf_invocations"), 0);
  Simulation& sim = *dut.sim().simulation(0);
  for (const hls::PerfCounter& c : map) {
    sim.poke("perf_sel", static_cast<unsigned long long>(c.index));
    sim.settle();
    EXPECT_EQ(static_cast<long long>(sim.peek("perf_rdata")),
              direct.values.at(c.name))
        << c.name;
  }
}

// Stateless pipelined design + stimulus for the packed auto-selection
// tests: nothing written survives an invocation, so splitting the vector
// stream into per-lane blocks (each replayed from reset) is equivalent to
// one sequential replay — the precondition the packed compiled leg needs.
hls::Function build_scaler8() {
  hls::FunctionBuilder fb("scaler8");
  const int a =
      fb.add_array("a", 8, hls::fx(12, 0), false, hls::PortDir::kIn);
  const int c = fb.add_array("c", 8, hls::fx(12, 0), true);
  const int b =
      fb.add_array("b", 8, hls::fx(24, 2), false, hls::PortDir::kOut);
  {
    auto l = fb.loop("scale", 8);
    const int p = l.mul(l.array_read(a, {1, 0}), l.array_read(c, {1, 0}));
    const int q = l.mul(p, l.array_read(a, {1, 0}));
    l.array_write(b, {1, 0}, l.cast(hls::fx(24, 2), q));
  }
  return fb.build();
}

std::vector<PortIo> scaler8_vectors(int n) {
  std::mt19937_64 rng(20260808);
  std::vector<PortIo> vectors;
  for (int k = 0; k < n; ++k) {
    PortIo io;
    auto& arr = io.arrays["a"];
    arr.resize(8);
    for (auto& v : arr) {
      v.fw = 12;  // fx(12, 0): the port's binary point
      v.re = static_cast<long long>(rng() % 4096) - 2048;
    }
    vectors.push_back(std::move(io));
  }
  return vectors;
}

TEST(ProfileRun, PackedAutoSelectionMatchesScalarBitForBit) {
  const hls::Function f = build_scaler8();
  Directives dir;
  dir.clock_period_ns = 5;
  dir.loops["scale"].pipeline_ii = 1;
  const auto vectors = scaler8_vectors(8);

  ProfileRunOptions packed_opts;
  packed_opts.lanes = 4;
  const ProfileRunResult packed =
      profile_run(f, dir, TechLibrary::asic90(), vectors, packed_opts);
  const ProfileRunResult scalar =
      profile_run(f, dir, TechLibrary::asic90(), vectors);

  ASSERT_TRUE(scalar.ok()) << scalar.to_json().dump(2);
  // ok() on the packed run is the load-bearing assertion: it includes the
  // cross-leg check that the packed compiled leg's lane-SUMMED counters
  // agree bit for bit with the scalar event leg on every counter.
  ASSERT_TRUE(packed.ok()) << packed.to_json().dump(2);

  ASSERT_EQ(packed.counters.size(), 3u);
  // The packed leg prefers the generated lane-major engine when a host
  // toolchain exists and degrades to the interpreted tier otherwise.
  const std::string want_packed_backend =
      codegen_available() ? "packed_codegen" : "compiled";
  ASSERT_EQ(packed.leg_backends[2], want_packed_backend);
  EXPECT_EQ(packed.leg_lanes[2], 4);
  EXPECT_EQ(packed.leg_lanes[0], 1);
  EXPECT_EQ(packed.leg_lanes[1], 1);
  EXPECT_EQ(scalar.leg_lanes[2], 1);

  // Lane-summed counters equal the scalar sequential measurement exactly.
  ASSERT_EQ(scalar.leg_backends[2], "compiled");
  EXPECT_EQ(packed.counters[2].values, scalar.counters[2].values);

  bool noted = false;
  for (const std::string& n : packed.notes)
    noted = noted || n.find("auto-selected the packed backend") !=
                         std::string::npos;
  EXPECT_TRUE(noted);

  // The selection is surfaced in profile_run.json per leg.
  const obs::Json doc = packed.to_json();
  EXPECT_EQ(doc.find("schema_version")->as_int(), 3);
  const obs::Json& legs = *doc.find("legs");
  ASSERT_EQ(legs.size(), 3u);
  EXPECT_EQ(legs.at(2).find("lanes")->as_int(), 4);
  EXPECT_EQ(legs.at(0).find("lanes")->as_int(), 1);
}

TEST(ProfileRun, PackedAutoSelectionRequiresEnoughVectors) {
  const hls::Function f = build_scaler8();
  Directives dir;
  dir.clock_period_ns = 5;
  const auto vectors = scaler8_vectors(3);

  // Lane budget above the vector count: the compiled leg must stay scalar.
  ProfileRunOptions opts;
  opts.lanes = 8;
  const ProfileRunResult res =
      profile_run(f, dir, TechLibrary::asic90(), vectors, opts);
  ASSERT_TRUE(res.ok()) << res.to_json().dump(2);
  ASSERT_EQ(res.counters.size(), 3u);
  EXPECT_EQ(res.leg_backends[2], "compiled");
  EXPECT_EQ(res.leg_lanes[2], 1);
  for (const std::string& n : res.notes)
    EXPECT_EQ(n.find("auto-selected the packed backend"), std::string::npos)
        << n;
}

TEST(ProfileRun, LegSelectionIsHonored) {
  const qam::Architecture a = qam::table1_architectures()[0];
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 3);
  ProfileRunOptions opts;
  opts.run_vsim_event = false;
  opts.run_vsim_compiled = false;
  const ProfileRunResult res = profile_run(
      qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(), vectors,
      opts);
  ASSERT_EQ(res.counters.size(), 1u);
  EXPECT_EQ(res.counters[0].source, "rtl_sim");
  EXPECT_TRUE(res.ok());
}

}  // namespace
}  // namespace hlsw::vsim
