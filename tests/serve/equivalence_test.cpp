// The daemon's core contract: a job submitted over the socket produces
// results BIT-IDENTICAL to calling the library directly in-process. Synth
// metrics, full DSE sweeps (sharded through the fair scheduler), cosim,
// verify and three-leg profile runs all round-trip through the wire codec
// and come back exactly equal — plus the codec's own exactness proof on
// extreme fixed-point raw values that a double-typed JSON number would
// silently corrupt.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unistd.h>
#include <vector>

#include "hls/dse.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/json.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "vsim/harness.h"
#include "vsim/profile.h"

namespace hlsw::serve {
namespace {

using obs::Json;

std::string test_socket(const std::string& name) {
  return "/tmp/hlsw_equiv_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

hls::Directives table1_merge_unroll2() {
  hls::Directives dir;
  dir.auto_merge = true;
  dir.loops["ffe"].unroll = 2;
  dir.loops["dfe"].unroll = 2;
  return dir;
}

std::vector<hls::PortIo> link_vectors(int symbols) {
  qam::LinkStimulus stim((qam::LinkConfig()));
  return qam::link_input_batch(&stim, symbols);
}

class EquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opts_.unix_path = test_socket(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    opts_.workers = 4;
    server_ = std::make_unique<Server>(opts_);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
    ASSERT_TRUE(client_.connect_unix(opts_.unix_path, &err)) << err;
  }
  void TearDown() override { server_->stop(); }

  // Sends the job and returns the `result` object, asserting ok.
  Json call_ok(const std::string& op, Json params) {
    Json resp;
    std::string err;
    EXPECT_TRUE(client_.call(op, std::move(params), &resp, &err)) << err;
    EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump(2);
    return *resp.find("result");
  }

  ServerOptions opts_;
  std::unique_ptr<Server> server_;
  Client client_;
};

// The codec itself must be exact where doubles are not: raw fixed-point
// components near the 128-bit extremes survive the round trip untouched.
TEST(WireCodec, VectorsRoundTripFullWidthRawValuesExactly) {
  const __int128 kInt128Min = static_cast<__int128>(1) << 127;
  std::vector<hls::PortIo> vectors(2);
  auto& arr = vectors[0].arrays["a"];
  arr.resize(4);
  arr[0] = {static_cast<__int128>(1) << 100, 0, 12, false};
  arr[1] = {kInt128Min, ~kInt128Min, 3, true};  // min and max
  arr[2] = {(static_cast<__int128>(1) << 53) + 1, 0, 0, false};  // > 2^53
  arr[3] = {-1, -1, 31, true};
  vectors[1].vars["gain"] = {9007199254740993ll, 0, 15, false};

  const Json j = vectors_to_json(vectors);
  // The double-hostile values must have gone out as strings.
  EXPECT_TRUE(
      j.at(0).find("arrays")->find("a")->at(2).find("re")->is_string());

  std::vector<hls::PortIo> back;
  std::string err;
  ASSERT_TRUE(vectors_from_json(j, &back, &err)) << err;
  ASSERT_EQ(back.size(), vectors.size());
  EXPECT_TRUE(back[0].arrays.at("a") == vectors[0].arrays.at("a"));
  EXPECT_TRUE(back[1].vars.at("gain") == vectors[1].vars.at("gain"));

  // And a second trip through TEXT (the actual wire) changes nothing.
  Json reparsed;
  ASSERT_TRUE(Json::parse(j.dump(), &reparsed, &err)) << err;
  std::vector<hls::PortIo> back2;
  ASSERT_TRUE(vectors_from_json(reparsed, &back2, &err)) << err;
  EXPECT_TRUE(back2[0].arrays.at("a") == vectors[0].arrays.at("a"));
}

// A clock that is not finite and positive never reaches the scheduler: a
// NaN budget never fits any op (placement grows without end) and an
// infinite one reports a latency of 0 ns.
TEST(WireCodec, DirectivesRefuseClocksThatAreNotFiniteAndPositive) {
  for (const double clock : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), 0.0,
                             -2.0}) {
    hls::Directives dir;
    std::string err;
    EXPECT_FALSE(directives_from_json(
        Json::object().set("clock_period_ns", clock), &dir, &err))
        << clock;
    EXPECT_NE(err.find("directives.clock_period_ns"), std::string::npos)
        << err;
  }
  hls::Directives dir;
  std::string err;
  EXPECT_TRUE(directives_from_json(
      Json::object().set("clock_period_ns", 2.5), &dir, &err))
      << err;
  EXPECT_EQ(dir.clock_period_ns, 2.5);
}

// Integers from a peer must be integral and inside the destination's
// range (plus the documented bounds): a cast of 1e30 is undefined, 2^32+2
// and 2.7 would silently become 2.
TEST(WireCodec, IntegersMustBeIntegralAndInRange) {
  const auto loops = [](const char* key, Json v) {
    return Json::object().set(
        "loops", Json::object().set("ffe", Json::object().set(key, v)));
  };
  struct Case {
    Json directives;
    const char* path;
  };
  const Case bad_dirs[] = {
      {loops("unroll", Json(1e30)), "directives.loops.ffe.unroll"},
      {loops("unroll", Json(4294967298.0)), "directives.loops.ffe.unroll"},
      {loops("unroll", Json(2.7)), "directives.loops.ffe.unroll"},
      {loops("unroll", Json("2")), "directives.loops.ffe.unroll"},
      {loops("pipeline_ii", Json(2147483647.0)),
       "directives.loops.ffe.pipeline_ii"},
      {loops("pipeline_ii", Json(65536.0)),
       "directives.loops.ffe.pipeline_ii"},
      {Json::object().set("max_real_multipliers", Json(-1e19)),
       "directives.max_real_multipliers"},
  };
  for (const Case& c : bad_dirs) {
    hls::Directives dir;
    std::string err;
    EXPECT_FALSE(directives_from_json(c.directives, &dir, &err))
        << c.directives.dump();
    EXPECT_EQ(err.rfind(c.path, 0), 0u) << err;
  }
  hls::Directives dir;
  std::string err;
  ASSERT_TRUE(directives_from_json(loops("pipeline_ii", Json(65535.0)), &dir,
                                   &err))
      << err;
  EXPECT_EQ(dir.loops.at("ffe").pipeline_ii, 65535);

  const auto value = [](double fw) {
    return Json::object().set("re", "5").set("fw", fw);
  };
  hls::FxValue fx;
  for (const double fw : {64.0, -64.0, 1e30, 3.5}) {
    EXPECT_FALSE(fxvalue_from_json(value(fw), &fx, &err)) << fw;
    EXPECT_EQ(err.rfind("value.fw", 0), 0u) << err;
  }
  ASSERT_TRUE(fxvalue_from_json(value(-63), &fx, &err)) << err;
  EXPECT_EQ(fx.fw, -63);

  Json long_axis = Json::array();
  for (int i = 0; i < 65; ++i) long_axis.push(i + 1);
  Json full_axis = Json::array();
  for (int i = 0; i < 64; ++i) full_axis.push(i + 1);
  const Case bad_opts[] = {
      {Json::object().set("unroll_factors", long_axis),
       "options.unroll_factors"},
      {Json::object().set("pipeline_iis", long_axis), "options.pipeline_iis"},
      {Json::object().set("pipeline_iis", Json::array().push(65536)),
       "options.pipeline_iis[0]"},
      {Json::object().set("unroll_factors", Json::array().push(2).push(1e30)),
       "options.unroll_factors[1]"},
      {Json::object().set("max_configs", 2.5), "options.max_configs"},
  };
  for (const Case& c : bad_opts) {
    hls::DseOptions o;
    EXPECT_FALSE(dse_options_from_json(&c.directives, &o, &err))
        << c.directives.dump();
    EXPECT_EQ(err.rfind(c.path, 0), 0u) << err;
  }
  hls::DseOptions o;
  const Json ok_opts = Json::object()
                           .set("unroll_factors", full_axis)
                           .set("pipeline_iis", full_axis);
  ASSERT_TRUE(dse_options_from_json(&ok_opts, &o, &err)) << err;
  EXPECT_EQ(o.unroll_factors.size(), 64u);

  for (const Json& bad : {Json::object().set("block_size", 0),
                          Json::object().set("block_size", 2.5),
                          Json::object().set("mismatch_limit", -1)}) {
    hls::CosimOptions co;
    EXPECT_FALSE(cosim_options_from_json(&bad, &co, &err)) << bad.dump();
    EXPECT_EQ(err.rfind("options.", 0), 0u) << err;
  }
  // cosim and verify take no lane count, so a huge one is refused as the
  // unknown key it is, not range-checked.
  const Json huge_lanes = Json::object().set("lanes", 1e30);
  hls::CosimOptions co;
  EXPECT_FALSE(cosim_options_from_json(&huge_lanes, &co, &err));
  EXPECT_NE(err.find("'lanes'"), std::string::npos) << err;
}

// cosim and verify run one lane whatever they are asked: a lane count is
// an unknown option key, refused like any other, and never silently
// ignored.
TEST(WireCodec, CosimOptionsRefuseALaneCount) {
  std::string err;
  hls::CosimOptions co;
  const Json lanes = Json::object().set("block_size", 4).set("lanes", 8);
  EXPECT_FALSE(cosim_options_from_json(&lanes, &co, &err));
  EXPECT_EQ(err, "options: unknown key 'lanes'");
  const Json ok = Json::object().set("block_size", 4).set("mismatch_limit", 2);
  ASSERT_TRUE(cosim_options_from_json(&ok, &co, &err)) << err;
  EXPECT_EQ(co.block_size, 4u);
  EXPECT_EQ(co.mismatch_limit, 2u);
  EXPECT_EQ(co.lanes, 1);
}

TEST_F(EquivalenceTest, SynthMetricsMatchDirectCallExactly) {
  const hls::Directives dir = table1_merge_unroll2();
  const hls::SynthesisResult direct = hls::run_synthesis(
      qam::build_qam_decoder_ir(), dir, hls::TechLibrary::asic90());

  const Json result = call_ok("synth", Json::object()
                                           .set("design", "qam_decoder")
                                           .set("directives",
                                                directives_to_json(dir)));
  EXPECT_EQ(result.find("latency_cycles")->as_int(), direct.latency_cycles());
  // Json prints doubles with shortest-round-trip precision, so exact
  // equality is the honest assertion, not a tolerance.
  EXPECT_EQ(result.find("latency_ns")->as_double(), direct.latency_ns());
  EXPECT_EQ(result.find("area")->as_double(), direct.area.total);

  // emit_verilog returns the same text rtl::emit_verilog produces.
  const Json with_v = call_ok("synth", Json::object()
                                           .set("design", "qam_decoder")
                                           .set("directives",
                                                directives_to_json(dir))
                                           .set("emit_verilog", true));
  EXPECT_EQ(with_v.find("verilog")->as_string(),
            rtl::emit_verilog(direct.transformed, direct.schedule));
}

TEST_F(EquivalenceTest, DseSweepShardedThroughTheSchedulerIsBitIdentical) {
  hls::DseOptions o;
  o.unroll_factors = {1, 2};
  o.pipeline_iis = {0, 1};
  const hls::DseResult direct =
      hls::explore(qam::build_qam_decoder_ir(), o, hls::TechLibrary::asic90());
  const Json direct_json = hls::dse_run_json(direct, o, 0.0);

  const Json options = Json::object()
                           .set("unroll_factors", Json::array().push(1).push(2))
                           .set("pipeline_iis", Json::array().push(0).push(1));
  const Json served = call_ok("dse", Json::object()
                                         .set("design", "qam_decoder")
                                         .set("options", options));

  // Everything except wall-clock must match field for field: the sweep was
  // sharded into fair-scheduled units across 4 workers, yet enumeration
  // order, prune decisions, cache counters and the Pareto front are the
  // serial path's exactly.
  for (const char* key :
       {"points", "pareto_front", "pruned", "cache_hits", "cache_misses",
        "pruned_infeasible", "schema_version"}) {
    ASSERT_NE(served.find(key), nullptr) << key;
    ASSERT_NE(direct_json.find(key), nullptr) << key;
    EXPECT_EQ(served.find(key)->dump(), direct_json.find(key)->dump()) << key;
  }
  EXPECT_EQ(served.find("schema_version")->as_int(), 4);
  EXPECT_EQ(served.find("seed"), nullptr);

  // A repeat of the same sweep is served WARM from the shared cache: zero
  // new schedules, identical points.
  const Json warm = call_ok("dse", Json::object()
                                       .set("design", "qam_decoder")
                                       .set("options", options));
  EXPECT_EQ(warm.find("points")->dump(), direct_json.find("points")->dump());
  EXPECT_EQ(warm.find("cache_misses")->as_int(), 0) << warm.dump(2);
}

TEST_F(EquivalenceTest, CosimAndVerifyMatchDirectCalls) {
  const hls::Directives dir = table1_merge_unroll2();
  const std::vector<hls::PortIo> vectors = link_vectors(20);
  const hls::SynthesisResult r = hls::run_synthesis(
      qam::build_qam_decoder_ir(), dir, hls::TechLibrary::asic90());

  hls::CosimOptions copt;
  copt.block_size = vectors.size();
  auto golden = [&r] {
    auto interp = std::make_shared<hls::Interpreter>(r.transformed);
    return [interp](const std::vector<hls::PortIo>& v) {
      return interp->run_stream(v);
    };
  };
  auto dut = [&r] {
    auto sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule);
    return [sim](const std::vector<hls::PortIo>& v) {
      return sim->run_stream(v);
    };
  };
  const Json direct_cosim =
      cosim_result_to_json(hls::cosim_sweep(golden, dut, vectors, copt));

  const Json params = Json::object()
                          .set("design", "qam_decoder")
                          .set("directives", directives_to_json(dir))
                          .set("vectors", vectors_to_json(vectors));
  const Json served_cosim = call_ok("cosim", params);
  EXPECT_EQ(served_cosim.dump(), direct_cosim.dump());
  EXPECT_TRUE(served_cosim.find("ok")->as_bool()) << served_cosim.dump(2);

  const vsim::VerifyEmittedResult direct_verify =
      vsim::verify_emitted(r.transformed, r.schedule, vectors, copt);
  const Json served_verify = call_ok("verify", params);
  EXPECT_EQ(served_verify.find("ok")->as_bool(), direct_verify.ok());
  EXPECT_EQ(served_verify.find("cosim")->dump(),
            cosim_result_to_json(direct_verify.cosim).dump());
  EXPECT_EQ(served_verify.find("testbench")->find("passed")->as_bool(),
            direct_verify.testbench.passed);
  EXPECT_EQ(served_verify.find("lint_issues")->size(),
            direct_verify.lint_issues.size());
}

TEST_F(EquivalenceTest, ProfileRunMatchesDirectCallDocumentForDocument) {
  const hls::Directives dir = table1_merge_unroll2();
  const std::vector<hls::PortIo> vectors = link_vectors(6);
  const Json direct =
      vsim::profile_run(qam::build_qam_decoder_ir(), dir,
                        hls::TechLibrary::asic90(), vectors)
          .to_json();

  const Json served = call_ok("profile", Json::object()
                                             .set("design", "qam_decoder")
                                             .set("directives",
                                                  directives_to_json(dir))
                                             .set("vectors",
                                                  vectors_to_json(vectors)));
  // profile_run.json carries no wall-clock fields: the whole document —
  // predictions, measured counters, deviations, cross-leg checks — must be
  // byte-identical after a trip through the wire.
  EXPECT_EQ(served.dump(), direct.dump());
}

}  // namespace
}  // namespace hlsw::serve
