// Every StructuredReport producer in the repo must emit a document that
// strict-parses back through obs::Json and carries the {tool,
// schema_version} envelope: dse_run.json (hls::explore), the rtl
// simulator's sim_stats_json, the bench harness artifact (bench_main.h)
// and the profile_run.json of the instrumentation loop. A producer whose
// output the repo's own parser rejects is a broken artifact, found here
// instead of in a downstream dashboard.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../../bench/bench_main.h"
#include "hls/dse.h"
#include "hls/report.h"
#include "obs/json.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "vsim/profile.h"

namespace hlsw {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) return "";
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, fp)) > 0;)
    text.append(buf, n);
  std::fclose(fp);
  return text;
}

// Strict-parses `text` and checks the report envelope; returns the parsed
// document for producer-specific assertions.
obs::Json parse_enveloped(const std::string& text, const std::string& tool,
                          long long schema_version) {
  obs::Json doc;
  std::string err;
  EXPECT_TRUE(obs::Json::parse(text, &doc, &err)) << err;
  EXPECT_TRUE(doc.is_object());
  const obs::Json* t = doc.find("tool");
  const obs::Json* v = doc.find("schema_version");
  EXPECT_NE(t, nullptr);
  EXPECT_NE(v, nullptr);
  if (t != nullptr) {
    EXPECT_EQ(t->as_string(), tool);
  }
  if (v != nullptr) {
    EXPECT_EQ(v->as_int(), schema_version);
  }
  return doc;
}

TEST(ReportRoundtrip, DseRunJson) {
  const std::string path = ::testing::TempDir() + "/roundtrip_dse_run.json";
  hls::DseOptions opts;
  opts.unroll_factors = {1, 2};
  opts.threads = 1;
  opts.report_path = path;
  const auto r =
      hls::explore(qam::build_qam_decoder_ir(), opts, hls::TechLibrary::asic90());
  ASSERT_FALSE(r.points.empty());
  const obs::Json doc = parse_enveloped(slurp(path), "hlsw.dse", 3);
  std::remove(path.c_str());
  const obs::Json* points = doc.find("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->size(), r.points.size());
}

TEST(ReportRoundtrip, SimStatsJson) {
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(),
                                    qam::table1_architectures()[0].dir,
                                    hls::TechLibrary::asic90());
  rtl::Simulator sim(r.transformed, r.schedule);
  qam::LinkStimulus stim((qam::LinkConfig()));
  sim.run_stream(qam::link_input_batch(&stim, 3));
  const obs::Json doc =
      parse_enveloped(sim_stats_json(sim).dump(2), "hlsw.rtl_sim", 2);
  EXPECT_NE(doc.find("regions"), nullptr);
  EXPECT_NE(doc.find("arrays"), nullptr);
}

TEST(ReportRoundtrip, BenchArtifactJson) {
  const std::string path = ::testing::TempDir() + "/roundtrip_bench.json";
  {
    // Simulate the flag-parsed entry: --json <path> --metrics, so the
    // artifact embeds the MetricsRegistry snapshot alongside the timings.
    std::string a0 = "prog", a1 = "--json", a2 = path, a3 = "--metrics";
    char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};
    int argc = 4;
    bench::Harness h("roundtrip", &argc, argv);
    EXPECT_EQ(argc, 1) << "harness flags must be stripped";
    EXPECT_TRUE(h.embed_metrics());
    h.measure("busy_work", [] {
      volatile int x = 0;
      for (int i = 0; i < 1000; ++i) x = x + i;
    });
    h.note("answer", 42);
    h.write();
  }
  const obs::Json doc = parse_enveloped(slurp(path), "hlsw.bench", 1);
  std::remove(path.c_str());
  const obs::Json* m = doc.find("measurements");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->find("busy_work"), nullptr);
  EXPECT_NE(m->find("busy_work")->find("min_ms"), nullptr);
  EXPECT_NE(doc.find("metrics"), nullptr)
      << "--metrics must embed the registry snapshot";
  const obs::Json* machine = doc.find("machine");
  ASSERT_NE(machine, nullptr);
  for (const char* key : {"nproc", "compiler", "build_type", "git_sha"})
    EXPECT_NE(machine->find(key), nullptr) << key;
}

TEST(ReportRoundtrip, BenchArtifactOmitsMetricsByDefault) {
  const std::string path =
      ::testing::TempDir() + "/roundtrip_bench_plain.json";
  {
    std::string a0 = "prog", a1 = "--json", a2 = path;
    char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    int argc = 3;
    bench::Harness h("roundtrip_plain", &argc, argv);
    EXPECT_FALSE(h.embed_metrics());
    h.write();
  }
  const obs::Json doc = parse_enveloped(slurp(path), "hlsw.bench", 1);
  std::remove(path.c_str());
  EXPECT_EQ(doc.find("metrics"), nullptr);
}

TEST(ReportRoundtrip, ProfileRunJson) {
  const std::string path =
      ::testing::TempDir() + "/roundtrip_profile_run.json";
  qam::LinkStimulus stim((qam::LinkConfig()));
  vsim::ProfileRunOptions opts;
  opts.report_path = path;
  const auto res = vsim::profile_run(
      qam::build_qam_decoder_ir(), qam::table1_architectures()[0].dir,
      hls::TechLibrary::asic90(), qam::link_input_batch(&stim, 3), opts);
  ASSERT_TRUE(res.ok());
  const obs::Json doc = parse_enveloped(slurp(path), "hlsw.profile", 3);
  std::remove(path.c_str());
  EXPECT_NE(doc.find("counter_map"), nullptr);
  EXPECT_NE(doc.find("legs"), nullptr);
  EXPECT_NE(doc.find("feasibility"), nullptr);
}

}  // namespace
}  // namespace hlsw
