// End-to-end observability smoke test: a tracing-enabled explore() on the
// paper's QAM decoder IR must produce (a) a trace whose per-candidate and
// per-synthesis event totals equal the DseResult's memoization counters,
// (b) a Chrome trace_event JSON artifact with the record shape Perfetto
// loads, and (c) a dse_run.json structured report consistent with the
// in-memory result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "hls/dse.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"

namespace hlsw::hls {
namespace {

class trace_smoke : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::TraceSession::instance().clear();
    obs::MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::TraceSession::instance().clear();
    obs::MetricsRegistry::instance().reset();
  }

  static std::string read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f) return {};
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  }
};

DseResult explore_decoder(unsigned threads, const std::string& report_path = "") {
  DseOptions opts;
  opts.threads = threads;
  opts.unroll_factors = {1, 2};
  opts.report_path = report_path;
  return explore(qam::build_qam_decoder_ir(), opts, TechLibrary::asic90());
}

TEST_F(trace_smoke, SpanAndCounterTotalsMatchCacheCounters) {
  for (unsigned threads : {1u, 4u}) {
    obs::TraceSession::instance().clear();
    const DseResult r = explore_decoder(threads);
    ASSERT_FALSE(r.points.empty());

    std::size_t candidates = 0, synth_spans = 0;
    double last_hits = -1, last_misses = -1;
    for (const auto& e : obs::TraceSession::instance().snapshot()) {
      if (e.cat == "dse.candidate") ++candidates;
      if (e.cat == "dse.synth") ++synth_spans;
      if (e.name == "dse.cache_hits") last_hits = e.value;
      if (e.name == "dse.cache_misses") last_misses = e.value;
    }
    // One candidate event per cache resolution, one synth span per schedule
    // actually run — the invariant the acceptance criterion names.
    EXPECT_EQ(candidates, r.cache_hits + r.cache_misses)
        << "threads=" << threads;
    EXPECT_EQ(synth_spans, r.cache_misses) << "threads=" << threads;
    EXPECT_EQ(last_hits, static_cast<double>(r.cache_hits));
    EXPECT_EQ(last_misses, static_cast<double>(r.cache_misses));
  }
}

TEST_F(trace_smoke, WorkerSynthSpansLandOnWorkerTids) {
  const DseResult r = explore_decoder(4);
  const auto events = obs::TraceSession::instance().snapshot();
  // The calling thread registered first (it opened the "explore" span), so
  // pooled synthesis spans must carry other tids.
  std::uint32_t caller_tid = 0;
  for (const auto& e : events)
    if (e.name == "explore" && e.cat == "dse") caller_tid = e.tid;
  ASSERT_NE(caller_tid, 0u);
  std::size_t synth_spans = 0, off_caller = 0;
  for (const auto& e : events)
    if (e.cat == "dse.synth") {
      ++synth_spans;
      if (e.tid != caller_tid) ++off_caller;
    }
  EXPECT_EQ(synth_spans, r.cache_misses);
  EXPECT_EQ(off_caller, synth_spans) << "synth ran on the calling thread";
}

TEST_F(trace_smoke, ChromeTraceArtifactIsPerfettoLoadable) {
  const DseResult r = explore_decoder(2);
  const std::string path = ::testing::TempDir() + "trace_smoke_chrome.json";
  ASSERT_TRUE(obs::TraceSession::instance().write_chrome_trace(path));

  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(read_file(path), &doc, &err)) << err;
  std::remove(path.c_str());

  const obs::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  std::size_t candidates = 0, synth_spans = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    // Minimum record shape Perfetto/about:tracing requires.
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") continue;
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const obs::Json* cat = e.find("cat");
    if (ph == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
    if (ph == "i" && cat && cat->as_string() == "dse.candidate") ++candidates;
    if (ph == "X" && cat && cat->as_string() == "dse.synth") ++synth_spans;
  }
  // The exported artifact carries the same totals as the live session.
  EXPECT_EQ(candidates, r.cache_hits + r.cache_misses);
  EXPECT_EQ(synth_spans, r.cache_misses);
}

TEST_F(trace_smoke, DseRunReportMatchesResult) {
  const std::string path = ::testing::TempDir() + "trace_smoke_dse_run.json";
  const DseResult r = explore_decoder(2, path);

  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(read_file(path), &doc, &err)) << err;
  std::remove(path.c_str());

  EXPECT_EQ(doc.find("tool")->as_string(), "hlsw.dse");
  EXPECT_EQ(doc.find("schema_version")->as_int(), 4);
  EXPECT_EQ(doc.find("threads")->as_int(), 2);
  EXPECT_GT(doc.find("wall_ms")->as_double(), 0.0);
  EXPECT_EQ(doc.find("cache_hits")->as_int(),
            static_cast<long long>(r.cache_hits));
  EXPECT_EQ(doc.find("cache_misses")->as_int(),
            static_cast<long long>(r.cache_misses));
  EXPECT_EQ(doc.find("seed"), nullptr);

  const obs::Json* points = doc.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), r.points.size());
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const obs::Json& p = points->at(i);
    EXPECT_EQ(p.find("name")->as_string(), r.points[i].name);
    EXPECT_EQ(p.find("latency_cycles")->as_int(), r.points[i].latency_cycles);
    EXPECT_EQ(p.find("area")->as_double(), r.points[i].area);
    EXPECT_EQ(p.find("pareto")->as_bool(), r.points[i].pareto);
  }

  const obs::Json* front = doc.find("pareto_front");
  ASSERT_NE(front, nullptr);
  const auto expect_front = r.pareto_front();
  ASSERT_EQ(front->size(), expect_front.size());
  for (std::size_t i = 0; i < expect_front.size(); ++i)
    EXPECT_EQ(front->at(i).as_string(), expect_front[i]->name);
}

TEST_F(trace_smoke, DisabledTracingRecordsNoDseEvents) {
  obs::set_enabled(false);
  const DseResult r = explore_decoder(2);
  ASSERT_FALSE(r.points.empty());
  EXPECT_EQ(obs::TraceSession::instance().event_count(), 0u);
}

}  // namespace
}  // namespace hlsw::hls
