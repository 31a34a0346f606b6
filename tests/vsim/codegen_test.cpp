// Codegen-backend tests that REQUIRE a working host toolchain: the backend
// must actually run natively (no silent degradation to the compiled
// interpreter), the on-disk shared-object cache must hit when the same
// design fingerprint is rebuilt, and profile_run's opt-in codegen leg must
// record which backend executed. Registered under the `codegen` ctest
// label (CMake option HLSW_CODEGEN_TESTS, configure-time toolchain probe);
// each test also GTEST_SKIPs visibly if the toolchain disappeared between
// configure and run, so a toolchain-less machine never reports a silent
// pass. The cache directory is pointed at the build tree via
// HLSW_VSIM_CODEGEN_CACHE (set per test by ctest) and removed by a cleanup
// fixture, so test artifacts never leak into the user's tmp cache.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/parser.h"
#include "vsim/profile.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;

#define REQUIRE_TOOLCHAIN()                                              \
  do {                                                                   \
    if (!codegen_available())                                            \
      GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";    \
  } while (0)

hls::SynthesisResult synth_merge() {
  return hls::run_synthesis(qam::build_qam_decoder_ir(),
                            qam::table1_architectures()[0].dir,
                            TechLibrary::asic90());
}

TEST(VsimCodegen, BackendRunsNativelyAndMatchesGolden) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  SimConfig cfg;
  cfg.backend = Backend::kCodegen;
  DutHarness dut(r.transformed, design, cfg);
  ASSERT_STREQ(dut.sim().backend(), "codegen")
      << dut.sim().fallback_reason();
  EXPECT_TRUE(dut.sim().fallback_reason().empty());

  hls::Interpreter golden(r.transformed);
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 8);
  const auto want = golden.run_stream(vectors);
  const auto got = dut.run_stream(vectors);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].vars, want[i].vars) << "symbol " << i;
    EXPECT_EQ(got[i].arrays, want[i].arrays) << "symbol " << i;
  }
  // The generated engine keeps the interpreter's accounting contract.
  EXPECT_GT(dut.sim().stats().events, 0);
  EXPECT_GT(dut.sim().stats().nba_commits, 0);
}

TEST(VsimCodegen, GeneratedSourceIsSelfContained) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const std::string src = codegen_source(*plan);
  // The ABI the loader resolves, all emitted with C linkage.
  for (const char* sym : {"hlsw_cg_create", "hlsw_cg_destroy",
                          "hlsw_cg_poke", "hlsw_cg_peek",
                          "hlsw_cg_settle", "hlsw_cg_stats"})
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  EXPECT_NE(src.find("extern \"C\""), std::string::npos);
}

TEST(VsimCodegen, SharedObjectCacheHitsOnRebuiltFingerprint) {
  REQUIRE_TOOLCHAIN();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();

  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);

  // First build through the normal path (may compile or hit a prior run's
  // on-disk artifact — either way the module loads).
  {
    SimConfig cfg;
    cfg.backend = Backend::kCodegen;
    Simulation sim(load_design(verilog, r.transformed.name), cfg);
    ASSERT_STREQ(sim.backend(), "codegen") << sim.fallback_reason();
  }

  // A FRESH elaboration of the same text bypasses both the design cache
  // and the per-plan memo, so codegen_plan re-fingerprints — and must find
  // the .so on disk instead of invoking the toolchain again.
  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  auto fresh = elaborate(parse(verilog), r.transformed.name);
  std::string why;
  const auto mod = codegen_plan(fresh, &why);
  ASSERT_NE(mod, nullptr) << why;
  EXPECT_GE(m.counter_value("vsim.codegen.so_cache.hits"), hits0 + 1.0)
      << "rebuilt fingerprint missed the on-disk cache";
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0)
      << "rebuilt fingerprint re-invoked the toolchain";
  EXPECT_FALSE(mod->fingerprint.empty());
  EXPECT_FALSE(mod->so_path.empty());

  obs::set_enabled(was_enabled);
}

// The on-disk cache is shared between processes (parallel test lanes,
// several daemons on one host). Builders released at once on one cold
// fingerprint must each load a complete, verified module: none may compile
// a source another is rewriting, or load an object another is writing.
TEST(VsimCodegen, ConcurrentProcessesBuildOneFingerprint) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const auto design = load_design(rtl::emit_verilog(r.transformed, r.schedule),
                                  r.transformed.name);

  // A private cache directory keeps the fingerprint cold for every builder.
  const char* env = std::getenv("HLSW_VSIM_CODEGEN_CACHE");
  const std::string prev = env ? env : "";
  const std::filesystem::path dir =
      (prev.empty() ? std::filesystem::temp_directory_path()
                    : std::filesystem::path(prev)) /
      ("race-" + std::to_string(::getpid()));
  ::setenv("HLSW_VSIM_CODEGEN_CACHE", dir.c_str(), 1);

  constexpr int kBuilders = 6;
  int gate[2];
  ASSERT_EQ(::pipe(gate), 0);
  std::vector<pid_t> builders;
  for (int i = 0; i < kBuilders; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(gate[1]);
      char c;
      (void)!::read(gate[0], &c, 1);  // EOF once the parent opens the gate
      std::string why;
      const bool ok = codegen_plan(design, &why) != nullptr;
      if (!ok) std::fprintf(stderr, "builder %d: %s\n", i, why.c_str());
      std::_Exit(ok ? 0 : 1);
    }
    EXPECT_GT(pid, 0) << "fork failed";
    if (pid < 0) break;
    builders.push_back(pid);
  }
  ::close(gate[0]);
  ::close(gate[1]);  // release every builder at once
  for (const pid_t pid : builders) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a concurrent builder failed to load its module (see stderr)";
  }

  // What the builders installed also loads here.
  std::string why;
  EXPECT_NE(codegen_plan(design, &why), nullptr) << why;
  if (prev.empty())
    ::unsetenv("HLSW_VSIM_CODEGEN_CACHE");
  else
    ::setenv("HLSW_VSIM_CODEGEN_CACHE", prev.c_str(), 1);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(VsimCodegen, PackedGeneratedSourceIsSelfContained) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const std::string src = packed_codegen_source(*plan, 8);
  for (const char* sym :
       {"hlsw_cg_pk_lanes", "hlsw_cg_pk_create", "hlsw_cg_pk_destroy",
        "hlsw_cg_pk_poke", "hlsw_cg_pk_poke_plane", "hlsw_cg_pk_peek",
        "hlsw_cg_pk_nonzero", "hlsw_cg_pk_settle", "hlsw_cg_pk_stats"})
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  EXPECT_NE(src.find("constexpr int kL = 8;"), std::string::npos);
}

// The .so cache is keyed by a fingerprint over the generated text; the
// lane count and the packed-vs-scalar ABI are both part of that text, so
// one design at different lane counts (or scalar vs packed) must never
// alias to the same artifact in $HLSW_VSIM_CODEGEN_CACHE.
TEST(VsimCodegen, PackedFingerprintsDoNotCollideAcrossLanesOrAbi) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const auto scalar = codegen_plan(design, &why);
  ASSERT_NE(scalar, nullptr) << why;
  const auto pk4 = packed_codegen_plan(plan, 4, &why);
  ASSERT_NE(pk4, nullptr) << why;
  const auto pk8 = packed_codegen_plan(plan, 8, &why);
  ASSERT_NE(pk8, nullptr) << why;

  EXPECT_NE(pk4->fingerprint, pk8->fingerprint);
  EXPECT_NE(pk4->fingerprint, scalar->fingerprint);
  EXPECT_NE(pk8->fingerprint, scalar->fingerprint);
  EXPECT_NE(pk4->so_path, pk8->so_path);
  EXPECT_NE(pk4->so_path, scalar->so_path);
  EXPECT_EQ(pk4->lanes, 4);
  EXPECT_EQ(pk8->lanes, 8);

  // Re-requesting the same (plan, lanes) pair shares the memoized module.
  EXPECT_EQ(packed_codegen_plan(plan, 4, &why).get(), pk4.get());
}

TEST(VsimCodegen, PackedBackendRunsNativelyAndMatchesGolden) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  constexpr int kLanes = 4;
  PackedDutHarness dut(r.transformed, plan, kLanes, cfg);
  ASSERT_STREQ(dut.backend(), "packed_codegen") << dut.fallback_reason();
  EXPECT_TRUE(dut.fallback_reason().empty());

  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 8);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (std::size_t i = 0; i < vectors.size(); ++i)
    streams[i % kLanes].push_back(vectors[i]);
  const auto got = dut.run_streams(streams);

  hls::Interpreter golden(r.transformed);
  for (int l = 0; l < kLanes; ++l) {
    golden.reset();
    const auto want = golden.run_stream(streams[static_cast<std::size_t>(l)]);
    ASSERT_EQ(got[static_cast<std::size_t>(l)].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(l)][i].vars, want[i].vars)
          << "lane " << l << " symbol " << i;
      EXPECT_EQ(got[static_cast<std::size_t>(l)][i].arrays, want[i].arrays)
          << "lane " << l << " symbol " << i;
    }
  }
  EXPECT_GT(dut.sim().stats().events, 0);
  EXPECT_GT(dut.sim().stats().nba_commits, 0);
}

TEST(VsimCodegen, ProfileRunRecordsCodegenLegAndBackend) {
  REQUIRE_TOOLCHAIN();
  const qam::Architecture a = qam::table1_architectures()[0];
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 3);

  ProfileRunOptions opts;
  opts.run_rtl_sim = false;
  opts.run_vsim_event = false;
  opts.run_vsim_compiled = true;
  opts.run_vsim_codegen = true;
  const ProfileRunResult res =
      profile_run(qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(),
                  vectors, opts);
  EXPECT_TRUE(res.ok()) << (res.cross_issues.empty()
                                ? "leg deviation"
                                : res.cross_issues.front());
  ASSERT_EQ(res.leg_backends.size(), 2u);
  EXPECT_EQ(res.leg_backends[0], "compiled");
  EXPECT_EQ(res.leg_backends[1], "codegen");
  EXPECT_EQ(res.leg_fallbacks[1], "");

  // The serialized report names the backend per leg, so a downgrade would
  // be visible in profile_run.json, not only in counters.
  const std::string json = res.to_json().dump();
  EXPECT_NE(json.find("\"backend\":\"codegen\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fallback_reason\""), std::string::npos);
}

}  // namespace
}  // namespace hlsw::vsim
