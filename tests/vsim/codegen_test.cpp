// Codegen-backend tests that REQUIRE a working host toolchain: the native
// engine must actually run (no silent degradation to the compiled
// interpreter), the on-disk shared-object cache must hit when the same
// design fingerprint is rebuilt and must rebuild when its stored source or
// the toolchain identity differs, and profile_run's opt-in codegen leg must
// record which backend executed. Registered under the `codegen` ctest
// label (CMake option HLSW_CODEGEN_TESTS, configure-time toolchain probe);
// each test also GTEST_SKIPs visibly if the toolchain disappeared between
// configure and run, so a toolchain-less machine never reports a silent
// pass. The cache directory is pointed at the build tree via
// HLSW_VSIM_CODEGEN_CACHE (set per test by ctest) and removed by a cleanup
// fixture, so test artifacts never leak into the user's tmp cache. Tests
// that tamper with the cache or race builders use a private subdirectory;
// the default-cache trust tests point TMPDIR at a scratch directory.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
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
#include "vsim/pack.h"
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

// A two-register DUT: cheap to generate and compile.
const char* kSmallSrc = R"(
module small(input wire clk, input wire [7:0] x, output reg [7:0] q);
  always @(posedge clk) q <= q + x;
endmodule
)";

// A fresh elaboration of `verilog` bypasses the design cache, so its plan
// is new and holds no module: packed_codegen_plan re-fingerprints it.
std::shared_ptr<const CompiledDesign> fresh_plan(const std::string& verilog,
                                                 const std::string& top) {
  return compiled_plan(elaborate(parse(verilog), top), nullptr);
}

// Sets one environment variable for a scope, restoring it afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, prev_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string prev_;
};

// Points HLSW_VSIM_CODEGEN_CACHE at a private subdirectory for one test
// (cold for every fingerprint, invisible to concurrently running tests)
// and removes it on scope exit.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& tag)
      : dir_(base() / (tag + "-" + std::to_string(::getpid()))),
        env_("HLSW_VSIM_CODEGEN_CACHE", dir_.c_str()) {}
  ~ScopedCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  static std::filesystem::path base() {
    const char* env = std::getenv("HLSW_VSIM_CODEGEN_CACHE");
    return env != nullptr && *env != 0
               ? std::filesystem::path(env)
               : std::filesystem::temp_directory_path();
  }
  std::filesystem::path dir_;
  ScopedEnv env_;
};

// Leaves HLSW_VSIM_CODEGEN_CACHE empty, so codegen uses its default cache,
// and points TMPDIR at a fresh scratch directory for one test, so that
// default is <scratch>/hlsw-vsim-codegen-<euid> and holds only what the
// test planted there.
class ScopedDefaultCache {
 public:
  ScopedDefaultCache()
      : scratch_(make_scratch()),
        tmpdir_("TMPDIR", scratch_.c_str()),
        cache_env_("HLSW_VSIM_CODEGEN_CACHE", "") {}
  ~ScopedDefaultCache() {
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }
  const std::filesystem::path& scratch() const { return scratch_; }
  std::filesystem::path dir() const {
    return scratch_ / ("hlsw-vsim-codegen-" + std::to_string(::geteuid()));
  }

 private:
  static std::filesystem::path make_scratch() {
    std::string t =
        (std::filesystem::temp_directory_path() / "hlsw-tmpdir-XXXXXX")
            .string();
    if (::mkdtemp(t.data()) == nullptr) ADD_FAILURE() << "mkdtemp failed";
    return t;
  }
  std::filesystem::path scratch_;
  ScopedEnv tmpdir_;
  ScopedEnv cache_env_;
};

// The default cache at `dir` must be refused before anything is read from
// or written to it: packed_codegen_plan fails naming the path, and
// Simulation falls back to the compiled interpreter exactly as it does
// without a toolchain.
void expect_cache_refused(const std::filesystem::path& dir) {
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  std::string why;
  EXPECT_EQ(
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why),
      nullptr);
  EXPECT_NE(why.find("untrusted codegen cache " + dir.string()),
            std::string::npos)
      << why;
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  std::string reason;
  const auto engine = make_packed_engine(
      load_design(verilog, r.transformed.name), 1, cfg, &reason);
  EXPECT_STREQ(engine->backend(), "compiled");
  EXPECT_EQ(reason.rfind("packed-codegen: ", 0), 0u) << reason;
  EXPECT_NE(reason.find(dir.string()), std::string::npos) << reason;
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "wrote into " << dir;
}

std::string read_text(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(VsimCodegen, BackendRunsNativelyAndMatchesGolden) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  PackedDutHarness dut(r.transformed, design, 1, cfg);
  ASSERT_STREQ(dut.backend(), "packed_codegen") << dut.fallback_reason();
  EXPECT_TRUE(dut.fallback_reason().empty());

  hls::Interpreter golden(r.transformed);
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 8);
  const auto want = golden.run_stream(vectors);
  const auto got = dut.run_streams({vectors}).front();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].vars, want[i].vars) << "symbol " << i;
    EXPECT_EQ(got[i].arrays, want[i].arrays) << "symbol " << i;
  }
  // The generated engine keeps the interpreter's accounting contract.
  EXPECT_GT(dut.sim().stats().events, 0);
  EXPECT_GT(dut.sim().stats().nba_commits, 0);
}

// The default path never invokes the host compiler: a kAuto one-lane
// harness runs the compiled interpreter, and so does verify_emitted, even
// with a cold private cache where any native engine would compile.
TEST(VsimCodegen, DefaultOneLaneHarnessAndVerifyNeverCompile) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("default-no-compile");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 4);

  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const double loads0 = m.counter_value("vsim.codegen.so_cache.hits") +
                        m.counter_value("vsim.codegen.so_cache.misses");
  {
    // A fresh elaboration: no earlier plan or module can answer.
    PackedDutHarness dut(r.transformed,
                         elaborate(parse(verilog), r.transformed.name), 1);
    EXPECT_STREQ(dut.backend(), "compiled") << dut.fallback_reason();
    EXPECT_EQ(dut.fallback_reason(), "");
    EXPECT_EQ(dut.run_streams({vectors}).front().size(), vectors.size());
  }
  const VerifyEmittedResult ve =
      verify_emitted(r.transformed, r.schedule, vectors);
  EXPECT_TRUE(ve.ok());
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0);
  EXPECT_EQ(m.counter_value("vsim.codegen.so_cache.hits") +
                m.counter_value("vsim.codegen.so_cache.misses"),
            loads0);
  obs::set_enabled(was_enabled);
}

// A plan and its modules live exactly as long as their Design: dropping a
// fresh elaboration frees both at once. Elaborating the same text again
// builds a new plan, whose engine loads the object from disk.
TEST(VsimCodegen, ModuleMemoReleasesDroppedPlans) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("memo-release");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  std::string why;
  std::weak_ptr<const CompiledDesign> plan;
  std::weak_ptr<const PackedCodegenModule> mod;
  {
    const auto p = fresh_plan(kSmallSrc, "small");
    ASSERT_NE(p, nullptr);
    const auto m1 = packed_codegen_plan(p, 1, &why);
    ASSERT_NE(m1, nullptr) << why;
    plan = p;
    mod = m1;
  }
  EXPECT_TRUE(plan.expired()) << "a plan outlived its design";
  EXPECT_TRUE(mod.expired()) << "a module outlived its design";

  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  ASSERT_NE(packed_codegen_plan(fresh_plan(kSmallSrc, "small"), 1, &why),
            nullptr)
      << why;
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0);
  EXPECT_EQ(m.counter_value("vsim.codegen.so_cache.hits"), hits0 + 1.0);
  obs::set_enabled(was_enabled);
}

// The one-lane engine Simulation runs: the whole ABI with C linkage,
// nothing but standard headers, and no per-ISA clones (every object is
// compiled once, for the loading CPU).
TEST(VsimCodegen, GeneratedSourceIsSelfContained) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const std::string src = packed_codegen_source(*plan, 1);
  for (const char* sym :
       {"hlsw_cg_abi", "hlsw_cg_pk_lanes", "hlsw_cg_pk_create",
        "hlsw_cg_pk_destroy", "hlsw_cg_pk_poke", "hlsw_cg_pk_poke_plane",
        "hlsw_cg_pk_peek", "hlsw_cg_pk_peek_elem", "hlsw_cg_pk_nonzero",
        "hlsw_cg_pk_settle", "hlsw_cg_pk_stats"})
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  EXPECT_NE(src.find("extern \"C\""), std::string::npos);
  EXPECT_NE(src.find("constexpr int kL = 1;"), std::string::npos);
  EXPECT_EQ(src.find("target_clones"), std::string::npos);
  std::istringstream lines(src);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("#include", 0) != 0) continue;
    EXPECT_TRUE(line == "#include <cstddef>" || line == "#include <cstdint>" ||
                line == "#include <vector>")
        << line;
  }
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
    cfg.backend = Backend::kPackedCodegen;
    std::string why;
    const auto engine = make_packed_engine(
        load_design(verilog, r.transformed.name), 1, cfg, &why);
    ASSERT_STREQ(engine->backend(), "packed_codegen") << why;
  }

  // A fresh plan must find the .so on disk instead of invoking the
  // toolchain again.
  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  std::string why;
  const auto mod =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(mod, nullptr) << why;
  EXPECT_GE(m.counter_value("vsim.codegen.so_cache.hits"), hits0 + 1.0)
      << "rebuilt fingerprint missed the on-disk cache";
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0)
      << "rebuilt fingerprint re-invoked the toolchain";
  EXPECT_FALSE(mod->fingerprint.empty());
  EXPECT_FALSE(mod->so_path.empty());

  obs::set_enabled(was_enabled);
}

// A cached object is reused only when the stored source equals, in full,
// the text about to be compiled: an entry whose <fp>.cpp differs (a 64-bit
// fingerprint collision, or tampering) is rebuilt, never loaded.
TEST(VsimCodegen, StoredSourceMismatchForcesRebuild) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("planted");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();

  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  std::string why;
  const auto first =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(first, nullptr) << why;
  const std::filesystem::path cpp =
      cache.dir() / (first->fingerprint + ".cpp");
  const std::string built = read_text(cpp);
  ASSERT_FALSE(built.empty());
  {
    std::ofstream f(cpp, std::ios::trunc);
    f << "// planted: not the source this object was built from\n";
  }

  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const auto again =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(again, nullptr) << why;
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0 + 1.0)
      << "a mismatched stored source was trusted";
  EXPECT_EQ(m.counter_value("vsim.codegen.so_cache.hits"), hits0);
  EXPECT_EQ(again->fingerprint, first->fingerprint);
  EXPECT_EQ(read_text(cpp), built) << "rebuild did not restore the source";

  obs::set_enabled(was_enabled);
}

// The fingerprint keys on the toolchain identity, not only the generated
// text: the same plan built by a compiler answering --version differently
// must land in a different cache entry.
TEST(VsimCodegen, FingerprintCoversToolchainIdentity) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("wrapper");
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  std::string why;
  const auto native =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(native, nullptr) << why;

  // A wrapper that forwards every compile to the real toolchain but
  // reports another identity.
  const std::string real = codegen_toolchain();
  std::filesystem::create_directories(cache.dir());
  const std::filesystem::path wrapper = cache.dir() / "wrapped-cxx";
  {
    std::ofstream f(wrapper);
    f << "#!/bin/sh\n"
         "if [ \"$1\" = \"--version\" ]; then\n"
         "  echo 'hlsw test wrapper 1.0'\n"
         "  exit 0\n"
         "fi\n"
         "exec "
      << real << " \"$@\"\n";
  }
  std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  const ScopedEnv use_wrapper("HLSW_CODEGEN_CXX", wrapper.c_str());
  ASSERT_EQ(codegen_toolchain(), wrapper.string());

  const auto wrapped =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(wrapped, nullptr) << why;
  EXPECT_NE(wrapped->fingerprint, native->fingerprint);
  EXPECT_NE(wrapped->so_path, native->so_path);
  EXPECT_NE(read_text(cache.dir() / (wrapped->fingerprint + ".cpp"))
                .find("// version: hlsw test wrapper 1.0"),
            std::string::npos);
}

// The on-disk cache is shared between processes (parallel test lanes,
// several daemons on one host). Builders released at once on one cold
// fingerprint must each load a complete, verified module: none may compile
// a source another is rewriting, or load an object another is writing.
TEST(VsimCodegen, ConcurrentProcessesBuildOneFingerprint) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  // A fresh plan keeps the in-process memo cold (the builders fork from
  // this process), and a private cache directory keeps the fingerprint
  // cold on disk for every builder.
  const auto plan = fresh_plan(rtl::emit_verilog(r.transformed, r.schedule),
                               r.transformed.name);
  ASSERT_NE(plan, nullptr);
  const ScopedCacheDir cache("race");

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
      const bool ok = packed_codegen_plan(plan, 1, &why) != nullptr;
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
  EXPECT_NE(packed_codegen_plan(plan, 1, &why), nullptr) << why;
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
  EXPECT_EQ(src.find("target_clones"), std::string::npos);
}

// The .so cache is keyed by a fingerprint over the generated text, and the
// lane count is part of that text: one design at different lane counts
// must never alias to the same artifact in $HLSW_VSIM_CODEGEN_CACHE.
TEST(VsimCodegen, PackedFingerprintsDoNotCollideAcrossLanesOrAbi) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const auto pk1 = packed_codegen_plan(plan, 1, &why);
  ASSERT_NE(pk1, nullptr) << why;
  const auto pk4 = packed_codegen_plan(plan, 4, &why);
  ASSERT_NE(pk4, nullptr) << why;
  const auto pk8 = packed_codegen_plan(plan, 8, &why);
  ASSERT_NE(pk8, nullptr) << why;

  EXPECT_NE(pk4->fingerprint, pk8->fingerprint);
  EXPECT_NE(pk4->fingerprint, pk1->fingerprint);
  EXPECT_NE(pk8->fingerprint, pk1->fingerprint);
  EXPECT_NE(pk4->so_path, pk8->so_path);
  EXPECT_NE(pk4->so_path, pk1->so_path);
  EXPECT_EQ(pk1->lanes, 1);
  EXPECT_EQ(pk4->lanes, 4);
  EXPECT_EQ(pk8->lanes, 8);

  // Re-requesting the same (plan, lanes) pair shares the memoized module.
  EXPECT_EQ(packed_codegen_plan(plan, 4, &why).get(), pk4.get());
  EXPECT_EQ(packed_codegen_plan(plan, 1, &why).get(), pk1.get());
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
  EXPECT_EQ(res.leg_backends[1], "packed_codegen");
  EXPECT_EQ(res.leg_fallbacks[1], "");
  EXPECT_EQ(res.counters[1].source, "vsim_packed_codegen");

  // The serialized report names the backend per leg, so a downgrade would
  // be visible in profile_run.json, not only in counters.
  const std::string json = res.to_json().dump();
  EXPECT_NE(json.find("\"backend\":\"packed_codegen\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fallback_reason\""), std::string::npos);
}

// A sweep whose block count is not a multiple of the lane budget runs its
// short last batch on the engine the full batches use: 26 blocks at 8
// lanes build one 8-lane engine, not an 8-lane and a 2-lane one, and the
// result equals the scalar sweep's. A sweep that fits one batch keeps an
// engine of exactly its block count, whose lanes all run in lockstep.
TEST(VsimCodegen, RaggedLastBatchRunsOnTheLaneBudgetEngine) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("ragged");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  // No other test here builds this architecture, so the per-(plan, lanes)
  // memo is as cold as the private cache.
  const qam::Architecture a = qam::table1_architectures()[3];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                                    TechLibrary::asic90());
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 26 * 5);
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;

  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const hls::CosimResult packed = vsim_sweep(
      r.transformed, r.schedule, vectors, {.block_size = 5, .lanes = 8}, cfg);
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0 + 1.0)
      << "the short last batch compiled an engine of its own";
  const hls::CosimResult scalar = vsim_sweep(r.transformed, r.schedule,
                                             vectors, {.block_size = 5});
  EXPECT_TRUE(packed.ok());
  EXPECT_EQ(packed.blocks, 26u);
  EXPECT_EQ(packed.vectors, scalar.vectors);
  EXPECT_EQ(packed.blocks, scalar.blocks);
  EXPECT_EQ(packed.total_mismatches, scalar.total_mismatches);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);

  // Two blocks at 8 lanes build the 2-lane engine: a fresh plan of the
  // same text then loads it from disk instead of compiling.
  const double compiles1 = m.counter_value("vsim.codegen.compiles");
  const hls::CosimResult two =
      vsim_sweep(r.transformed, r.schedule,
                 {vectors.begin(), vectors.begin() + 10},
                 {.block_size = 5, .lanes = 8}, cfg);
  EXPECT_TRUE(two.ok());
  EXPECT_EQ(two.blocks, 2u);
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles1 + 1.0);
  std::string why;
  ASSERT_NE(packed_codegen_plan(
                fresh_plan(rtl::emit_verilog(r.transformed, r.schedule),
                           r.transformed.name),
                2, &why),
            nullptr)
      << why;
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles1 + 1.0)
      << "the one-batch sweep did not run on a 2-lane engine";
  obs::set_enabled(was_enabled);
}

// profile_run's packed leg builds its engine at the lane budget, so 100
// and then 130 vectors at 64 lanes (50 and 44 blocks) share one engine.
TEST(VsimCodegen, ProfilePackedLegBuildsOneEngineAtTheLaneBudget) {
  REQUIRE_TOOLCHAIN();
  const ScopedCacheDir cache("profile-lanes");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const qam::Architecture a = qam::table1_architectures()[0];
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 130);
  ProfileRunOptions opts;
  opts.run_vsim_event = false;
  opts.lanes = 64;

  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const ProfileRunResult first = profile_run(
      qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(),
      {vectors.begin(), vectors.begin() + 100}, opts);
  const ProfileRunResult second =
      profile_run(qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(),
                  vectors, opts);
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0 + 1.0)
      << "each stimulus length compiled an engine of its own";
  for (const ProfileRunResult* res : {&first, &second}) {
    EXPECT_TRUE(res->ok()) << (res->cross_issues.empty()
                                   ? "leg deviation"
                                   : res->cross_issues.front());
    ASSERT_EQ(res->leg_backends.size(), 2u);
    EXPECT_EQ(res->leg_backends[1], "packed_codegen");
  }
  // The leg reports the lanes that carried a block.
  EXPECT_EQ(first.leg_lanes[1], 50);
  EXPECT_EQ(second.leg_lanes[1], 44);
  obs::set_enabled(was_enabled);
}

// The shared-object cache keeps at most kCodegenCacheObjects objects:
// installing one removes the least recently used <fp>.{so,cpp,log}
// triples by .so mtime, a disk hit counts as a use, and a builder's
// .tmp<pid> files are never touched.
TEST(VsimCodegen, CacheEvictsLeastRecentlyUsedObjectsBeyondTheBound) {
  REQUIRE_TOOLCHAIN();
  namespace fs = std::filesystem;
  const ScopedCacheDir cache("evict");
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  std::string why;
  const auto first =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(first, nullptr) << why;

  // Old fake triples past the bound (fakes[0] oldest), a builder's temp
  // file older still, and the real object oldest of all.
  const auto now = fs::file_time_type::clock::now();
  const std::size_t kFakes = kCodegenCacheObjects + 1;
  std::vector<std::string> fakes;
  for (std::size_t i = 0; i < kFakes; ++i) {
    char fp[17];
    std::snprintf(fp, sizeof fp, "%016zx", i);
    for (const char* ext : {".so", ".cpp", ".log"})
      std::ofstream(cache.dir() / (fp + std::string(ext))) << "fake\n";
    fs::last_write_time(cache.dir() / (fp + std::string(".so")),
                        now - std::chrono::hours(2) + std::chrono::seconds(i));
    fakes.push_back(fp);
  }
  const fs::path tmp = cache.dir() / (fakes[0] + ".tmp1.so");
  std::ofstream(tmp) << "partial\n";
  fs::last_write_time(tmp, now - std::chrono::hours(4));
  fs::last_write_time(first->so_path, now - std::chrono::hours(3));

  // A disk hit (a fresh plan on the same text) makes the real object the
  // most recently used; then a new object is installed.
  ASSERT_NE(
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why),
      nullptr)
      << why;
  const auto second =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 2, &why);
  ASSERT_NE(second, nullptr) << why;

  std::size_t objects = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(cache.dir()))
    if (e.path().extension() == ".so" &&
        e.path().stem().extension().empty())
      ++objects;
  EXPECT_EQ(objects, kCodegenCacheObjects);
  EXPECT_TRUE(fs::exists(first->so_path)) << "a disk hit did not count as use";
  EXPECT_TRUE(fs::exists(second->so_path));
  EXPECT_TRUE(fs::exists(tmp)) << "a builder's temp file was removed";
  // Three objects over the bound: the three oldest fakes go, whole.
  for (std::size_t i = 0; i < kFakes; ++i)
    for (const char* ext : {".so", ".cpp", ".log"})
      EXPECT_EQ(fs::exists(cache.dir() / (fakes[i] + ext)), i >= 3)
          << fakes[i] << ext;
}

// A default cache directory someone else could write is refused: this
// process would dlopen() whatever .so (with a matching .cpp) sits there.
TEST(VsimCodegen, WorldWritableDefaultCacheIsRefused) {
  REQUIRE_TOOLCHAIN();
  const ScopedDefaultCache tmp;
  ASSERT_TRUE(std::filesystem::create_directory(tmp.dir()));
  std::filesystem::permissions(tmp.dir(), std::filesystem::perms::all);
  expect_cache_refused(tmp.dir());
}

// A symlink in the default cache's place is refused even when its target
// is a private directory of this user: whoever planted the link controls
// where it points.
TEST(VsimCodegen, SymlinkedDefaultCacheIsRefused) {
  REQUIRE_TOOLCHAIN();
  const ScopedDefaultCache tmp;
  const std::filesystem::path target = tmp.scratch() / "elsewhere";
  ASSERT_TRUE(std::filesystem::create_directory(target));
  std::filesystem::permissions(target, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::replace);
  std::filesystem::create_directory_symlink(target, tmp.dir());
  expect_cache_refused(tmp.dir());
}

TEST(VsimCodegen, FreshDefaultCacheIsCreatedPrivate) {
  REQUIRE_TOOLCHAIN();
  const ScopedDefaultCache tmp;
  ASSERT_FALSE(std::filesystem::exists(tmp.dir()));
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  std::string why;
  const auto mod =
      packed_codegen_plan(fresh_plan(verilog, r.transformed.name), 1, &why);
  ASSERT_NE(mod, nullptr) << why;
  struct stat st {};
  ASSERT_EQ(::lstat(tmp.dir().c_str(), &st), 0) << tmp.dir();
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  EXPECT_EQ(st.st_mode & 07777, 0700u);
  EXPECT_EQ(st.st_uid, ::geteuid());
  EXPECT_EQ(mod->so_path.rfind(tmp.dir().string(), 0), 0u) << mod->so_path;
}

}  // namespace
}  // namespace hlsw::vsim
