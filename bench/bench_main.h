// Shared harness for the custom (non-google-benchmark) sections of the
// bench binaries: warmup + repeated timing of named sections, and a
// machine-readable BENCH_<name>.json artifact so the perf trajectory is
// diffable across PRs (google-benchmark's stdout tables are not).
//
// Flags (parsed and stripped before benchmark::Initialize sees argv):
//   --json <path>   artifact destination (default BENCH_<name>.json in cwd;
//                   "none" disables the artifact)
//   --reps <n>      timed repetitions per measured section (default 3)
//   --warmup <n>    untimed warmup runs per measured section (default 1)
//   --metrics       embed the process-wide obs::MetricsRegistry snapshot
//                   (counters/gauges/histograms accumulated by the measured
//                   code, e.g. cache hit rates and hw.* profile metrics) as
//                   a "metrics" section of the artifact, so timings and
//                   counters land in one diffable document
//
// Every artifact records the machine it ran on in a "machine" object:
// nproc, compiler, build type and the git sha of the source tree.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

// Set by bench/CMakeLists.txt; other includers record "unknown".
#ifndef HLSW_BENCH_COMPILER
#define HLSW_BENCH_COMPILER "unknown"
#endif
#ifndef HLSW_BENCH_BUILD_TYPE
#define HLSW_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HLSW_BENCH_SOURCE_DIR
#define HLSW_BENCH_SOURCE_DIR "."
#endif

namespace hlsw::bench {

// HEAD of the source tree the bench was built from, suffixed "-dirty"
// when tracked files differ from it, or "unknown" when git or the
// repository is unavailable.
inline std::string source_git_sha() {
  std::string sha;
  if (FILE* p = ::popen("git -C '" HLSW_BENCH_SOURCE_DIR
                        "' describe --always --dirty --abbrev=40 "
                        "--exclude='*' 2>/dev/null",
                        "r")) {
    char buf[80];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

struct Timing {
  double min_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
  int reps = 0;
};

class Harness {
 public:
  // Strips the harness flags from argc/argv (so the remainder can go to
  // benchmark::Initialize) and prepares the artifact document.
  Harness(std::string name, int* argc, char** argv)
      : name_(std::move(name)), json_path_("BENCH_" + name_ + ".json") {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* a = argv[i];
      const auto take_value = [&](const char* flag, std::string* dst) {
        const std::size_t n = std::strlen(flag);
        if (std::strncmp(a, flag, n) != 0) return false;
        if (a[n] == '=') {
          *dst = a + n + 1;
          return true;
        }
        if (a[n] == '\0' && i + 1 < *argc) {
          *dst = argv[++i];
          return true;
        }
        return false;
      };
      std::string value;
      if (std::strcmp(a, "--metrics") == 0) {
        embed_metrics_ = true;
        continue;
      }
      if (take_value("--json", &json_path_)) continue;
      if (take_value("--reps", &value)) {
        reps_ = std::max(1, std::atoi(value.c_str()));
        continue;
      }
      if (take_value("--warmup", &value)) {
        warmup_ = std::max(0, std::atoi(value.c_str()));
        continue;
      }
      argv[out++] = argv[i];
    }
    *argc = out;
  }

  int reps() const { return reps_; }
  int warmup() const { return warmup_; }

  // Embed a MetricsRegistry snapshot in the artifact (also enabled by the
  // --metrics flag). Callers that know their run populates interesting
  // counters can turn it on unconditionally.
  void set_embed_metrics(bool on) { embed_metrics_ = on; }
  bool embed_metrics() const { return embed_metrics_; }

  // Times fn over warmup + reps runs and records min/mean/max milliseconds
  // under `label`. Returns the timing (min is the headline number).
  template <typename Fn>
  Timing measure(const std::string& label, Fn&& fn) {
    using clock = std::chrono::steady_clock;
    for (int i = 0; i < warmup_; ++i) fn();
    Timing t;
    t.reps = reps_;
    for (int i = 0; i < reps_; ++i) {
      const auto t0 = clock::now();
      fn();
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count();
      t.mean_ms += ms;
      if (i == 0 || ms < t.min_ms) t.min_ms = ms;
      if (i == 0 || ms > t.max_ms) t.max_ms = ms;
    }
    t.mean_ms /= reps_;
    measurements_.set(label, obs::Json::object()
                                 .set("min_ms", t.min_ms)
                                 .set("mean_ms", t.mean_ms)
                                 .set("max_ms", t.max_ms)
                                 .set("reps", t.reps));
    return t;
  }

  // Records a non-timing scalar or structured value under `label`.
  void note(const std::string& label, obs::Json value) {
    notes_.set(label, std::move(value));
  }

  // Writes the artifact (call at the end of main; also invoked by the
  // destructor so early returns still produce a file).
  void write() {
    if (written_ || json_path_ == "none" || json_path_.empty()) return;
    written_ = true;
    obs::Json doc =
        obs::Json::object()
            .set("tool", "hlsw.bench")
            .set("schema_version", 1)
            .set("bench", name_)
            .set("reps", reps_)
            .set("warmup", warmup_)
            .set("timestamp", static_cast<long long>(std::time(nullptr)))
            .set("machine",
                 obs::Json::object()
                     .set("nproc", std::thread::hardware_concurrency())
                     .set("compiler", HLSW_BENCH_COMPILER)
                     .set("build_type", HLSW_BENCH_BUILD_TYPE)
                     .set("git_sha", source_git_sha()))
            .set("measurements", measurements_)
            .set("notes", notes_);
    if (embed_metrics_)
      doc.set("metrics", obs::MetricsRegistry::instance().to_json());
    if (obs::StructuredReport::write_json_file(json_path_, doc))
      std::printf("bench artifact written: %s\n", json_path_.c_str());
    else
      std::fprintf(stderr, "bench artifact write FAILED: %s\n",
                   json_path_.c_str());
  }

  ~Harness() { write(); }

 private:
  std::string name_;
  std::string json_path_;
  int reps_ = 3;
  int warmup_ = 1;
  bool embed_metrics_ = false;
  bool written_ = false;
  obs::Json measurements_ = obs::Json::object();
  obs::Json notes_ = obs::Json::object();
};

}  // namespace hlsw::bench
