// perfbench: the repository benchmark program. One process runs one named
// workload with one seed and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. See ../README.md.
//
//   perfbench --workload <dse_explore|sweep_packed|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--fault <name>]
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "vsim/codegen.h"
#include "workloads.h"

namespace pb {
namespace {

const Clock::time_point kProcessStart = Clock::now();

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dse_explore|sweep_packed|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--fault <name>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--fault")
      a.fault = v;
    else
      usage("unknown argument " + k);
  }
  if (a.workload != "dse_explore" && a.workload != "sweep_packed" &&
      a.workload != "serve_mixed")
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (!a.fault.empty() && a.fault != "corrupt_vector" &&
      a.fault != "tamper_front")
    usage("unknown fault '" + a.fault + "'");
  cpu_set_t set;
  CPU_ZERO(&set);
  a.threads = sched_getaffinity(0, sizeof set, &set) == 0
                  ? static_cast<unsigned>(CPU_COUNT(&set))
                  : std::max(1u, std::thread::hardware_concurrency());
  return a;
}

// The per-run scratch directory: holds the codegen .so cache, the host
// compiler's temporaries and the daemon socket, so no two runs share warm
// state and nothing is written outside the working tree. Removed on every
// exit path of main().
struct RunDir {
  std::string path;
  explicit RunDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    for (const char* sub : {"codegen", "tmp"})
      std::filesystem::create_directories(path + "/" + sub);
    const auto abs = [&](const char* sub) {
      return std::filesystem::absolute(path + "/" + sub).string();
    };
    ::setenv("HLSW_VSIM_CODEGEN_CACHE", abs("codegen").c_str(), 1);
    ::setenv("TMPDIR", abs("tmp").c_str(), 1);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
};

std::string number(double v) {
  // A quantile that lands on a failed operation is +inf; JSON has no
  // infinity, so it prints as 1e9 (every latency target missed).
  if (!std::isfinite(v)) v = 1e9;
  return fmt("%.17g", v);
}

void print_result(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.attempted > 0 && r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args args = parse_args(argc, argv);
  hlsw::obs::set_enabled(false);  // workloads switch tracing on themselves
  args.run_dir = ".bench_build/runs/" + std::to_string(::getpid());

  Report report;
  try {
    RunDir dir(args.run_dir);
    if (args.workload == "dse_explore")
      report = run_dse_explore(args);
    else if (args.workload == "sweep_packed")
      report = run_sweep_packed(args);
    else
      report = run_serve_mixed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const hlsw::obs::Json prov =
      hlsw::obs::Json::object()
          .set("workload", args.workload)
          .set("seed", std::to_string(args.seed))
          .set("seconds", args.seconds)
          .set("trace", args.trace)
          .set("fault", args.fault)
          .set("nproc", args.threads)
          .set("compiler", PERFBENCH_COMPILER)
          .set("codegen_toolchain", hlsw::vsim::codegen_toolchain())
          .set("build_type", PERFBENCH_BUILD_TYPE)
          .set("git_sha", sha && *sha ? sha : "unknown");
  std::printf("# provenance %s\n", prov.dump().c_str());
  for (const std::string& l : report.lines) std::printf("# %s\n", l.c_str());
  print_result(report);
  return 0;
}
