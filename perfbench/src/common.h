// Shared plumbing of the perfbench program: command line, closed-loop
// timing, statistics, span and counter collection, and the report each
// workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

// When this program started (static initialization of main.cpp); setup_s
// of the first set-up pass is measured from here.
Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Planted fault for the self-tests: "", "corrupt_vector", "tamper_front".
  std::string fault;
  unsigned threads = 1;  // nproc: load threads, pool size, daemon workers
  std::string run_dir;   // per-run scratch directory (relative to the cwd)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main(): the operation tally, the metrics
// of the result line and human-readable report lines printed before it.
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void line(const std::string& text) { lines.push_back(text); }
};

// Latencies of one measured phase. A failed operation has no latency: it
// counts as missing every latency target (+inf in the quantiles).
struct Samples {
  std::vector<double> ok_ms;
  long long attempted = 0;
  long long failed = 0;
  double wall_s = 0;
  // Every operation as (completion time in s since its loop started,
  // latency in ms or +inf when it failed) — the windows of add_end_to_end.
  std::vector<std::pair<double, double>> timeline;

  void record(bool ok, double ms, double end_s) {
    ++attempted;
    if (ok)
      ok_ms.push_back(ms);
    else
      ++failed;
    timeline.push_back({end_s, ok ? ms : 1.0 / 0.0});
  }
};

// Nearest-rank quantile (q in (0, 1]) with failures ranked last as +inf;
// returns +inf when the rank falls on a failure.
double quantile_ms(const Samples& s, double q);

// Runs op() back to back for `seconds` of wall time. op times its own
// operation into *ms (so output checks stay outside the latency) and
// returns whether the output checked correct; an exception is a failure.
Samples closed_loop(double seconds, const std::function<bool(double* ms)>& op);

// closed_loop over two variants of an operation, alternating op by op
// (variant false first) so drift hits both alike. Returns the samples of
// variant false and of variant true.
std::pair<Samples, Samples> alternating(
    double seconds, const std::function<bool(bool variant, double* ms)>& op);

void merge_into(Samples* into, const Samples& s);

// Adds setup_s, op_p50_ms, op_p95_ms, ops_per_s and peak_rss_mb, plus the
// sample-count report lines. The run is cut into equal windows — up to 10
// of at least 50 operations for the median and the rate, up to 5 of at
// least 200 for p95 — and each is reported as the median of its
// per-window values, so a burst of load from outside moves one window,
// not the result.
void add_end_to_end(Report* r, const Samples& s, double setup_s);

// Median of a non-empty vector.
double median(std::vector<double> v);

// Peak resident set of this process in MiB.
double peak_rss_mb();

// A seeded, balanced order over `items`: every pass draws a fresh
// permutation, so each item's share of the draws is fixed and only the
// order depends on the seed.
std::vector<std::size_t> indices(std::size_t n);  // {0, 1, ..., n - 1}

class Deck {
 public:
  Deck(std::vector<std::size_t> items, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<std::size_t> items_;
  std::size_t pos_ = 0;
  std::mt19937_64 rng_;
};

// Per-operation layer times of a traced phase, summed over operations.
// Thread-safe.
class LayerTable {
 public:
  void add(const std::string& layer, double ms);
  std::map<std::string, double> totals() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> total_;
};

// Sums the duration (ms) of every span recorded since the last drain by
// "category/name", then clears the trace session. For each key P in
// `parents`, a span that lies inside a P span on the same thread is also
// summed under "<key> in <P>" (e.g. the transforms run inside synthesis,
// apart from those the feasibility analysis runs).
std::map<std::string, double> drain_spans(
    const std::vector<std::string>& parents = {});

// Current value of every registry counter, plus "<hist>.count" for every
// histogram.
std::map<std::string, double> counter_snapshot();

// "name: before -> after (+delta)" lines for the counters under the
// given prefixes that changed between two snapshots.
std::vector<std::string> counter_diff(const std::map<std::string, double>& a,
                                      const std::map<std::string, double>& b,
                                      const std::vector<std::string>& prefixes);

// The tallies every traced run reports: adds the operations of all its
// phases to the report, and sets fail_ratio and trace.overhead_ratio (the
// traced phase's p50 over the untraced base phase's) in `values`.
void add_phase_totals(Report* r, std::map<std::string, double>* values,
                      const Samples& base, const Samples& traced,
                      const Samples* other = nullptr);

// Fills a traced result line: every per-layer metric, in a fixed order,
// from `values` (a name the workload never measured reads 0 — the layer
// does not run there), and the per-layer table of the report. Time rows
// are per operation, shown with their share of op_wall_ms.
void add_layer_metrics(Report* r, const std::map<std::string, double>& values);

// m[k], or 0 when absent.
double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& k);

// Formats like printf into a std::string.
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pb
