#include "vsim/harness.h"

#include <algorithm>
#include <atomic>
#include <list>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"
#include "vsim/pack.h"
#include "vsim/parser.h"

namespace hlsw::vsim {

using hls::FxValue;
using hls::PortIo;

namespace {

// Small LRU of elaborated designs keyed by (source text, top). Sweeps,
// replay harnesses and testbench reruns hand the same text back many
// times; elaboration is pure, so the cached Design (immutable) is shared.
// Entries keep the full key text — at <= 8 entries of emitted Verilog the
// memory cost is trivial and exact matching dodges hash collisions.
struct DesignCache {
  struct Entry {
    std::string key;
    std::shared_ptr<const Design> design;
  };
  std::mutex mu;
  std::list<Entry> lru;  // front = most recently used
};

constexpr std::size_t kDesignCacheCap = 8;

DesignCache& design_cache() {
  static auto* c = new DesignCache;  // leaked: alive for process teardown
  return *c;
}

std::shared_ptr<const Design> parse_and_elaborate(const std::string& verilog,
                                                  const std::string& top) {
  SourceUnit su;
  {
    obs::ScopedSpan span("vsim.parse", "vsim");
    su = parse(verilog);
    if (span.active())
      span.arg("modules", static_cast<long long>(su.modules.size()));
  }
  obs::ScopedSpan span("vsim.elaborate", "vsim");
  auto design = elaborate(su, top);
  if (span.active()) {
    span.arg("signals", static_cast<long long>(design->signals.size()));
    span.arg("processes", static_cast<long long>(design->processes.size()));
  }
  return design;
}

}  // namespace

std::shared_ptr<const Design> load_design(const std::string& verilog,
                                          const std::string& top) {
  std::string key;
  key.reserve(top.size() + 1 + verilog.size());
  key.append(top).push_back('\n');
  key.append(verilog);

  DesignCache& cache = design_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    for (auto it = cache.lru.begin(); it != cache.lru.end(); ++it) {
      if (it->key == key) {
        cache.lru.splice(cache.lru.begin(), cache.lru, it);
        if (obs::enabled())
          obs::MetricsRegistry::instance().add("vsim.design_cache.hits", 1.0);
        return cache.lru.front().design;
      }
    }
  }

  // Parse and elaborate outside the lock: concurrent misses on the same
  // text duplicate work once rather than serializing every caller.
  auto design = parse_and_elaborate(verilog, top);
  if (obs::enabled())
    obs::MetricsRegistry::instance().add("vsim.design_cache.misses", 1.0);

  std::lock_guard<std::mutex> lock(cache.mu);
  for (auto it = cache.lru.begin(); it != cache.lru.end(); ++it) {
    if (it->key == key) {  // another thread won the race — share its copy
      cache.lru.splice(cache.lru.begin(), cache.lru, it);
      return cache.lru.front().design;
    }
  }
  cache.lru.push_front({std::move(key), design});
  while (cache.lru.size() > kDesignCacheCap) cache.lru.pop_back();
  return design;
}

// ---- Testbench runner -------------------------------------------------------

TestbenchResult run_testbench(const std::string& sources,
                              const std::string& tb_module,
                              const SimConfig& cfg) {
  auto design = load_design(sources, tb_module);
  Simulation sim(std::move(design), cfg);
  const RunResult rr = sim.run();

  TestbenchResult r;
  r.finished = rr.finished;
  r.end_time = rr.end_time;
  r.display = rr.display;
  r.vcd_name = rr.vcd_name;
  r.vcd_text = rr.vcd_text;
  bool saw_pass = false, saw_fail = false;
  for (const auto& line : r.display) {
    if (line.rfind("PASS", 0) == 0) saw_pass = true;
    if (line.find("FAIL") != std::string::npos) saw_fail = true;
  }
  r.passed = rr.finished && saw_pass && !saw_fail;
  return r;
}

// ---- Differential sweeps ----------------------------------------------------

namespace {

// Golden evaluation contexts shared by a sweep's workers. Interpreter
// construction copies the Function and rebuilds its name indices, and the
// sweep used to pay that per block — at sweep block counts the reference
// leg's setup dominated and capped every DUT-side speedup (the Amdahl
// analysis in EXPERIMENTS.md). A context taken from the pool is reset(),
// which restores exactly the state a fresh instance would start with.
class GoldenPool {
 public:
  explicit GoldenPool(const hls::Function& f) : f_(f) {}

  std::unique_ptr<hls::Interpreter> take() {
    std::unique_ptr<hls::Interpreter> in;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!idle_.empty()) {
        in = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (in == nullptr) return std::make_unique<hls::Interpreter>(f_);
    in->reset();
    return in;
  }
  void give(std::unique_ptr<hls::Interpreter> in) {
    std::lock_guard<std::mutex> lk(mu_);
    idle_.push_back(std::move(in));
  }

 private:
  const hls::Function& f_;
  std::mutex mu_;
  std::vector<std::unique_ptr<hls::Interpreter>> idle_;
};

// Golden-leg factory over one pool: each call replays its block on a
// pooled context.
hls::CosimFactory interp_factory(const hls::Function& f) {
  auto pool = std::make_shared<GoldenPool>(f);
  return [pool]() -> hls::CosimModel {
    return [pool](const std::vector<PortIo>& ins) {
      auto in = pool->take();
      auto outs = in->run_stream(ins);
      pool->give(std::move(in));
      return outs;
    };
  };
}

hls::CosimFactory rtl_factory(const hls::Function& f,
                              const hls::Schedule& s) {
  return [&f, &s]() -> hls::CosimModel {
    auto sim = std::make_shared<rtl::Simulator>(f, s);
    return [sim](const std::vector<PortIo>& ins) {
      return sim->run_stream(ins);
    };
  };
}

}  // namespace

hls::CosimResult vsim_sweep(const hls::Function& f, const hls::Schedule& s,
                            const std::vector<PortIo>& vectors,
                            const hls::CosimOptions& opts,
                            const SimConfig& cfg) {
  obs::ScopedSpan span("vsim_sweep", "vsim");
  const std::string verilog = rtl::emit_verilog(f, s);
  auto design = load_design(verilog, f.name);
  hls::CosimResult result;
  result.vectors = vectors.size();
  if (vectors.empty()) return result;

  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  const std::size_t nblocks = (vectors.size() + bs - 1) / bs;
  result.blocks = nblocks;
  const std::size_t nlanes = std::min(
      static_cast<std::size_t>(std::clamp(opts.lanes, 1, kMaxLanes)),
      nblocks);
  const std::size_t nbatches = (nblocks + nlanes - 1) / nlanes;
  if (span.active()) {
    span.arg("lanes", static_cast<long long>(nlanes));
    span.arg("blocks", static_cast<long long>(nblocks));
    span.arg("batches", static_cast<long long>(nbatches));
  }

  GoldenPool golden(f);
  std::atomic<std::size_t> taken{0};
  const auto run_batch = [&](std::size_t batch) -> std::vector<std::string> {
    const std::size_t first_blk = batch * nlanes;
    const std::size_t L = std::min(nlanes, nblocks - first_blk);
    std::vector<std::vector<PortIo>> streams(nlanes);
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t begin = (first_blk + l) * bs;
      const std::size_t end = std::min(begin + bs, vectors.size());
      streams[l].assign(vectors.begin() + static_cast<long>(begin),
                        vectors.begin() + static_cast<long>(end));
    }
    PackedDutHarness harness(f, design, static_cast<int>(nlanes), cfg);
    const auto got = harness.run_streams(streams);
    // The batch keeps one golden context, reset() between lanes, so the
    // context stays in this worker's cache (handing pooled contexts from
    // worker to worker block by block measured slower on 64-lane sweeps).
    // Each lane is compared as soon as its reference exists, so one block
    // of reference outputs is alive at a time.
    auto ref = golden.take();
    ++taken;
    std::vector<std::string> mism;
    for (std::size_t l = 0; l < L; ++l) {
      if (l > 0) ref->reset();
      const std::vector<PortIo> want = ref->run_stream(streams[l]);
      for (std::size_t i = 0; i < want.size(); ++i)
        hls::compare_outputs((first_blk + l) * bs + i, want[i], got[l][i],
                             &mism);
    }
    // Only a batch yet to take a context can reuse this one; otherwise it
    // is freed here, on the worker that used it (freeing every context on
    // the caller after the sweep measured 3-6% slower on 64-lane sweeps).
    if (taken.load() < nbatches) golden.give(std::move(ref));
    return mism;
  };

  // Deterministic merge: batches in order, lanes within a batch in block
  // order — the global mismatch list reads in stimulus order no matter
  // which worker finished first.
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = opts.pool;
  if (pool == nullptr && opts.threads > 0) {
    owned = std::make_unique<util::ThreadPool>(opts.threads);
    pool = owned.get();
  }
  const auto per_batch = util::map_ordered(pool, nbatches, run_batch);
  for (const auto& mism : per_batch)
    result.mismatches.insert(result.mismatches.end(), mism.begin(),
                             mism.end());
  hls::cap_mismatches(opts.mismatch_limit, &result);
  return result;
}

VerifyEmittedResult verify_emitted(const hls::Function& f,
                                   const hls::Schedule& s,
                                   const std::vector<PortIo>& vectors,
                                   const hls::CosimOptions& opts) {
  obs::ScopedSpan span("vsim.verify_emitted", "vsim");
  VerifyEmittedResult r;
  const std::string verilog = rtl::emit_verilog(f, s);
  auto design = load_design(verilog, f.name);
  r.lint_issues = lint(*design);

  const std::vector<hls::CosimLeg> legs = {
      {"golden", interp_factory(f)},
      {"rtl", rtl_factory(f, s)},
      {"vsim",
       [&f, design]() -> hls::CosimModel {
         auto h = std::make_shared<PackedDutHarness>(f, design, 1);
         return [h](const std::vector<PortIo>& ins) {
           return h->run_streams({ins}).front();
         };
       }},
  };
  r.cosim = hls::cosim_sweep_nway(legs, vectors, opts);

  // The generated self-checking testbench replays a prefix of the stimulus
  // in-process — the end-to-end path a user would previously have needed an
  // external simulator for.
  const std::size_t n = std::min<std::size_t>(8, vectors.size());
  const std::vector<PortIo> tb_in(vectors.begin(),
                                  vectors.begin() + static_cast<long>(n));
  const auto tvs = rtl::capture_vectors(f, s, tb_in);
  const std::string tb = rtl::emit_testbench(f, tvs, f.name);
  r.testbench = run_testbench(verilog + "\n" + tb, f.name + "_tb");
  return r;
}

}  // namespace hlsw::vsim
