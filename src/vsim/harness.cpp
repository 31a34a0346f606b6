#include "vsim/harness.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <stdexcept>

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

// ---- DutHarness -------------------------------------------------------------

DutHarness::DutHarness(const hls::Function& f,
                       std::shared_ptr<const Design> design,
                       const SimConfig& cfg)
    : pins_(rtl::flatten_port_pins(f)), sim_(std::move(design), cfg) {
  pin_handle_.reserve(pins_.size());
  for (const auto& p : pins_) pin_handle_.push_back(sim_.signal_handle(p.name));
  h_clk_ = sim_.signal_handle("clk");
  h_rst_ = sim_.signal_handle("rst");
  h_start_ = sim_.signal_handle("start");
  h_done_ = sim_.signal_handle("done");
  reset();
}

void DutHarness::tick() {
  sim_.poke(h_clk_, 1);
  sim_.settle();
  sim_.poke(h_clk_, 0);
  sim_.settle();
}

void DutHarness::reset() {
  sim_.poke(h_clk_, 0);
  sim_.poke(h_start_, 0);
  sim_.poke(h_rst_, 1);
  for (int i = 0; i < 3; ++i) tick();
  sim_.poke(h_rst_, 0);
  sim_.settle();
}

PortIo DutHarness::run(const PortIo& in) {
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    const auto& p = pins_[i];
    if (!p.is_input) continue;
    sim_.poke(pin_handle_[i],
              static_cast<unsigned long long>(rtl::pin_value(p, in)));
  }
  sim_.poke(h_start_, 1);
  tick();
  sim_.poke(h_start_, 0);
  long long cycles = 1;
  while (sim_.peek(h_done_) == 0) {
    if (++cycles > 1'000'000)
      throw std::runtime_error(
          "vsim harness: done never asserted — emitted FSM hung");
    tick();
  }
  last_cycles_ = cycles;

  PortIo out;
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    const auto& p = pins_[i];
    if (p.is_input) continue;
    const long long raw =
        p.sgn ? sim_.peek_signed(pin_handle_[i])
              : static_cast<long long>(sim_.peek(pin_handle_[i]));
    FxValue* slot;
    if (p.from_array) {
      auto& vec = out.arrays[p.port];
      if (vec.size() <= static_cast<size_t>(p.index))
        vec.resize(static_cast<size_t>(p.index) + 1);
      slot = &vec[static_cast<size_t>(p.index)];
    } else {
      slot = &out.vars[p.port];
    }
    slot->fw = p.fw;
    slot->cplx = p.cplx;
    (p.re ? slot->re : slot->im) = raw;
  }
  return out;
}

std::vector<PortIo> DutHarness::run_stream(const std::vector<PortIo>& ins) {
  std::vector<PortIo> outs;
  outs.reserve(ins.size());
  for (const auto& in : ins) outs.push_back(run(in));
  return outs;
}

hls::CounterValues DutHarness::read_counters(
    const std::vector<hls::PerfCounter>& map) const {
  hls::CounterValues out;
  out.source = std::string("vsim_") + sim_.backend();
  for (const hls::PerfCounter& c : map)
    out.values[c.name] =
        static_cast<long long>(sim_.peek(sim_.signal_handle(c.name)));
  return out;
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

// Golden-leg factory with a batched evaluation context: Interpreter
// construction copies the Function and rebuilds its name indices, and the
// sweep used to pay that per block — at sweep block counts the reference
// leg's setup dominated and capped every DUT-side speedup (the Amdahl
// analysis in EXPERIMENTS.md). Instances are pooled per sweep instead;
// a checked-out context is reset() between blocks, which restores exactly
// the state a fresh instance would start with.
hls::CosimFactory interp_factory(const hls::Function& f) {
  struct Pool {
    std::mutex mu;
    std::vector<std::unique_ptr<hls::Interpreter>> idle;
  };
  auto pool = std::make_shared<Pool>();
  return [&f, pool]() -> hls::CosimModel {
    return [&f, pool](const std::vector<PortIo>& ins) {
      std::unique_ptr<hls::Interpreter> interp;
      {
        std::lock_guard<std::mutex> lk(pool->mu);
        if (!pool->idle.empty()) {
          interp = std::move(pool->idle.back());
          pool->idle.pop_back();
        }
      }
      if (interp == nullptr)
        interp = std::make_unique<hls::Interpreter>(f);
      else
        interp->reset();
      auto outs = interp->run_stream(ins);
      std::lock_guard<std::mutex> lk(pool->mu);
      pool->idle.push_back(std::move(interp));
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

hls::CosimFactory vsim_factory(const hls::Function& f,
                               std::shared_ptr<const Design> design,
                               const SimConfig& cfg) {
  return [&f, design, cfg]() -> hls::CosimModel {
    auto harness = std::make_shared<DutHarness>(f, design, cfg);
    return [harness](const std::vector<PortIo>& ins) {
      return harness->run_stream(ins);
    };
  };
}

// Multi-lane sweep: up to `lanes` consecutive blocks share one
// PackedDutHarness, each block in its own lane. Block independence is
// untouched (every batch's harness starts from reset, and lanes are
// state-disjoint), the golden leg stays the per-block untimed interpreter,
// and mismatch reports reuse hls::compare_outputs / cap_mismatches so the
// output is byte-identical with the scalar sweep. A sweep that fits one
// batch runs on an engine of exactly its block count. Otherwise every
// batch runs on the engine built at the lane budget: the ragged last batch
// gives its spare lanes empty streams, which clock only through reset,
// instead of compiling an engine of its own width.
hls::CosimResult vsim_sweep_packed(
    const hls::Function& f, std::shared_ptr<const CompiledDesign> plan,
    const std::vector<PortIo>& vectors, const hls::CosimOptions& opts,
    const SimConfig& cfg, int lanes) {
  hls::CosimResult result;
  result.vectors = vectors.size();
  if (vectors.empty()) return result;

  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  const std::size_t nblocks = (vectors.size() + bs - 1) / bs;
  result.blocks = nblocks;
  const std::size_t nlanes =
      std::min(static_cast<std::size_t>(lanes), nblocks);
  const std::size_t nbatches = (nblocks + nlanes - 1) / nlanes;

  obs::ScopedSpan span("vsim_sweep.packed", "vsim");
  if (span.active()) {
    span.arg("lanes", static_cast<long long>(lanes));
    span.arg("blocks", static_cast<long long>(nblocks));
    span.arg("batches", static_cast<long long>(nbatches));
  }

  const auto run_batch = [&](std::size_t batch) -> std::vector<std::string> {
    const std::size_t first_blk = batch * nlanes;
    const int L = static_cast<int>(
        std::min(nlanes, nblocks - first_blk));
    std::vector<std::vector<PortIo>> streams(nlanes);
    for (int l = 0; l < L; ++l) {
      const std::size_t begin = (first_blk + static_cast<std::size_t>(l)) * bs;
      const std::size_t end = std::min(begin + bs, vectors.size());
      streams[static_cast<std::size_t>(l)].assign(
          vectors.begin() + static_cast<long>(begin),
          vectors.begin() + static_cast<long>(end));
    }
    PackedDutHarness harness(f, plan, static_cast<int>(nlanes), cfg);
    const auto got = harness.run_streams(streams);
    std::vector<std::string> mism;
    // One golden evaluation context per batch, reset() between lanes:
    // identical outputs to a fresh Interpreter per block, without paying
    // Function copy + index construction L times.
    hls::Interpreter golden(f);
    for (int l = 0; l < L; ++l) {
      const std::size_t blk = first_blk + static_cast<std::size_t>(l);
      const std::size_t begin = blk * bs;
      const auto& block = streams[static_cast<std::size_t>(l)];
      if (l > 0) golden.reset();
      const std::vector<PortIo> want = golden.run_stream(block);
      if (want.size() != block.size() ||
          got[static_cast<std::size_t>(l)].size() != block.size()) {
        mism.push_back("block " + std::to_string(blk) +
                       ": model returned wrong vector count");
        continue;
      }
      for (std::size_t i = 0; i < block.size(); ++i)
        hls::compare_outputs(begin + i, want[i],
                             got[static_cast<std::size_t>(l)][i], &mism);
    }
    return mism;
  };

  // Deterministic merge: batches in order, lanes within a batch in block
  // order — the global mismatch list reads exactly as the scalar sweep's.
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

}  // namespace

hls::CosimResult vsim_sweep(const hls::Function& f, const hls::Schedule& s,
                            const std::vector<PortIo>& vectors,
                            const hls::CosimOptions& opts,
                            const SimConfig& cfg) {
  obs::ScopedSpan span("vsim_sweep", "vsim");
  const std::string verilog = rtl::emit_verilog(f, s);
  auto design = load_design(verilog, f.name);
  const int lanes = std::clamp(opts.lanes, 1, kMaxLanes);
  if (lanes > 1 && cfg.backend != Backend::kEvent) {
    std::string why;
    if (auto plan = compiled_plan(design, &why))
      return vsim_sweep_packed(f, plan, vectors, opts, cfg, lanes);
    // Not cycle-schedulable: scalar fallback below.
  }
  return hls::cosim_sweep(interp_factory(f), vsim_factory(f, design, cfg),
                          vectors, opts);
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
      {"vsim", vsim_factory(f, design, {})},
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
