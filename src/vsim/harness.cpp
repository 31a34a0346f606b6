#include "vsim/harness.h"

#include <algorithm>
#include <iterator>
#include <list>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
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

hls::CosimResult vsim_sweep(const hls::Function& f, const hls::Schedule& s,
                            const std::vector<PortIo>& vectors,
                            const hls::CosimOptions& opts,
                            const SimConfig& cfg) {
  obs::ScopedSpan span("vsim_sweep", "vsim");
  const std::string verilog = rtl::emit_verilog(f, s);
  auto design = load_design(verilog, f.name);
  if (vectors.empty()) return {};

  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  const std::size_t nblocks = (vectors.size() + bs - 1) / bs;
  const std::size_t nlanes = std::min(
      static_cast<std::size_t>(std::clamp(opts.lanes, 1, kMaxLanes)),
      nblocks);
  if (span.active()) {
    span.arg("lanes", static_cast<long long>(nlanes));
    span.arg("blocks", static_cast<long long>(nblocks));
    span.arg("batches",
             static_cast<long long>((nblocks + nlanes - 1) / nlanes));
  }

  // Compiled once per sweep; each batch runs a copy, which skips the
  // scheduling and plan compilation and keeps its value buffers on the
  // batch's worker.
  const hls::Interpreter reference(f);
  // One batch of lanes per task: blocks [first_blk, first_blk + L).
  const auto run_batch = [&](std::size_t first_blk,
                             std::size_t L) -> std::vector<std::string> {
    std::vector<std::vector<PortIo>> streams(nlanes);
    std::size_t nvec = 0;
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t begin = (first_blk + l) * bs;
      const std::size_t end = std::min(begin + bs, vectors.size());
      streams[l].assign(vectors.begin() + static_cast<long>(begin),
                        vectors.begin() + static_cast<long>(end));
      nvec += end - begin;
    }
    const auto batch_args = [&](obs::ScopedSpan& batch_span) {
      if (!batch_span.active()) return;
      batch_span.arg("lanes", static_cast<long long>(L));
      batch_span.arg("vectors", static_cast<long long>(nvec));
    };
    std::vector<std::vector<PortIo>> got;
    {
      obs::ScopedSpan dut("vsim_sweep.dut", "vsim");
      batch_args(dut);
      PackedDutHarness harness(f, design, static_cast<int>(nlanes), cfg);
      got = harness.run_streams(streams);
    }
    // The reference lanes run in lockstep, and each output is compared as
    // soon as its symbol completes, so no batch of reference outputs is
    // held. Mismatches collect per lane to read in block order.
    obs::ScopedSpan golden("vsim_sweep.golden", "vsim");
    batch_args(golden);
    streams.resize(L);
    std::vector<std::vector<std::string>> lane_mism(L);
    hls::Interpreter(reference).run_streams(
        streams, [&](std::size_t l, std::size_t i, const PortIo& want) {
          hls::compare_outputs((first_blk + l) * bs + i, want, got[l][i],
                               &lane_mism[l]);
        });
    std::vector<std::string> mism;
    for (auto& m : lane_mism)
      mism.insert(mism.end(), std::make_move_iterator(m.begin()),
                  std::make_move_iterator(m.end()));
    return mism;
  };
  return hls::sweep_blocks(vectors, opts, nlanes, run_batch);
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
      {"golden", hls::interpreter_factory(f)},
      {"rtl",
       [&f, &s]() -> hls::CosimModel {
         auto sim = std::make_shared<rtl::Simulator>(f, s);
         return [sim](const std::vector<PortIo>& ins) {
           return sim->run_stream(ins);
         };
       }},
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
