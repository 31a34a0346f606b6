#include "vsim/pack.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "rtl/testbench.h"
#include "vsim/codegen.h"

namespace hlsw::vsim {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("vsim runtime error: " + what);
}

int find_signal(const Design& d, const std::string& name) {
  const int h = d.find(name);
  if (h < 0)
    fail("packed harness: signal '" + name + "' not found in design '" +
         d.top + "'");
  return h;
}

// One Simulation per lane, every lane at the same backend. A masked poke
// reaches only the lanes in its mask, which is how the harness keeps frozen
// lanes frozen. Lanes never share a context, so nothing ever splits, and
// each lane is by construction the independent run the generated engine is
// checked against.
class SimulationLanes final : public PackedEngine {
 public:
  SimulationLanes(const std::shared_ptr<const Design>& design, int lanes,
                  const SimConfig& cfg)
      : design_(design),
        full_mask_(lanes == 64 ? ~0ULL : (1ULL << lanes) - 1ULL) {
    for (int l = 0; l < lanes; ++l)
      lanes_.push_back(std::make_unique<Simulation>(design, cfg));
  }

  int lanes() const override { return static_cast<int>(lanes_.size()); }
  std::uint64_t full_mask() const override { return full_mask_; }
  const Design& design() const override { return *design_; }

  void poke(int sig, std::uint64_t value, std::uint64_t mask) override {
    for (std::uint64_t m = mask & full_mask_; m != 0; m &= m - 1)
      lane(m).poke(sig, value);
  }
  void poke_plane(int sig, const std::uint64_t* plane,
                  std::uint64_t mask) override {
    for (std::uint64_t m = mask & full_mask_; m != 0; m &= m - 1)
      lane(m).poke(sig, plane[std::countr_zero(m)]);
  }
  std::uint64_t peek(int sig, int lane) const override {
    return lanes_[static_cast<std::size_t>(lane)]->peek(sig);
  }
  long long peek_signed(int sig, int lane) const override {
    return lanes_[static_cast<std::size_t>(lane)]->peek_signed(sig);
  }
  std::uint64_t peek_elem(int sig, int index, int lane) const override {
    return lanes_[static_cast<std::size_t>(lane)]->peek_elem(sig, index);
  }
  std::uint64_t peek_nonzero_mask(int sig) const override {
    std::uint64_t nz = 0;
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      if (lanes_[l]->peek(sig) != 0) nz |= 1ULL << l;
    return nz;
  }

  void settle() override {
    for (const auto& sim : lanes_) sim->settle();
  }

  const SimStats& stats() const override {
    stats_ = {};
    for (const auto& sim : lanes_) {
      const SimStats& s = sim->stats();
      stats_.events += s.events;
      stats_.nba_commits += s.nba_commits;
      stats_.delta_cycles += s.delta_cycles;
      stats_.time_slots += s.time_slots;
      stats_.instrs += s.instrs;
    }
    return stats_;
  }
  long long divergence_splits() const override { return 0; }
  const char* backend() const override { return lanes_[0]->backend(); }
  Simulation* simulation(int lane) override {
    return lanes_[static_cast<std::size_t>(lane)].get();
  }

 private:
  // The lane of the lowest set bit of a nonzero mask.
  Simulation& lane(std::uint64_t m) {
    return *lanes_[static_cast<std::size_t>(std::countr_zero(m))];
  }

  std::shared_ptr<const Design> design_;
  std::uint64_t full_mask_;
  std::vector<std::unique_ptr<Simulation>> lanes_;
  mutable SimStats stats_;
};

}  // namespace

std::unique_ptr<PackedEngine> make_packed_engine(
    const std::shared_ptr<const Design>& design, int lanes,
    const SimConfig& cfg, std::string* fallback_reason) {
  if (lanes < 1 || lanes > kMaxLanes)
    fail("packed lane count " + std::to_string(lanes) + " outside [1, " +
         std::to_string(kMaxLanes) + "]");
  SimConfig lane_cfg = cfg;
  if (cfg.backend == Backend::kPackedCodegen ||
      (cfg.backend == Backend::kAuto && lanes > 1)) {
    std::string why;
    if (auto plan = compiled_plan(design, &why)) {
      if (auto mod = packed_codegen_plan(plan, lanes, &why))
        return std::make_unique<PackedCodegenSim>(std::move(plan),
                                                  std::move(mod), cfg);
    }
    *fallback_reason = "packed-codegen: " + why;
    lane_cfg.backend = Backend::kCompiled;
  }
  auto sims = std::make_unique<SimulationLanes>(design, lanes, lane_cfg);
  if (fallback_reason->empty())
    *fallback_reason = sims->simulation(0)->fallback_reason();
  return sims;
}

// ---- PackedDutHarness -------------------------------------------------------

PackedDutHarness::PackedDutHarness(const hls::Function& f,
                                   std::shared_ptr<const Design> design,
                                   int lanes, const SimConfig& cfg)
    : pins_(rtl::flatten_port_pins(f)) {
  // Built in the body (not the init list): the factory records the
  // degrade reason into fallback_reason_, declared after sim_
  sim_ = make_packed_engine(design, lanes, cfg, &fallback_reason_);
  const Design& d = *design;
  pin_handle_.reserve(pins_.size());
  for (const auto& p : pins_) pin_handle_.push_back(find_signal(d, p.name));
  h_clk_ = find_signal(d, "clk");
  h_rst_ = find_signal(d, "rst");
  h_start_ = find_signal(d, "start");
  h_done_ = find_signal(d, "done");
  last_cycles_.assign(static_cast<std::size_t>(lanes), 0);
  reset();
}

PackedDutHarness::PackedDutHarness(
    const hls::Function& f, const std::shared_ptr<const CompiledDesign>& plan,
    int lanes, const SimConfig& cfg)
    : PackedDutHarness(f, std::shared_ptr<const Design>(plan, plan->design),
                       lanes, cfg) {}

void PackedDutHarness::tick(std::uint64_t mask) {
  sim_->poke(h_clk_, 1, mask);
  sim_->settle();
  sim_->poke(h_clk_, 0, mask);
  sim_->settle();
}

void PackedDutHarness::reset() {
  const std::uint64_t all = sim_->full_mask();
  sim_->poke(h_clk_, 0, all);
  sim_->poke(h_start_, 0, all);
  sim_->poke(h_rst_, 1, all);
  for (int i = 0; i < 3; ++i) tick(all);
  sim_->poke(h_rst_, 0, all);
  sim_->settle();
}

std::vector<std::vector<hls::PortIo>> PackedDutHarness::run_streams(
    const std::vector<std::vector<hls::PortIo>>& streams) {
  const int L = sim_->lanes();
  if (static_cast<int>(streams.size()) != L)
    fail("packed harness: " + std::to_string(streams.size()) +
         " streams for " + std::to_string(L) + " lanes");
  std::vector<std::vector<hls::PortIo>> outs(streams.size());
  std::size_t nvec = 0;
  for (const auto& s : streams) nvec = std::max(nvec, s.size());

  for (std::size_t v = 0; v < nvec; ++v) {
    std::uint64_t active = 0;
    for (int l = 0; l < L; ++l)
      if (v < streams[static_cast<std::size_t>(l)].size())
        active |= 1ULL << l;

    in_plane_.assign(static_cast<std::size_t>(L), 0);
    for (std::size_t i = 0; i < pins_.size(); ++i) {
      const auto& p = pins_[i];
      if (!p.is_input) continue;
      for (int l = 0; l < L; ++l)
        if ((active >> l) & 1)
          in_plane_[static_cast<std::size_t>(l)] =
              static_cast<std::uint64_t>(rtl::pin_value(
                  p, streams[static_cast<std::size_t>(l)][v]));
      sim_->poke_plane(pin_handle_[i], in_plane_.data(), active);
    }
    sim_->poke(h_start_, 1, active);
    tick(active);
    sim_->poke(h_start_, 0, active);
    // Lanes whose done arrived are clock-gated out of subsequent ticks, so
    // every lane sees exactly the edges its one-lane replay would.
    std::uint64_t waiting = active;
    for (long long cycles = 1;; ++cycles) {
      const std::uint64_t done = waiting & sim_->peek_nonzero_mask(h_done_);
      for (std::uint64_t m = done; m != 0; m &= m - 1)
        last_cycles_[static_cast<std::size_t>(std::countr_zero(m))] = cycles;
      waiting &= ~done;
      if (waiting == 0) break;
      if (cycles >= 1'000'000)
        throw std::runtime_error(
            "vsim harness: done never asserted — emitted FSM hung");
      tick(waiting);
    }

    for (int l = 0; l < L; ++l) {
      if (!((active >> l) & 1)) continue;
      hls::PortIo out;
      for (std::size_t i = 0; i < pins_.size(); ++i) {
        const auto& p = pins_[i];
        if (p.is_input) continue;
        const long long raw =
            p.sgn ? sim_->peek_signed(pin_handle_[i], l)
                  : static_cast<long long>(sim_->peek(pin_handle_[i], l));
        hls::FxValue* slot;
        if (p.from_array) {
          auto& vec = out.arrays[p.port];
          if (vec.size() <= static_cast<std::size_t>(p.index))
            vec.resize(static_cast<std::size_t>(p.index) + 1);
          slot = &vec[static_cast<std::size_t>(p.index)];
        } else {
          slot = &out.vars[p.port];
        }
        slot->fw = p.fw;
        slot->cplx = p.cplx;
        (p.re ? slot->re : slot->im) = raw;
      }
      outs[static_cast<std::size_t>(l)].push_back(std::move(out));
    }
  }
  return outs;
}

hls::CounterValues PackedDutHarness::read_counters(
    const std::vector<hls::PerfCounter>& map) const {
  hls::CounterValues out;
  out.source = std::string("vsim_") + sim_->backend();
  for (const hls::PerfCounter& c : map) {
    const int h = find_signal(sim_->design(), c.name);
    long long total = 0;
    for (int l = 0; l < sim_->lanes(); ++l)
      total += static_cast<long long>(sim_->peek(h, l));
    out.values[c.name] = total;
  }
  return out;
}

}  // namespace hlsw::vsim
