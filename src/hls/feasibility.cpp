#include "hls/feasibility.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fixpt/bitwidth.h"
#include "hls/schedule.h"
#include "hls/synth_cache.h"
#include "hls/transforms.h"

namespace hlsw::hls {

const char* to_string(InfeasibleKind k) {
  switch (k) {
    case InfeasibleKind::kNone:
      return "none";
    case InfeasibleKind::kUnrollOverTrip:
      return "unroll_over_trip";
    case InfeasibleKind::kMergeConflict:
      return "merge_conflict";
    case InfeasibleKind::kDegenerateDirective:
      return "degenerate_directive";
    case InfeasibleKind::kIiBelowRecurrence:
      return "ii_below_recurrence";
    case InfeasibleKind::kIiBelowBandwidth:
      return "ii_below_bandwidth";
  }
  return "?";
}

namespace {

int value_bits(const FxType& t) { return t.w * (t.cplx ? 2 : 1); }

// One region of the transformed design, simulated from the directives
// without running apply_transforms: unroll divides the trip (ceil), a
// merge keeps the first member's label and the max member trip, in region
// order. `members` records the source loops folded in and their unroll
// factors — together with the clock/multiplier-cap environment they
// determine the merged body exactly, which is what lets floor results be
// shared across shapes that only differ in sibling directives.
struct SimRegion {
  bool is_loop;
  std::string label;
  int trip;
  std::vector<std::pair<std::string, int>> members;  // (source label, unroll)
};

// Canonicalization state: the directives being rewritten toward their
// metrics-equivalent normal form, plus the first violation found (the
// verdict reports the structurally most fundamental change), plus the
// simulated post-transform structure.
struct Canon {
  Directives dir;
  InfeasibleKind kind = InfeasibleKind::kNone;
  std::string reason;
  bool changed = false;
  std::vector<SimRegion> structure;
};

void flag(Canon* c, InfeasibleKind kind, const std::string& reason) {
  c->changed = true;
  if (c->kind == InfeasibleKind::kNone) {
    c->kind = kind;
    c->reason = reason;
  }
}

// Rewrites `c->dir` into the form apply_transforms + schedule_function
// provably treat identically, flagging every rewrite that alters the
// canonical cache key (= every rewrite a cache would otherwise miss on).
// Rewrites that the key canonicalization already absorbs (unroll <= 1
// entries, default array entries) stay silent.
void canonicalize_structure(const Function& f, Canon* c) {
  // Loop labels in region order (merge_loops resolves a label to its LAST
  // matching region, mirrored below via the map overwrite).
  std::vector<std::string> order;
  std::map<std::string, int> trips;
  for (const auto& region : f.regions) {
    if (!region.is_loop) continue;
    order.push_back(region.loop.label);
    trips[region.loop.label] = region.loop.trip;
  }

  // --- Per-loop entries: unknown labels, degenerate values, over-unroll.
  for (auto it = c->dir.loops.begin(); it != c->dir.loops.end();) {
    LoopDirective& ld = it->second;
    const bool key_visible = ld.unroll > 1 || ld.pipeline_ii != 0;
    auto t = trips.find(it->first);
    if (t == trips.end()) {
      // No region carries this label; the scheduler never looks it up.
      if (key_visible)
        flag(c, InfeasibleKind::kMergeConflict,
             "loop directive targets unknown loop '" + it->first + "'");
      it = c->dir.loops.erase(it);
      continue;
    }
    if (ld.unroll < 1) ld.unroll = 1;  // key-equivalent already
    if (ld.unroll > t->second) {
      std::ostringstream os;
      os << "loop '" << it->first << "': unroll " << ld.unroll
         << " exceeds trip count " << t->second;
      flag(c, InfeasibleKind::kUnrollOverTrip, os.str());
      ld.unroll = t->second;
    }
    if (ld.pipeline_ii < 0) {
      std::ostringstream os;
      os << "loop '" << it->first << "': pipeline_ii " << ld.pipeline_ii
         << " is negative; treated as not pipelined";
      flag(c, InfeasibleKind::kDegenerateDirective, os.str());
      ld.pipeline_ii = 0;
    }
    ++it;
  }

  // --- Array entries: port counts the transform engine clamps anyway.
  for (auto it = c->dir.arrays.begin(); it != c->dir.arrays.end();) {
    ArrayDirective& ad = it->second;
    if (f.array_index(it->first) < 0) {
      const bool key_visible = !(ad.mapping == ArrayMapping::kRegisters &&
                                 ad.mem_read_ports == 1 &&
                                 ad.mem_write_ports == 1);
      if (key_visible)
        flag(c, InfeasibleKind::kDegenerateDirective,
             "array directive targets unknown array '" + it->first + "'");
      it = c->dir.arrays.erase(it);
      continue;
    }
    if (ad.mem_read_ports < 1 || ad.mem_write_ports < 1) {
      std::ostringstream os;
      os << "array '" << it->first << "': memory port counts must be >= 1 "
         << "(got " << ad.mem_read_ports << "r/" << ad.mem_write_ports
         << "w)";
      flag(c, InfeasibleKind::kDegenerateDirective, os.str());
      ad.mem_read_ports = std::max(1, ad.mem_read_ports);
      ad.mem_write_ports = std::max(1, ad.mem_write_ports);
    }
    ++it;
  }

  // --- Merge groups: replay merge_loops' acceptance test on a simulated
  // region list (groups apply in order; earlier merges change what later
  // groups see) and drop every group the engine would refuse. The same
  // simulation yields the transformed structure: unroll first (trip
  // becomes ceil(trip/U), mirroring apply_transforms' order), merges take
  // the max member trip.
  std::vector<SimRegion> sim;
  for (const auto& region : f.regions) {
    if (!region.is_loop) {
      sim.push_back({false, region.name, 1, {}});
      continue;
    }
    const int u =
        std::max(1, c->dir.loop_directive(region.loop.label).unroll);
    sim.push_back({true,
                   region.loop.label,
                   (region.loop.trip + u - 1) / u,
                   {{region.loop.label, u}}});
  }

  const bool had_explicit = !c->dir.merge_groups.empty();
  std::vector<std::vector<std::string>> groups = c->dir.merge_groups;
  if (groups.empty() && c->dir.auto_merge) {
    // Auto-derived maximal runs are consecutive loops by construction:
    // they always apply, but we still need the merged-away labels below.
    std::vector<std::string> run;
    for (const auto& r : sim) {
      if (r.is_loop) {
        run.push_back(r.label);
      } else {
        if (run.size() > 1) groups.push_back(run);
        run.clear();
      }
    }
    if (run.size() > 1) groups.push_back(run);
  }

  std::set<std::string> merged_away;
  std::vector<std::vector<std::string>> kept;
  for (const auto& group : groups) {
    if (group.size() < 2) {
      if (had_explicit)
        flag(c, InfeasibleKind::kMergeConflict,
             "merge group needs at least two labels");
      continue;  // merge_loops ignores it
    }
    std::vector<int> idx;
    bool ok = true;
    for (const auto& label : group) {
      int found = -1;
      for (std::size_t r = 0; r < sim.size(); ++r)
        if (sim[r].is_loop && sim[r].label == label)
          found = static_cast<int>(r);
      if (found < 0) {
        if (had_explicit)
          flag(c, InfeasibleKind::kMergeConflict,
               "merge group references unknown loop '" + label + "'");
        ok = false;
        break;
      }
      idx.push_back(found);
    }
    if (ok)
      for (std::size_t i = 1; i < idx.size(); ++i)
        if (idx[i] != idx[i - 1] + 1) {
          if (had_explicit)
            flag(c, InfeasibleKind::kMergeConflict,
                 "merge group loops are not consecutive regions");
          ok = false;
          break;
        }
    if (!ok) continue;
    kept.push_back(group);
    for (std::size_t i = 1; i < group.size(); ++i)
      merged_away.insert(group[i]);
    SimRegion& front_region = sim[static_cast<size_t>(idx.front())];
    for (int r = idx.front() + 1; r <= idx.back(); ++r) {
      SimRegion& member = sim[static_cast<size_t>(r)];
      front_region.trip = std::max(front_region.trip, member.trip);
      front_region.members.insert(front_region.members.end(),
                                  member.members.begin(),
                                  member.members.end());
    }
    front_region.label = group.front();
    sim.erase(sim.begin() + idx.front() + 1, sim.begin() + idx.back() + 1);
  }
  if (had_explicit) {
    c->dir.merge_groups = kept;
    // Dropping every explicit group must not re-enable the auto-merge
    // fallback the original directives suppressed.
    if (kept.empty() && c->dir.auto_merge) c->dir.auto_merge = false;
  }

  // --- Pipeline directives on loops that no longer exist after merging:
  // schedule_function only looks up surviving labels, so the request is
  // silently dead — canonicalize it away (unroll still applies pre-merge).
  for (auto& [label, ld] : c->dir.loops) {
    if (ld.pipeline_ii < 1 || !merged_away.count(label)) continue;
    std::ostringstream os;
    os << "loop '" << label
       << "': pipeline directive targets a loop merged away";
    flag(c, InfeasibleKind::kMergeConflict, os.str());
    ld.pipeline_ii = 0;
  }

  c->structure = std::move(sim);
}

// ---------------------------------------------------------------------------
// Relaxed schedule: the scheduler's greedy placement with every resource
// check dropped (memory ports, multiplier cap). Resources only ever push
// ops to later cycles, so each op's relaxed (cycle, end) is a
// component-wise lex lower bound on its true placement, and the relaxed
// block cycle count lower-bounds the true one.
int relaxed_block_cycles(const Function& f, const Block& b, int trip,
                         const Directives& dir, const TechLibrary& tech) {
  const int n = static_cast<int>(b.ops.size());
  if (n == 0) return 1;
  const double budget = dir.clock_period_ns - tech.reg_margin;
  const auto deps = build_block_deps(f, b, trip);
  std::vector<int> cyc(static_cast<size_t>(n), 0);
  std::vector<double> end(static_cast<size_t>(n), 0);
  int cycles = 0;
  for (int i = 0; i < n; ++i) {
    const double delay = op_cost(f, b, i, tech).delay;
    int earliest = 0;
    for (const BlockDep& d : deps[static_cast<size_t>(i)]) {
      const int pc = cyc[static_cast<size_t>(d.from)];
      earliest = std::max(earliest,
                          d.kind == BlockDepKind::kNextCycle ||
                                  d.kind == BlockDepKind::kWaw
                              ? pc + 1
                              : pc);
    }
    for (int cycle = earliest;; ++cycle) {
      double start = 0;
      for (const BlockDep& d : deps[static_cast<size_t>(i)]) {
        if (d.kind != BlockDepKind::kData && d.kind != BlockDepKind::kVarFwd)
          continue;
        if (cyc[static_cast<size_t>(d.from)] == cycle)
          start = std::max(start, end[static_cast<size_t>(d.from)]);
      }
      if (start + delay <= budget || delay > budget) {
        cyc[static_cast<size_t>(i)] = cycle;
        end[static_cast<size_t>(i)] = start + delay;
        break;
      }
    }
    cycles = std::max(cycles, cyc[static_cast<size_t>(i)] + 1);
  }
  return cycles;
}

// DP cost cap: recurrence analysis is O(reads * ops * edges); beyond this
// block size it degrades to the trivial (still sound) bound of 1.
constexpr int kMaxRecurrenceOps = 512;

// Lower bound on the initiation interval the scheduler's recurrence check
// will impose, without the schedule. For each loop-carried write->read
// pair the scheduler needs ceil((cw + 1 - cr) / d) where cw/cr are the
// ops' true cycles and d the smallest aliasing distance. We lower-bound
// cw - cr by a forward DP from the read: Bound{c, t} on op u means "u's
// true cycle >= cr + c, and if equal, u's end time >= t". Chain steps
// mirror the scheduler's fits rule exactly; joins take the lex max.
// Writes not reachable from the read contribute nothing (sound: the
// result only ever under-approximates the scheduler's value).
int recurrence_lb(const Function& f, const Block& b, int trip,
                  const Directives& dir, const TechLibrary& tech) {
  const int n = static_cast<int>(b.ops.size());
  if (trip < 2 || n == 0 || n > kMaxRecurrenceOps) return 1;
  const double budget = dir.clock_period_ns - tech.reg_margin;
  const auto deps = build_block_deps(f, b, trip);
  std::vector<double> delay(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) delay[static_cast<size_t>(i)] = op_cost(f, b, i, tech).delay;

  // Carried pairs, keyed by read op: (write op, smallest aliasing distance).
  struct Pair {
    int w;
    int d;
  };
  std::map<int, std::vector<Pair>> pairs_by_read;
  for (int w = 0; w < n; ++w) {
    const Op& wop = b.ops[static_cast<size_t>(w)];
    if (!wop.is_write()) continue;
    for (int r = 0; r < n; ++r) {
      const Op& rop = b.ops[static_cast<size_t>(r)];
      const bool var_pair = wop.kind == OpKind::kVarWrite &&
                            rop.kind == OpKind::kVarRead && rop.var == wop.var;
      const bool arr_pair = wop.kind == OpKind::kArrayWrite &&
                            rop.kind == OpKind::kArrayRead &&
                            rop.array == wop.array;
      if (!var_pair && !arr_pair) continue;
      if (w <= r) continue;  // DP only reaches ops after the read
      int dist = -1;
      for (int d = 1; d < trip; ++d) {
        if (arr_pair && !may_alias(wop, rop, d, trip)) continue;
        dist = d;  // the smallest distance dominates (scheduler breaks here)
        break;
      }
      if (dist > 0) pairs_by_read[r].push_back({w, dist});
    }
  }

  int min_ii = 1;
  std::vector<int> c(static_cast<size_t>(n));
  std::vector<double> t(static_cast<size_t>(n));
  for (const auto& [r, pairs] : pairs_by_read) {
    std::fill(c.begin(), c.end(), INT_MIN);
    c[static_cast<size_t>(r)] = 0;
    t[static_cast<size_t>(r)] = delay[static_cast<size_t>(r)];
    for (int i = r + 1; i < n; ++i) {
      for (const BlockDep& d : deps[static_cast<size_t>(i)]) {
        if (c[static_cast<size_t>(d.from)] == INT_MIN) continue;
        const int cu = c[static_cast<size_t>(d.from)];
        const double tu = t[static_cast<size_t>(d.from)];
        int cc;
        double tt;
        switch (d.kind) {
          case BlockDepKind::kData:
          case BlockDepKind::kVarFwd:
            if (tu + delay[static_cast<size_t>(i)] <= budget ||
                delay[static_cast<size_t>(i)] > budget) {
              cc = cu;
              tt = tu + delay[static_cast<size_t>(i)];
            } else {
              cc = cu + 1;
              tt = delay[static_cast<size_t>(i)];
            }
            break;
          case BlockDepKind::kNextCycle:
          case BlockDepKind::kWaw:
            cc = cu + 1;
            tt = delay[static_cast<size_t>(i)];
            break;
          case BlockDepKind::kOrder:
          default:
            cc = cu;
            tt = delay[static_cast<size_t>(i)];
            break;
        }
        if (cc > c[static_cast<size_t>(i)] ||
            (cc == c[static_cast<size_t>(i)] && tt > t[static_cast<size_t>(i)]))
          c[static_cast<size_t>(i)] = cc, t[static_cast<size_t>(i)] = tt;
      }
    }
    for (const Pair& p : pairs) {
      if (c[static_cast<size_t>(p.w)] == INT_MIN) continue;
      const int cw_rel = c[static_cast<size_t>(p.w)];  // cw - cr >= cw_rel
      if (cw_rel + 1 <= 0) continue;
      min_ii = std::max(min_ii, (cw_rel + 1 + p.d - 1) / p.d);
    }
  }
  return min_ii;
}

// ---------------------------------------------------------------------------
// Area lower bound: the schedule-independent terms of bind_design /
// estimate_area computed exactly (storage, steering muxes, counters,
// interface bits, memories), plus provable floors for the schedule-
// dependent terms: per FU kind, the largest atomic demand any single op
// places on the pool in its cycle, and at least one FSM state per relaxed
// body cycle.
// Pipeline registers and FU-sharing muxes are >= 0 and omitted. Assumes
// the tech model's area queries are monotone with non-negative
// coefficients (true of asic90 and fpga_lut4).
double area_lb(const Function& f, const Directives& dir,
               const TechLibrary& tech, const std::vector<int>& relaxed) {
  double max_mul = 0, max_add = 0;
  long long storage_bits = 0, mem_bits = 0, io_bits = 0, io_reg_bits = 0;
  int mem_ports = 0, fsm_states = 0, counter_bits = 0;
  double mux = 0;

  for (const auto& region : f.regions) {
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      // A single op's primitive requests all land in one cycle, so the FU
      // pool must hold at least real_mults multipliers (each at least this
      // op's size) simultaneously — bind_design can never share below that.
      const OpCost cst = op_cost(f, b, static_cast<int>(i), tech);
      if (cst.real_mults > 0)
        max_mul = std::max(max_mul,
                           cst.real_mults * tech.mul_area(cst.wa, cst.wb));
      if (cst.real_adds > 0)
        max_add = std::max(max_add, cst.real_adds * tech.add_area(cst.add_w));
    }
  }

  for (const auto& v : f.vars) storage_bits += value_bits(v.type);
  for (const auto& a : f.arrays) {
    const long long bits = static_cast<long long>(a.length) * value_bits(a.elem);
    if (a.mapping == ArrayMapping::kMemory) {
      mem_bits += bits;
      mem_ports += a.mem_read_ports + a.mem_write_ports;
    } else {
      storage_bits += bits;
    }
  }

  // Steering muxes, mirroring bind_design's walk exactly (pure IR).
  std::vector<int> var_writers(f.vars.size(), 0);
  std::vector<std::vector<int>> elem_writers(f.arrays.size());
  for (std::size_t a = 0; a < f.arrays.size(); ++a)
    elem_writers[a].assign(static_cast<size_t>(f.arrays[a].length), 0);
  for (const auto& region : f.regions) {
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    const int trip = region.is_loop ? region.loop.trip : 1;
    for (const Op& op : b.ops) {
      if (op.kind == OpKind::kVarWrite) {
        ++var_writers[static_cast<size_t>(op.var)];
      } else if (op.kind == OpKind::kArrayWrite &&
                 f.arrays[static_cast<size_t>(op.array)].mapping ==
                     ArrayMapping::kRegisters) {
        const int g = op.guard_trip < 0 ? trip : op.guard_trip;
        for (int k = 0; k < g; ++k) {
          const int idx = op.idx.eval(k);
          if (idx >= 0 && idx < f.arrays[static_cast<size_t>(op.array)].length)
            ++elem_writers[static_cast<size_t>(op.array)]
                          [static_cast<size_t>(idx)];
        }
      } else if (op.kind == OpKind::kArrayRead && op.idx.scale != 0 &&
                 f.arrays[static_cast<size_t>(op.array)].mapping ==
                     ArrayMapping::kRegisters) {
        const Array& arr = f.arrays[static_cast<size_t>(op.array)];
        const int g = op.guard_trip < 0 ? trip : op.guard_trip;
        std::set<int> touched;
        for (int k = 0; k < g; ++k) touched.insert(op.idx.eval(k));
        mux += tech.mux_area(static_cast<int>(touched.size()),
                             value_bits(arr.elem));
      }
    }
  }
  for (std::size_t v = 0; v < f.vars.size(); ++v)
    mux += tech.mux_area(var_writers[v], value_bits(f.vars[v].type));
  for (std::size_t a = 0; a < f.arrays.size(); ++a)
    for (int w : elem_writers[a])
      mux += tech.mux_area(w, value_bits(f.arrays[a].elem));

  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    fsm_states += relaxed[r];
    if (f.regions[r].is_loop)
      counter_bits += fixpt::clog2(
          static_cast<unsigned long long>(f.regions[r].loop.trip) + 1);
  }
  if (dir.handshake) fsm_states += 1;

  auto iface_of = [&](const std::string& name) {
    auto it = dir.interfaces.find(name);
    return it == dir.interfaces.end() ? InterfaceKind::kWire : it->second;
  };
  for (const auto& v : f.vars) {
    if (v.port == PortDir::kNone) continue;
    const int bits = value_bits(v.type);
    switch (iface_of(v.name)) {
      case InterfaceKind::kRegistered:
        io_reg_bits += bits;
        io_bits += bits;
        break;
      case InterfaceKind::kHandshake:
        io_reg_bits += bits;
        io_bits += bits + 2;
        break;
      default:
        io_bits += bits;
        break;
    }
  }
  for (const auto& a : f.arrays) {
    if (a.port == PortDir::kNone) continue;
    const long long full = static_cast<long long>(a.length) * value_bits(a.elem);
    switch (iface_of(a.name)) {
      case InterfaceKind::kStream:
        io_bits += value_bits(a.elem) + 2;
        counter_bits +=
            fixpt::clog2(static_cast<unsigned long long>(a.length) + 1);
        break;
      case InterfaceKind::kRegistered:
        io_reg_bits += full;
        io_bits += full;
        break;
      case InterfaceKind::kHandshake:
        io_reg_bits += full;
        io_bits += full + 2;
        break;
      default:
        io_bits += full;
        break;
    }
  }

  return max_mul + max_add +
         tech.reg_area(static_cast<int>(storage_bits + io_reg_bits)) + mux +
         tech.fsm_area(fsm_states, counter_bits) +
         (mem_bits > 0 ? tech.mem_area(static_cast<int>(mem_bits), mem_ports)
                       : 0) +
         tech.io_area_per_bit * static_cast<double>(io_bits);
}

}  // namespace

// One analyzed transform shape: the expensive, pipeline-II-independent
// part of a verdict. Candidates differing only in requested IIs share an
// entry; their floors accumulate lazily per loop label.
struct FeasibilityCache::Impl {
  struct Entry {
    TransformResult tf;  // materialized on demand (floor misses, bounds)
    bool has_tf = false;
    std::string env_key;  // array/interface fragment for the floor memo
    std::map<std::string, std::pair<int, int>> floors;  // label -> (bw, rec)
  };
  std::unordered_map<std::string, Entry> entries;
  // Cross-shape floor memo: the same merged/unrolled loop body recurs
  // across many shapes (a sibling loop's directives change the shape key
  // but not this body). Hits avoid materializing the transform at all.
  std::unordered_map<std::string, std::pair<int, int>> floor_memo;

  static void materialize(const Function& f, const Directives& shape,
                          const std::vector<SimRegion>& structure, Entry* e);
};

void FeasibilityCache::Impl::materialize(
    const Function& f, const Directives& shape,
    const std::vector<SimRegion>& structure, Entry* e) {
  if (e->has_tf) return;
  // The transformed design the scheduler would actually see. Canonical and
  // original directives transform to metrics-identical IR by construction.
  e->tf = apply_transforms(f, shape);
  e->has_tf = true;
  // Floors and bounds index into the simulated structure; it must mirror
  // the engine exactly. Fail loudly on any divergence.
  bool ok = e->tf.func.regions.size() == structure.size();
  for (std::size_t r = 0; ok && r < structure.size(); ++r) {
    const auto& region = e->tf.func.regions[r];
    ok = region.is_loop == structure[r].is_loop &&
         (!region.is_loop || (region.loop.label == structure[r].label &&
                              region.loop.trip == structure[r].trip));
  }
  if (!ok)
    throw std::logic_error(
        "check_feasibility: simulated transform structure diverged from "
        "apply_transforms");
}

FeasibilityCache::FeasibilityCache() : impl_(std::make_unique<Impl>()) {}
FeasibilityCache::~FeasibilityCache() = default;

FeasibilityVerdict check_feasibility(const Function& f, const Directives& dir,
                                     const TechLibrary& tech,
                                     DesignBounds* bounds,
                                     FeasibilityCache* cache) {
  Canon canon;
  canon.dir = dir;
  canonicalize_structure(f, &canon);
  const std::vector<SimRegion>& structure = canon.structure;

  // The transform, the relaxed schedule and the area bound never read
  // pipeline_ii (transforms are unroll/merge/array-mapping only; the II
  // floors below are per-loop and cached separately), so the expensive
  // analysis is keyed on the canonical directives with the II axis erased.
  Directives shape = canon.dir;
  for (auto& [label, ld] : shape.loops) ld.pipeline_ii = 0;
  FeasibilityCache::Impl local_impl;
  FeasibilityCache::Impl* impl = cache ? cache->impl_.get() : &local_impl;
  auto [eit, fresh] =
      impl->entries.try_emplace(dse_cache_key(0, shape, tech));
  FeasibilityCache::Impl::Entry* e = &eit->second;
  if (fresh) append_directive_env_key(shape, &e->env_key);

  // Pipeline II floors on the transformed bodies: the scheduler raises a
  // requested II to at least max(recurrence, bandwidth); a request below
  // that floor synthesizes identically to the floor itself.
  for (std::size_t r = 0; r < structure.size(); ++r) {
    const SimRegion& info = structure[r];
    if (!info.is_loop) continue;
    const LoopDirective ld = canon.dir.loop_directive(info.label);
    if (ld.pipeline_ii < 1) continue;
    auto fit = e->floors.find(info.label);
    if (fit == e->floors.end()) {
      // Cross-shape memo: the merged body is determined by the member
      // source loops and their unroll factors; the floor additionally
      // depends on the clock, the multiplier cap and the array/interface
      // environment — all part of the key. The transform is materialized
      // only when this memo misses too.
      std::string mkey;
      mkey.reserve(e->env_key.size() + 64);
      mkey += e->env_key;
      char buf[64];
      std::snprintf(buf, sizeof buf, ";clk=%.17g;mrm=%d;trip=%d;m=",
                    shape.clock_period_ns, shape.max_real_multipliers,
                    info.trip);
      mkey += buf;
      for (const auto& [src, u] : info.members) {
        mkey += src;
        std::snprintf(buf, sizeof buf, ":%d,", u);
        mkey += buf;
      }
      auto [mit, mfresh] = impl->floor_memo.try_emplace(mkey);
      if (mfresh) {
        impl->materialize(f, shape, structure, e);
        const Block& body = e->tf.func.regions[r].loop.body;
        mit->second = {
            bandwidth_min_ii(e->tf.func, body, shape, tech),
            recurrence_lb(e->tf.func, body, info.trip, shape, tech)};
      }
      fit = e->floors.emplace(info.label, mit->second).first;
    }
    const int bw = fit->second.first;
    const int rec = fit->second.second;
    const int floor_ii = std::max(rec, bw);
    if (ld.pipeline_ii < floor_ii) {
      std::ostringstream os;
      os << "loop '" << info.label << "': pipeline_ii " << ld.pipeline_ii
         << " is below the "
         << (rec >= bw ? "loop-carried recurrence"
                       : "memory-port/multiplier bandwidth")
         << " floor of " << floor_ii;
      flag(&canon,
           rec >= bw ? InfeasibleKind::kIiBelowRecurrence
                     : InfeasibleKind::kIiBelowBandwidth,
           os.str());
      canon.dir.loops[info.label].pipeline_ii = floor_ii;
    }
  }

  // Bounds: each transformed region body's relaxed cycle count recombined
  // with the candidate's (clamped) initiation intervals, plus one cycle
  // per element of every streamed array port.
  if (bounds) {
    impl->materialize(f, shape, structure, e);
    const Function& tf = e->tf.func;
    std::vector<int> relaxed(tf.regions.size());
    int min_lat = 0;
    for (std::size_t r = 0; r < tf.regions.size(); ++r) {
      const auto& region = tf.regions[r];
      const Block& b = region.is_loop ? region.loop.body : region.straight;
      const int trip = structure[r].trip;
      const int rc = relaxed_block_cycles(tf, b, trip, shape, tech);
      relaxed[r] = rc;
      if (!region.is_loop) {
        min_lat += rc;
        continue;
      }
      const int ii = canon.dir.loop_directive(structure[r].label).pipeline_ii;
      min_lat += ii >= 1 ? rc + (trip - 1) * ii : trip * rc;
    }
    for (const auto& a : f.arrays) {
      if (a.port == PortDir::kNone) continue;
      auto it = shape.interfaces.find(a.name);
      if (it != shape.interfaces.end() && it->second == InterfaceKind::kStream)
        min_lat += a.length;
    }
    bounds->min_latency_cycles = min_lat;
    bounds->min_area = area_lb(tf, shape, tech, relaxed);
  }

  FeasibilityVerdict v;
  if (canon.changed) {
    v.status = FeasibilityStatus::kInfeasible;
    v.kind = canon.kind;
    v.reason = std::move(canon.reason);
  }
  v.clamped = std::move(canon.dir);
  return v;
}

}  // namespace hlsw::hls
