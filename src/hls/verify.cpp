#include "hls/verify.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>

#include "obs/trace.h"

namespace hlsw::hls {

namespace {

void violation(std::vector<std::string>* out, const std::string& region,
               const std::string& what) {
  out->push_back("region '" + region + "': " + what);
}

void verify_block(const Function& f, const Directives& dir,
                  const TechLibrary& tech, const std::string& label,
                  const Block& b, const BlockSchedule& bs, int trip,
                  std::vector<std::string>* out) {
  const double budget = dir.clock_period_ns - tech.reg_margin;
  if (bs.place.size() != b.ops.size()) {
    violation(out, label, "placement count mismatch");
    return;
  }

  // Rule 1: data operands available — producer cycle <= consumer cycle,
  // and same-cycle producers finish before the consumer starts.
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const Op& op = b.ops[i];
    for (int a : op.args) {
      const auto& pp = bs.place[static_cast<size_t>(a)];
      const auto& pc = bs.place[i];
      if (pp.cycle > pc.cycle) {
        std::ostringstream os;
        os << "op %" << i << " consumes %" << a
           << " scheduled in a later cycle";
        violation(out, label, os.str());
      } else if (pp.cycle == pc.cycle && pp.end > pc.start + 1e-9) {
        std::ostringstream os;
        os << "op %" << i << " starts at " << pc.start
           << " ns before same-cycle producer %" << a << " ends at "
           << pp.end << " ns";
        violation(out, label, os.str());
      }
    }
  }

  // Rule 2: memory ordering.
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const Op& op = b.ops[i];
    for (std::size_t e = 0; e < i; ++e) {
      const Op& prev = b.ops[e];
      // Scalars: read-after-write may share a cycle (forwarding); a write
      // must never be scheduled before a program-earlier read or write.
      if (op.var >= 0 && prev.var == op.var) {
        const bool later_write = op.kind == OpKind::kVarWrite;
        if (later_write && bs.place[i].cycle < bs.place[e].cycle) {
          std::ostringstream os;
          os << "var write %" << i << " precedes program-earlier access %"
             << e;
          violation(out, label, os.str());
        }
        if (op.kind == OpKind::kVarRead && prev.kind == OpKind::kVarWrite &&
            bs.place[i].cycle < bs.place[e].cycle) {
          std::ostringstream os;
          os << "var read %" << i << " precedes its writer %" << e;
          violation(out, label, os.str());
        }
      }
      // Arrays: committed at cycle edges.
      if (op.array >= 0 && prev.array == op.array &&
          may_alias(prev, op, 0, trip)) {
        if (prev.kind == OpKind::kArrayWrite &&
            op.kind == OpKind::kArrayRead &&
            bs.place[i].cycle <= bs.place[e].cycle) {
          std::ostringstream os;
          os << "array read %" << i << " in the same cycle as (or before) "
             << "its writer %" << e << " — registers cannot forward";
          violation(out, label, os.str());
        }
        if (prev.kind == OpKind::kArrayRead &&
            op.kind == OpKind::kArrayWrite &&
            bs.place[i].cycle < bs.place[e].cycle) {
          std::ostringstream os;
          os << "array write %" << i << " precedes program-earlier read %"
             << e;
          violation(out, label, os.str());
        }
        if (prev.kind == OpKind::kArrayWrite &&
            op.kind == OpKind::kArrayWrite &&
            bs.place[i].cycle <= bs.place[e].cycle) {
          std::ostringstream os;
          os << "conflicting array writes %" << e << " and %" << i
             << " share a cycle";
          violation(out, label, os.str());
        }
      }
    }
  }

  // Rule 3: chaining budget — end = start + delay within the cycle, and
  // within the budget unless the op alone exceeds it (reported already by
  // the scheduler as unachievable; here it is a violation).
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const OpCost cost = op_cost(f, b, static_cast<int>(i), tech);
    const auto& p = bs.place[i];
    if (p.end < p.start + cost.delay - 1e-9) {
      std::ostringstream os;
      os << "op %" << i << " end time underestimates its delay";
      violation(out, label, os.str());
    }
    if (cost.delay <= budget && p.end > budget + 1e-9) {
      std::ostringstream os;
      os << "op %" << i << " chain exceeds the cycle budget (" << p.end
         << " > " << budget << " ns)";
      violation(out, label, os.str());
    }
  }

  // Rule 4: resource caps per cycle. A cycle may exceed the multiplier cap
  // only when it holds a single op whose own usage is above the cap — the
  // scheduler places such ops alone (they could never fit otherwise).
  std::map<int, int> mults;
  std::map<int, int> mults_biggest;
  std::map<std::pair<int, int>, std::pair<int, int>> mem_use;  // (arr,cyc)->(r,w)
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const OpCost cost = op_cost(f, b, static_cast<int>(i), tech);
    mults[bs.place[i].cycle] += cost.real_mults;
    mults_biggest[bs.place[i].cycle] =
        std::max(mults_biggest[bs.place[i].cycle], cost.real_mults);
    const Op& op = b.ops[i];
    if (op.array >= 0 &&
        f.arrays[static_cast<size_t>(op.array)].mapping ==
            ArrayMapping::kMemory) {
      auto& use = mem_use[{op.array, bs.place[i].cycle}];
      if (op.kind == OpKind::kArrayRead) ++use.first;
      if (op.kind == OpKind::kArrayWrite) ++use.second;
    }
  }
  if (dir.max_real_multipliers > 0)
    for (const auto& [cycle, n] : mults)
      if (n > dir.max_real_multipliers &&
          !(n == mults_biggest[cycle] &&
            mults_biggest[cycle] > dir.max_real_multipliers)) {
        std::ostringstream os;
        os << "cycle " << cycle << " uses " << n << " multipliers (cap "
           << dir.max_real_multipliers << ")";
        violation(out, label, os.str());
      }
  for (const auto& [key, use] : mem_use) {
    const Array& arr = f.arrays[static_cast<size_t>(key.first)];
    if (use.first > arr.mem_read_ports || use.second > arr.mem_write_ports) {
      std::ostringstream os;
      os << "memory '" << arr.name << "' over-subscribed in cycle "
         << key.second;
      violation(out, label, os.str());
    }
  }
}

}  // namespace

std::vector<std::string> verify_schedule(const Function& f,
                                         const Directives& dir,
                                         const TechLibrary& tech,
                                         const Schedule& s) {
  std::vector<std::string> out;
  if (f.regions.size() != s.regions.size()) {
    out.push_back("region count mismatch between function and schedule");
    return out;
  }
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    verify_block(f, dir, tech, s.regions[r].label, b, s.regions[r].body,
                 region.is_loop ? region.loop.trip : 1, &out);
    // Loop accounting.
    const auto& rs = s.regions[r];
    if (region.is_loop) {
      const int expect = rs.ii > 0 ? rs.body.cycles + (rs.trip - 1) * rs.ii
                                   : rs.trip * rs.body.cycles;
      if (rs.total_cycles != expect)
        out.push_back("loop '" + rs.label + "' total_cycles inconsistent");
    }
  }
  return out;
}

namespace {

std::string fx_repr(const FxValue& v) {
  std::ostringstream os;
  os << v.re_double();
  if (v.cplx) os << (v.im_double() < 0 ? "" : "+") << v.im_double() << "j";
  os << " (fw=" << v.fw << ")";
  return os.str();
}

}  // namespace

void compare_outputs(std::size_t vec, const PortIo& want, const PortIo& got,
                     std::vector<std::string>* out) {
  const auto mismatch = [&](const std::string& what) {
    std::ostringstream os;
    os << "vector " << vec << ": " << what;
    out->push_back(os.str());
  };
  for (const auto& [name, wv] : want.arrays) {
    const auto it = got.arrays.find(name);
    if (it == got.arrays.end()) {
      mismatch("dut missing output array '" + name + "'");
      continue;
    }
    if (it->second.size() != wv.size()) {
      mismatch("output array '" + name + "' length differs");
      continue;
    }
    for (std::size_t j = 0; j < wv.size(); ++j)
      if (!(it->second[j] == wv[j])) {
        std::ostringstream os;
        os << "output array '" << name << "'[" << j
           << "]: golden=" << fx_repr(wv[j])
           << " dut=" << fx_repr(it->second[j]);
        mismatch(os.str());
      }
  }
  for (const auto& [name, wv] : want.vars) {
    const auto it = got.vars.find(name);
    if (it == got.vars.end()) {
      mismatch("dut missing output var '" + name + "'");
      continue;
    }
    if (!(it->second == wv))
      mismatch("output var '" + name + "': golden=" + fx_repr(wv) +
               " dut=" + fx_repr(it->second));
  }
  for (const auto& [name, gv] : got.arrays)
    if (!want.arrays.count(name))
      mismatch("dut has extra output array '" + name + "'");
  for (const auto& [name, gv] : got.vars)
    if (!want.vars.count(name))
      mismatch("dut has extra output var '" + name + "'");
}

namespace {

// Applies CosimOptions::mismatch_limit to a joined result.
void cap_mismatches(std::size_t limit, CosimResult* result) {
  result->total_mismatches = result->mismatches.size();
  if (limit == 0 || result->mismatches.size() <= limit) return;
  const std::size_t suppressed = result->mismatches.size() - limit;
  result->mismatches.resize(limit);
  result->mismatches.push_back("... " + std::to_string(suppressed) +
                               " more mismatches suppressed");
}

// The vectors of block `blk`.
std::vector<PortIo> block_vectors(const std::vector<PortIo>& vectors,
                                  std::size_t bs, std::size_t blk) {
  const std::size_t begin = blk * bs;
  const std::size_t end = std::min(begin + bs, vectors.size());
  return {vectors.begin() + static_cast<long>(begin),
          vectors.begin() + static_cast<long>(end)};
}

}  // namespace

CosimResult sweep_blocks(const std::vector<PortIo>& vectors,
                         const CosimOptions& opts, std::size_t blocks_per_task,
                         const SweepTask& task) {
  CosimResult result;
  result.vectors = vectors.size();
  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  result.blocks = (vectors.size() + bs - 1) / bs;
  const std::size_t per = std::max<std::size_t>(1, blocks_per_task);
  auto per_task = util::map_ordered(
      opts.pool, (result.blocks + per - 1) / per, [&](std::size_t t) {
        return task(t * per, std::min(per, result.blocks - t * per));
      });
  for (auto& mism : per_task)
    result.mismatches.insert(result.mismatches.end(),
                             std::make_move_iterator(mism.begin()),
                             std::make_move_iterator(mism.end()));
  cap_mismatches(opts.mismatch_limit, &result);
  return result;
}

CosimFactory interpreter_factory(const Function& f) {
  auto compiled = std::make_shared<const Interpreter>(f);
  return [compiled]() -> CosimModel {
    return [compiled](const std::vector<PortIo>& ins) {
      return Interpreter(*compiled).run_stream(ins);
    };
  };
}

CosimResult cosim_sweep(const CosimFactory& golden, const CosimFactory& dut,
                        const std::vector<PortIo>& vectors,
                        const CosimOptions& opts) {
  obs::ScopedSpan span("cosim_sweep", "hls.verify");
  // Each block is replayed from reset by models the task itself creates,
  // so no simulator state is shared across threads.
  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  const CosimResult result = sweep_blocks(
      vectors, opts, 1, [&](std::size_t blk, std::size_t) {
        const std::vector<PortIo> block = block_vectors(vectors, bs, blk);
        const std::vector<PortIo> want = golden()(block);
        const std::vector<PortIo> got = dut()(block);
        std::vector<std::string> mism;
        if (want.size() != block.size() || got.size() != block.size()) {
          mism.push_back("block " + std::to_string(blk) +
                         ": model returned wrong vector count");
          return mism;
        }
        for (std::size_t i = 0; i < block.size(); ++i)
          compare_outputs(blk * bs + i, want[i], got[i], &mism);
        return mism;
      });
  if (span.active()) {
    span.arg("vectors", static_cast<long long>(result.vectors));
    span.arg("blocks", static_cast<long long>(result.blocks));
    span.arg("mismatches", static_cast<long long>(result.total_mismatches));
  }
  return result;
}

CosimResult cosim_sweep_nway(const std::vector<CosimLeg>& legs,
                             const std::vector<PortIo>& vectors,
                             const CosimOptions& opts) {
  obs::ScopedSpan span("cosim_sweep_nway", "hls.verify");
  if (legs.size() < 2) {
    // A one-leg call is a usage error even with nothing to sweep.
    CosimResult result;
    result.vectors = vectors.size();
    result.mismatches.push_back(
        "cosim_sweep_nway needs a reference and at least one other leg");
    result.total_mismatches = 1;
    return result;
  }
  const std::size_t bs = std::max<std::size_t>(1, opts.block_size);
  const CosimResult result = sweep_blocks(
      vectors, opts, 1, [&](std::size_t blk, std::size_t) {
        const std::vector<PortIo> block = block_vectors(vectors, bs, blk);
        std::vector<std::string> mism;
        const std::vector<PortIo> want = legs[0].factory()(block);
        if (want.size() != block.size()) {
          mism.push_back("block " + std::to_string(blk) + ": reference leg '" +
                         legs[0].name + "' returned wrong vector count");
          return mism;
        }
        for (std::size_t l = 1; l < legs.size(); ++l) {
          const std::vector<PortIo> got = legs[l].factory()(block);
          if (got.size() != block.size()) {
            mism.push_back("block " + std::to_string(blk) + ": leg '" +
                           legs[l].name + "' returned wrong vector count");
            continue;
          }
          std::vector<std::string> leg_mism;
          for (std::size_t i = 0; i < block.size(); ++i)
            compare_outputs(blk * bs + i, want[i], got[i], &leg_mism);
          for (auto& m : leg_mism)
            mism.push_back(legs[l].name + " vs " + legs[0].name + ": " +
                           std::move(m));
        }
        return mism;
      });
  if (span.active()) {
    span.arg("legs", static_cast<long long>(legs.size()));
    span.arg("vectors", static_cast<long long>(result.vectors));
    span.arg("mismatches", static_cast<long long>(result.total_mismatches));
  }
  return result;
}

}  // namespace hlsw::hls
