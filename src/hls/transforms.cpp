#include "hls/transforms.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlsw::hls {

void unroll_loop(Loop* loop, int u) {
  assert(u >= 1);
  // Any factor >= trip unrolls fully; capping it keeps the index scales
  // (scale * u below) those of the full unroll, so u = trip and u = 87
  // build the same hardware.
  u = std::min(u, std::max(loop->trip, 1));
  if (u == 1) return;
  const Block old = loop->body;
  const int n = static_cast<int>(old.ops.size());
  Block nb;
  // Copy j of the body handles original iteration k_old = u*k_new + j.
  std::vector<int> remap(static_cast<size_t>(n));
  for (int j = 0; j < u; ++j) {
    for (int i = 0; i < n; ++i) {
      Op op = old.ops[static_cast<size_t>(i)];
      const int g = op.guard_trip < 0 ? loop->trip : op.guard_trip;
      const int new_guard = (g - j + u - 1) / u;  // ceil((g-j)/u)
      if (new_guard <= 0) {
        // This copy never executes (trip not divisible by u); drop it but
        // keep the remap slot pointing at the previous copy so later args
        // in this copy (which are equally dead) still resolve.
        remap[static_cast<size_t>(i)] = j > 0 ? remap[static_cast<size_t>(i)]
                                              : -1;
        continue;
      }
      for (int& a : op.args) a = remap[static_cast<size_t>(a)];
      if (op.is_mem_access()) {
        op.idx.offset = op.idx.scale * j + op.idx.offset;
        op.idx.scale = op.idx.scale * u;
      }
      op.guard_trip = new_guard;
      nb.ops.push_back(std::move(op));
      remap[static_cast<size_t>(i)] = static_cast<int>(nb.ops.size()) - 1;
    }
  }
  loop->body = std::move(nb);
  loop->trip = (loop->trip + u - 1) / u;
  loop->unroll_applied *= u;
  // Tighten guards that now equal the new trip (fully active copies).
  for (Op& op : loop->body.ops)
    if (op.guard_trip >= loop->trip) op.guard_trip = -1;
}

namespace {

// Whether accesses a (iteration ka) and b (iteration kb) touch the same
// array element.
bool same_location(const Op& a, int ka, const Op& b, int kb) {
  return a.idx.eval(ka) == b.idx.eval(kb);
}

// Detects sequential-order violations introduced by merging loop `li`
// (earlier in program order) with loop `lj`: in the original program every
// access of li happens before every access of lj; after an iteration-
// aligned merge, lj's iteration kj precedes li's iteration ki whenever
// kj < ki. A conflicting access pair (at least one write, same element,
// kj < ki) therefore changes the value observed.
void analyze_merge_pair(const Function& f, const Loop& li, const Loop& lj,
                        std::vector<std::string>* warnings) {
  for (const Op& a : li.body.ops) {
    if (!a.is_mem_access()) continue;
    const int ga = a.guard_trip < 0 ? li.trip : a.guard_trip;
    for (const Op& b : lj.body.ops) {
      if (!b.is_mem_access() || b.array != a.array) continue;
      if (!a.is_write() && !b.is_write()) continue;
      const int gb = b.guard_trip < 0 ? lj.trip : b.guard_trip;
      bool hazard = false;
      for (int ki = 0; ki < ga && !hazard; ++ki)
        for (int kj = 0; kj < ki && kj < gb && !hazard; ++kj)
          if (same_location(a, ki, b, kj)) hazard = true;
      if (hazard) {
        std::ostringstream os;
        os << "merge reorders accesses to array '"
           << f.arrays[static_cast<size_t>(a.array)].name << "' between loop '"
           << li.label << "' and loop '" << lj.label
           << "': semantics follow the merged schedule, not the sequential "
              "source order";
        // Deduplicate.
        if (std::find(warnings->begin(), warnings->end(), os.str()) ==
            warnings->end())
          warnings->push_back(os.str());
      }
    }
  }
}

}  // namespace

void merge_loops(Function* f, const std::vector<std::string>& labels,
                 std::vector<std::string>* warnings) {
  if (labels.size() < 2) return;
  // Locate the member regions; they must be consecutive loop regions.
  std::vector<int> idx;
  for (const auto& label : labels) {
    int found = -1;
    for (std::size_t r = 0; r < f->regions.size(); ++r)
      if (f->regions[r].is_loop && f->regions[r].loop.label == label)
        found = static_cast<int>(r);
    if (found < 0) {
      warnings->push_back("merge group references unknown loop '" + label +
                          "'");
      return;
    }
    idx.push_back(found);
  }
  for (std::size_t i = 1; i < idx.size(); ++i) {
    if (idx[i] != idx[i - 1] + 1) {
      warnings->push_back(
          "merge group loops are not consecutive regions; merge skipped");
      return;
    }
  }

  // Pairwise dependence legality analysis (program order i < j).
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (std::size_t j = i + 1; j < idx.size(); ++j)
      analyze_merge_pair(*f, f->regions[static_cast<size_t>(idx[i])].loop,
                         f->regions[static_cast<size_t>(idx[j])].loop,
                         warnings);

  // Build the merged loop into the first member.
  Loop merged;
  merged.label = labels.front();
  merged.trip = 0;
  for (int r : idx)
    merged.trip =
        std::max(merged.trip, f->regions[static_cast<size_t>(r)].loop.trip);
  for (int r : idx) {
    const Loop& m = f->regions[static_cast<size_t>(r)].loop;
    merged.merged_labels.push_back(m.label);
    merged.unroll_applied = std::max(merged.unroll_applied, m.unroll_applied);
    const int base = static_cast<int>(merged.body.ops.size());
    for (Op op : m.body.ops) {
      for (int& a : op.args) a += base;
      if (op.guard_trip < 0 && m.trip < merged.trip) op.guard_trip = m.trip;
      op.src_loop = r;
      merged.body.ops.push_back(std::move(op));
    }
  }

  // Replace the first region, erase the rest.
  f->regions[static_cast<size_t>(idx.front())].loop = std::move(merged);
  f->regions[static_cast<size_t>(idx.front())].name = labels.front();
  f->regions.erase(f->regions.begin() + idx.front() + 1,
                   f->regions.begin() + idx.back() + 1);
}

TransformResult apply_transforms(const Function& input, const Directives& dir) {
  obs::ScopedSpan span("transforms", "hls");
  TransformResult out;
  out.func = input;

  // Array mapping directives. Port counts below 1 would leave the
  // scheduler with no cycle that can ever host an access (its placement
  // loop would search forever), so degenerate directives clamp to one
  // port with a warning.
  for (auto& arr : out.func.arrays) {
    const ArrayDirective ad = dir.array_directive(arr.name);
    arr.mapping = ad.mapping;
    arr.mem_read_ports = std::max(1, ad.mem_read_ports);
    arr.mem_write_ports = std::max(1, ad.mem_write_ports);
    if (arr.mapping == ArrayMapping::kMemory &&
        (ad.mem_read_ports < 1 || ad.mem_write_ports < 1)) {
      std::ostringstream os;
      os << "array '" << arr.name << "': memory port counts must be >= 1 "
         << "(got " << ad.mem_read_ports << "r/" << ad.mem_write_ports
         << "w); clamped to " << arr.mem_read_ports << "r/"
         << arr.mem_write_ports << "w";
      out.warnings.push_back(os.str());
    }
  }

  // Unroll first (Table 1 applies U to source loops, then merges).
  int loops_unrolled = 0;
  for (auto& region : out.func.regions) {
    if (!region.is_loop) continue;
    const LoopDirective ld = dir.loop_directive(region.loop.label);
    if (ld.unroll > 1) {
      unroll_loop(&region.loop, ld.unroll);
      ++loops_unrolled;
    }
  }

  // Then merge groups — explicit ones, or every maximal run of adjacent
  // loops when auto_merge is on (the paper's "default constraints").
  std::vector<std::vector<std::string>> groups = dir.merge_groups;
  if (groups.empty() && dir.auto_merge) {
    std::vector<std::string> run;
    for (const auto& region : out.func.regions) {
      if (region.is_loop) {
        run.push_back(region.loop.label);
      } else {
        if (run.size() > 1) groups.push_back(run);
        run.clear();
      }
    }
    if (run.size() > 1) groups.push_back(run);
  }
  for (const auto& group : groups) merge_loops(&out.func, group, &out.warnings);

  if (span.active()) {
    std::size_t ops = 0;
    for (const auto& region : out.func.regions)
      ops += (region.is_loop ? region.loop.body : region.straight).ops.size();
    span.arg("function", out.func.name);
    span.arg("loops_unrolled", loops_unrolled);
    span.arg("merge_groups", groups.size());
    span.arg("ops_out", ops);
    auto& m = obs::MetricsRegistry::instance();
    m.add("hls.transforms.runs");
    m.add("hls.transforms.loops_unrolled", loops_unrolled);
    m.add("hls.transforms.merge_groups", static_cast<double>(groups.size()));
    m.add("hls.transforms.ops_out", static_cast<double>(ops));
  }
  return out;
}

}  // namespace hlsw::hls
