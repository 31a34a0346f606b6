#include "hls/synth_cache.h"

#include <cstdio>
#include <cstring>

namespace hlsw::hls {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t function_fingerprint(const Function& f) {
  return fnv1a64(f.dump());
}

std::uint64_t tech_fingerprint(const TechLibrary& tech) {
  // Hashed from the raw value bits: every field participates, no
  // formatting round-trip. Keys are in-memory only, so the scheme is free
  // to change between builds — only injectivity per process matters.
  std::uint64_t h = fnv1a64(tech.name);
  const double vals[] = {tech.add_delay_base,      tech.add_delay_per_bit,
                         tech.mul_delay_base,      tech.mul_delay_per_bit,
                         tech.mul_delay_per_min_bit, tech.mux_delay,
                         tech.wire_delay,          tech.reg_margin,
                         tech.mem_access_delay,    tech.add_area_per_bit,
                         tech.mul_area_per_bit2,   tech.reg_area_per_bit,
                         tech.mux_area_per_bit,    tech.fsm_area_per_state,
                         tech.counter_area_per_bit, tech.mem_area_per_bit,
                         tech.mem_port_overhead,   tech.io_area_per_bit};
  for (const double v : vals) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string dse_cache_key(std::uint64_t func_fingerprint, const Directives& dir,
                          const TechLibrary& tech) {
  // Hot path: explore() builds two keys per candidate (three with pruning
  // on), so this avoids ostringstream in favor of direct appends.
  std::string key;
  key.reserve(160);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llx/%llx;clk=%.17g",
                static_cast<unsigned long long>(func_fingerprint),
                static_cast<unsigned long long>(tech_fingerprint(tech)),
                dir.clock_period_ns);
  key += buf;
  std::snprintf(buf, sizeof buf, ";am=%d;hs=%d;mrm=%d", dir.auto_merge ? 1 : 0,
                dir.handshake ? 1 : 0, dir.max_real_multipliers);
  key += buf;
  key += ";loops=";
  for (const auto& [label, ld] : dir.loops) {  // std::map: sorted order
    const int u = ld.unroll <= 1 ? 1 : ld.unroll;
    if (u == 1 && ld.pipeline_ii == 0) continue;  // default: omit
    key += label;
    std::snprintf(buf, sizeof buf, ":u%d:p%d,", u, ld.pipeline_ii);
    key += buf;
  }
  key += ";mg=";
  for (const auto& group : dir.merge_groups) {
    for (const auto& label : group) {
      key += label;
      key += '.';
    }
    key += '|';
  }
  key += ';';
  append_directive_env_key(dir, &key);
  return key;
}

void append_directive_env_key(const Directives& dir, std::string* key) {
  char buf[48];
  *key += "arr=";
  for (const auto& [name, ad] : dir.arrays) {
    if (ad.mapping == ArrayMapping::kRegisters && ad.mem_read_ports == 1 &&
        ad.mem_write_ports == 1)
      continue;  // default: omit
    *key += name;
    std::snprintf(buf, sizeof buf, ":%d:%d:%d,", static_cast<int>(ad.mapping),
                  ad.mem_read_ports, ad.mem_write_ports);
    *key += buf;
  }
  *key += ";if=";
  for (const auto& [name, kind] : dir.interfaces) {
    *key += name;
    std::snprintf(buf, sizeof buf, ":%d,", static_cast<int>(kind));
    *key += buf;
  }
}

bool SynthesisCache::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.find(key) != map_.end();
}

SynthesisCache::Metrics SynthesisCache::get_or_compute(
    const std::string& key, const std::function<Metrics()>& compute,
    bool* hit) {
  std::shared_future<Metrics> fut;
  std::promise<Metrics> prom;
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      fut = it->second;
    } else {
      fut = prom.get_future().share();
      map_.emplace(key, fut);
      claimed = true;
    }
  }
  if (hit) *hit = !claimed;
  if (!claimed) return fut.get();  // blocks if another thread is computing
  try {
    Metrics m = compute();
    prom.set_value(m);
    return m;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      map_.erase(key);  // allow a later call to retry
    }
    prom.set_exception(std::current_exception());
    throw;
  }
}

std::size_t SynthesisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void SynthesisCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace hlsw::hls
