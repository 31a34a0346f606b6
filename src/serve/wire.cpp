#include "serve/wire.h"

#include <climits>
#include <cmath>
#include <cstdlib>

namespace hlsw::serve {

namespace {

using obs::Json;

constexpr long long kIntMin = INT_MIN;
constexpr long long kIntMax = INT_MAX;

bool fail(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

// Decimal text for a signed 128-bit raw component (no locale, no allocation
// surprises — the exactness contract of the codec).
std::string int128_to_string(__int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 u =
      neg ? static_cast<unsigned __int128>(-(v + 1)) + 1
          : static_cast<unsigned __int128>(v);
  char buf[48];
  int i = 48;
  while (u > 0) {
    buf[--i] = static_cast<char>('0' + static_cast<int>(u % 10));
    u /= 10;
  }
  if (neg) buf[--i] = '-';
  return std::string(buf + i, buf + 48);
}

bool int128_from_string(const std::string& s, __int128* out) {
  if (s.empty()) return false;
  std::size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return false;
  unsigned __int128 u = 0;
  constexpr unsigned __int128 kMax = ~static_cast<unsigned __int128>(0);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    const unsigned d = static_cast<unsigned>(s[i] - '0');
    if (u > (kMax - d) / 10) return false;  // overflow
    u = u * 10 + d;
  }
  // Clamp-check against the signed range.
  constexpr unsigned __int128 kSignedMax =
      (~static_cast<unsigned __int128>(0)) >> 1;
  if (neg) {
    if (u > kSignedMax + 1) return false;
    *out = u == kSignedMax + 1
               ? -static_cast<__int128>(kSignedMax) - 1
               : -static_cast<__int128>(u);
  } else {
    if (u > kSignedMax) return false;
    *out = static_cast<__int128>(u);
  }
  return true;
}

// ---- Small typed getters (path-prefixed errors) ----

bool want_object(const Json& j, const std::string& path, std::string* err) {
  if (j.is_object()) return true;
  return fail(err, path + ": expected object");
}

// Absent keys leave *out untouched.
bool get_int_field(const Json& obj, const std::string& path,
                   const std::string& key, long long lo, long long hi,
                   long long* out, std::string* err) {
  const Json* v = obj.find(key);
  return v == nullptr || int_from_json(*v, path + "." + key, lo, hi, out, err);
}

// get_int_field for an int destination.
bool get_int_field(const Json& obj, const std::string& path,
                   const std::string& key, long long lo, long long hi,
                   int* out, std::string* err) {
  long long v = *out;
  if (!get_int_field(obj, path, key, lo, hi, &v, err)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool get_num_field(const Json& obj, const std::string& path,
                   const std::string& key, double* out, bool* present,
                   std::string* err) {
  const Json* v = obj.find(key);
  if (present) *present = v != nullptr;
  if (v == nullptr) return true;
  if (!v->is_number())
    return fail(err, path + "." + key + ": expected number");
  *out = v->as_double();
  return true;
}

bool get_bool_field(const Json& obj, const std::string& path,
                    const std::string& key, bool* out, std::string* err) {
  const Json* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool())
    return fail(err, path + "." + key + ": expected bool");
  *out = v->as_bool();
  return true;
}

bool get_int_list(const Json& obj, const std::string& path,
                  const std::string& key, long long lo, long long hi,
                  std::vector<int>* out, std::string* err) {
  const Json* v = obj.find(key);
  if (v == nullptr) return true;
  const std::string kp = path + "." + key;
  if (!v->is_array()) return fail(err, kp + ": expected array of numbers");
  if (v->size() > kMaxDseAxis)
    return fail(err, kp + ": at most " + std::to_string(kMaxDseAxis) +
                         " entries");
  out->clear();
  for (std::size_t i = 0; i < v->size(); ++i) {
    long long x = 0;
    if (!int_from_json(v->at(i), kp + "[" + std::to_string(i) + "]", lo, hi,
                       &x, err))
      return false;
    out->push_back(static_cast<int>(x));
  }
  return true;
}

bool check_keys(const Json& obj, const std::string& path,
                std::initializer_list<const char*> allowed,
                std::string* err) {
  for (const auto& [key, value] : obj.items()) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed) ok = ok || key == a;
    if (!ok) return fail(err, path + ": unknown key '" + key + "'");
  }
  return true;
}

const char* interface_name(hls::InterfaceKind k) {
  switch (k) {
    case hls::InterfaceKind::kWire: return "wire";
    case hls::InterfaceKind::kRegistered: return "registered";
    case hls::InterfaceKind::kHandshake: return "handshake";
    case hls::InterfaceKind::kMemory: return "memory";
    case hls::InterfaceKind::kStream: return "stream";
  }
  return "?";
}

bool interface_from_name(const std::string& s, hls::InterfaceKind* out) {
  if (s == "wire") *out = hls::InterfaceKind::kWire;
  else if (s == "registered") *out = hls::InterfaceKind::kRegistered;
  else if (s == "handshake") *out = hls::InterfaceKind::kHandshake;
  else if (s == "memory") *out = hls::InterfaceKind::kMemory;
  else if (s == "stream") *out = hls::InterfaceKind::kStream;
  else return false;
  return true;
}

}  // namespace

bool int_from_json(const Json& j, const std::string& path, long long lo,
                   long long hi, long long* out, std::string* err) {
  if (!j.is_number()) return fail(err, path + ": expected number");
  const double d = j.as_double();
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) ||
      d != std::trunc(d))
    return fail(err, path + ": expected an integer in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) +
                         "]");
  *out = static_cast<long long>(d);
  return true;
}

Json directives_to_json(const hls::Directives& dir) {
  Json j = Json::object();
  j.set("clock_period_ns", dir.clock_period_ns);
  if (!dir.loops.empty()) {
    Json loops = Json::object();
    for (const auto& [label, ld] : dir.loops)
      loops.set(label, Json::object()
                           .set("unroll", ld.unroll)
                           .set("pipeline_ii", ld.pipeline_ii));
    j.set("loops", std::move(loops));
  }
  if (!dir.merge_groups.empty()) {
    Json groups = Json::array();
    for (const auto& g : dir.merge_groups) {
      Json group = Json::array();
      for (const auto& label : g) group.push(label);
      groups.push(std::move(group));
    }
    j.set("merge_groups", std::move(groups));
  }
  if (dir.auto_merge) j.set("auto_merge", true);
  if (!dir.arrays.empty()) {
    Json arrays = Json::object();
    for (const auto& [name, ad] : dir.arrays)
      arrays.set(name,
                 Json::object()
                     .set("mapping", ad.mapping == hls::ArrayMapping::kMemory
                                         ? "memory"
                                         : "registers")
                     .set("mem_read_ports", ad.mem_read_ports)
                     .set("mem_write_ports", ad.mem_write_ports));
    j.set("arrays", std::move(arrays));
  }
  if (!dir.interfaces.empty()) {
    Json ifs = Json::object();
    for (const auto& [name, kind] : dir.interfaces)
      ifs.set(name, interface_name(kind));
    j.set("interfaces", std::move(ifs));
  }
  if (dir.handshake) j.set("handshake", true);
  if (dir.max_real_multipliers != 0)
    j.set("max_real_multipliers", dir.max_real_multipliers);
  return j;
}

bool directives_from_json(const Json& j, hls::Directives* out,
                          std::string* err) {
  const std::string path = "directives";
  if (!want_object(j, path, err)) return false;
  if (!check_keys(j, path,
                  {"clock_period_ns", "loops", "merge_groups", "auto_merge",
                   "arrays", "interfaces", "handshake",
                   "max_real_multipliers"},
                  err))
    return false;
  hls::Directives dir;
  if (!get_num_field(j, path, "clock_period_ns", &dir.clock_period_ns,
                     nullptr, err))
    return false;
  if (!(std::isfinite(dir.clock_period_ns) && dir.clock_period_ns > 0))
    return fail(err, path + ".clock_period_ns: must be finite and > 0");
  if (const Json* loops = j.find("loops")) {
    if (!want_object(*loops, path + ".loops", err)) return false;
    for (const auto& [label, ld] : loops->items()) {
      const std::string lp = path + ".loops." + label;
      if (!want_object(ld, lp, err)) return false;
      if (!check_keys(ld, lp, {"unroll", "pipeline_ii"}, err)) return false;
      hls::LoopDirective d;
      if (!get_int_field(ld, lp, "unroll", kIntMin, kIntMax, &d.unroll, err) ||
          !get_int_field(ld, lp, "pipeline_ii", kIntMin, kMaxPipelineIi,
                         &d.pipeline_ii, err))
        return false;
      dir.loops[label] = d;
    }
  }
  if (const Json* groups = j.find("merge_groups")) {
    if (!groups->is_array())
      return fail(err, path + ".merge_groups: expected array of arrays");
    for (std::size_t gi = 0; gi < groups->size(); ++gi) {
      const Json& g = groups->at(gi);
      if (!g.is_array())
        return fail(err, path + ".merge_groups[" + std::to_string(gi) +
                             "]: expected array of strings");
      std::vector<std::string> labels;
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (!g.at(i).is_string())
          return fail(err, path + ".merge_groups[" + std::to_string(gi) +
                               "][" + std::to_string(i) +
                               "]: expected string");
        labels.push_back(g.at(i).as_string());
      }
      dir.merge_groups.push_back(std::move(labels));
    }
  }
  if (!get_bool_field(j, path, "auto_merge", &dir.auto_merge, err))
    return false;
  if (const Json* arrays = j.find("arrays")) {
    if (!want_object(*arrays, path + ".arrays", err)) return false;
    for (const auto& [name, ad] : arrays->items()) {
      const std::string ap = path + ".arrays." + name;
      if (!want_object(ad, ap, err)) return false;
      if (!check_keys(ad, ap, {"mapping", "mem_read_ports", "mem_write_ports"},
                      err))
        return false;
      hls::ArrayDirective d;
      if (const Json* m = ad.find("mapping")) {
        if (!m->is_string())
          return fail(err, ap + ".mapping: expected string");
        if (m->as_string() == "memory")
          d.mapping = hls::ArrayMapping::kMemory;
        else if (m->as_string() == "registers")
          d.mapping = hls::ArrayMapping::kRegisters;
        else
          return fail(err, ap + ".mapping: expected 'registers' or 'memory'");
      }
      if (!get_int_field(ad, ap, "mem_read_ports", kIntMin, kIntMax,
                         &d.mem_read_ports, err) ||
          !get_int_field(ad, ap, "mem_write_ports", kIntMin, kIntMax,
                         &d.mem_write_ports, err))
        return false;
      dir.arrays[name] = d;
    }
  }
  if (const Json* ifs = j.find("interfaces")) {
    if (!want_object(*ifs, path + ".interfaces", err)) return false;
    for (const auto& [name, kind] : ifs->items()) {
      if (!kind.is_string())
        return fail(err, path + ".interfaces." + name + ": expected string");
      hls::InterfaceKind k;
      if (!interface_from_name(kind.as_string(), &k))
        return fail(err, path + ".interfaces." + name +
                             ": unknown interface kind '" +
                             kind.as_string() + "'");
      dir.interfaces[name] = k;
    }
  }
  if (!get_bool_field(j, path, "handshake", &dir.handshake, err))
    return false;
  if (!get_int_field(j, path, "max_real_multipliers", kIntMin, kIntMax,
                     &dir.max_real_multipliers, err))
    return false;
  *out = std::move(dir);
  return true;
}

Json fxvalue_to_json(const hls::FxValue& v) {
  Json j = Json::object();
  j.set("re", int128_to_string(v.re));
  if (v.cplx) j.set("im", int128_to_string(v.im));
  j.set("fw", v.fw);
  if (v.cplx) j.set("cplx", true);
  return j;
}

bool fxvalue_from_json(const Json& j, hls::FxValue* out, std::string* err) {
  if (!want_object(j, "value", err)) return false;
  if (!check_keys(j, "value", {"re", "im", "fw", "cplx"}, err)) return false;
  hls::FxValue v;
  const Json* re = j.find("re");
  if (re == nullptr || !re->is_string())
    return fail(err, "value.re: expected decimal string");
  if (!int128_from_string(re->as_string(), &v.re))
    return fail(err, "value.re: not a decimal integer: " + re->as_string());
  if (!get_bool_field(j, "value", "cplx", &v.cplx, err)) return false;
  if (const Json* im = j.find("im")) {
    if (!im->is_string())
      return fail(err, "value.im: expected decimal string");
    if (!int128_from_string(im->as_string(), &v.im))
      return fail(err, "value.im: not a decimal integer: " + im->as_string());
  }
  if (!get_int_field(j, "value", "fw", -kMaxFracWidth, kMaxFracWidth, &v.fw,
                     err))
    return false;
  *out = v;
  return true;
}

Json portio_to_json(const hls::PortIo& io) {
  Json j = Json::object();
  if (!io.vars.empty()) {
    Json vars = Json::object();
    for (const auto& [name, v] : io.vars) vars.set(name, fxvalue_to_json(v));
    j.set("vars", std::move(vars));
  }
  if (!io.arrays.empty()) {
    Json arrays = Json::object();
    for (const auto& [name, vals] : io.arrays) {
      Json arr = Json::array();
      for (const auto& v : vals) arr.push(fxvalue_to_json(v));
      arrays.set(name, std::move(arr));
    }
    j.set("arrays", std::move(arrays));
  }
  return j;
}

bool portio_from_json(const Json& j, hls::PortIo* out, std::string* err) {
  if (!want_object(j, "vector", err)) return false;
  if (!check_keys(j, "vector", {"vars", "arrays"}, err)) return false;
  hls::PortIo io;
  std::string sub;
  if (const Json* vars = j.find("vars")) {
    if (!want_object(*vars, "vector.vars", err)) return false;
    for (const auto& [name, v] : vars->items()) {
      hls::FxValue fx;
      if (!fxvalue_from_json(v, &fx, &sub))
        return fail(err, "vector.vars." + name + ": " + sub);
      io.vars[name] = fx;
    }
  }
  if (const Json* arrays = j.find("arrays")) {
    if (!want_object(*arrays, "vector.arrays", err)) return false;
    for (const auto& [name, vals] : arrays->items()) {
      if (!vals.is_array())
        return fail(err, "vector.arrays." + name + ": expected array");
      std::vector<hls::FxValue> fx(vals.size());
      for (std::size_t i = 0; i < vals.size(); ++i)
        if (!fxvalue_from_json(vals.at(i), &fx[i], &sub))
          return fail(err, "vector.arrays." + name + "[" +
                               std::to_string(i) + "]: " + sub);
      io.arrays[name] = std::move(fx);
    }
  }
  *out = std::move(io);
  return true;
}

Json vectors_to_json(const std::vector<hls::PortIo>& vectors) {
  Json j = Json::array();
  for (const auto& io : vectors) j.push(portio_to_json(io));
  return j;
}

bool vectors_from_json(const Json& j, std::vector<hls::PortIo>* out,
                       std::string* err) {
  if (!j.is_array()) return fail(err, "vectors: expected array");
  out->clear();
  out->resize(j.size());
  std::string sub;
  for (std::size_t i = 0; i < j.size(); ++i)
    if (!portio_from_json(j.at(i), &(*out)[i], &sub))
      return fail(err, "vectors[" + std::to_string(i) + "]: " + sub);
  return true;
}

bool tech_from_json(const Json* j, hls::TechLibrary* out, std::string* err) {
  if (j == nullptr) {
    *out = hls::TechLibrary::asic90();
    return true;
  }
  if (!j->is_string())
    return fail(err, "tech: expected string ('asic90' or 'fpga_lut4')");
  const std::string& name = j->as_string();
  if (name == "asic90") *out = hls::TechLibrary::asic90();
  else if (name == "fpga_lut4") *out = hls::TechLibrary::fpga_lut4();
  else return fail(err, "tech: unknown library '" + name + "'");
  return true;
}

bool dse_options_from_json(const Json* j, hls::DseOptions* out,
                           std::string* err) {
  if (j == nullptr) return true;
  const std::string path = "options";
  if (!want_object(*j, path, err)) return false;
  if (!check_keys(*j, path,
                  {"clock_period_ns", "unroll_factors", "pipeline_iis",
                   "try_merge", "try_no_merge", "prune", "max_configs"},
                  err))
    return false;
  if (!get_num_field(*j, path, "clock_period_ns", &out->clock_period_ns,
                     nullptr, err))
    return false;
  if (!get_int_list(*j, path, "unroll_factors", kIntMin, kIntMax,
                    &out->unroll_factors, err) ||
      !get_int_list(*j, path, "pipeline_iis", kIntMin, kMaxPipelineIi,
                    &out->pipeline_iis, err))
    return false;
  if (!get_bool_field(*j, path, "try_merge", &out->try_merge, err))
    return false;
  if (!get_bool_field(*j, path, "try_no_merge", &out->try_no_merge, err))
    return false;
  if (!get_bool_field(*j, path, "prune", &out->prune, err)) return false;
  return get_int_field(*j, path, "max_configs", kIntMin, kIntMax,
                       &out->max_configs, err);
}

bool cosim_options_from_json(const Json* j, hls::CosimOptions* out,
                             std::string* err) {
  if (j == nullptr) return true;
  const std::string path = "options";
  if (!want_object(*j, path, err)) return false;
  if (!check_keys(*j, path, {"block_size", "mismatch_limit"}, err))
    return false;
  long long v = static_cast<long long>(out->block_size);
  if (!get_int_field(*j, path, "block_size", 1, kMaxJsonInt, &v, err))
    return false;
  out->block_size = static_cast<std::size_t>(v);
  v = static_cast<long long>(out->mismatch_limit);
  if (!get_int_field(*j, path, "mismatch_limit", 0, kMaxJsonInt, &v, err))
    return false;
  out->mismatch_limit = static_cast<std::size_t>(v);
  return true;
}

Json cosim_result_to_json(const hls::CosimResult& r) {
  Json mism = Json::array();
  for (const std::string& m : r.mismatches) mism.push(m);
  return Json::object()
      .set("vectors", static_cast<long long>(r.vectors))
      .set("blocks", static_cast<long long>(r.blocks))
      .set("total_mismatches", static_cast<long long>(r.total_mismatches))
      .set("mismatches", std::move(mism))
      .set("ok", r.ok());
}

}  // namespace hlsw::serve
