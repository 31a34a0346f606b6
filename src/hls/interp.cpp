#include "hls/interp.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "hls/schedule.h"

namespace hlsw::hls {

namespace {

// The untimed sink: array writes land immediately, in program order, and
// executed ops are counted. No per-cycle work.
struct UntimedSink {
  std::vector<FxValue>* var_state = nullptr;
  std::vector<std::vector<FxValue>>* array_state = nullptr;
  long long ops_executed = 0;

  std::vector<FxValue>& vars() { return *var_state; }
  const std::vector<std::vector<FxValue>>& arrays() { return *array_state; }
  void write(int array, int idx, const FxValue& v) {
    (*array_state)[static_cast<std::size_t>(array)]
                  [static_cast<std::size_t>(idx)] = v;
  }
  void read(int) {}
  void ops(std::size_t, long long n) { ops_executed += n; }
  void enter(std::size_t, const RegionPlan&) {}
  void end_cycle() {}
};

// Aligns two raw components to a common fractional width.
void align(__int128& ar, __int128& ai, int fa, __int128& br, __int128& bi,
           int fb, int* fr) {
  if (fa >= fb) {
    br <<= (fa - fb);
    bi <<= (fa - fb);
    *fr = fa;
  } else {
    ar <<= (fb - fa);
    ai <<= (fb - fa);
    *fr = fb;
  }
}
}  // namespace

FxValue fx_add(const FxValue& a, const FxValue& b) {
  __int128 ar = a.re, ai = a.im, br = b.re, bi = b.im;
  FxValue r;
  align(ar, ai, a.fw, br, bi, b.fw, &r.fw);
  r.re = ar + br;
  r.im = ai + bi;
  r.cplx = a.cplx || b.cplx;
  return r;
}

FxValue fx_sub(const FxValue& a, const FxValue& b) {
  __int128 ar = a.re, ai = a.im, br = b.re, bi = b.im;
  FxValue r;
  align(ar, ai, a.fw, br, bi, b.fw, &r.fw);
  r.re = ar - br;
  r.im = ai - bi;
  r.cplx = a.cplx || b.cplx;
  return r;
}

FxValue fx_mul(const FxValue& a, const FxValue& b) {
  FxValue r;
  r.fw = a.fw + b.fw;
  r.cplx = a.cplx || b.cplx;
  // Uniform complex formula; scalars have im == 0 so it degenerates
  // correctly to scalar or scalar-by-complex multiplication.
  r.re = a.re * b.re - a.im * b.im;
  r.im = a.re * b.im + a.im * b.re;
  return r;
}

FxValue fx_neg(const FxValue& a) {
  FxValue r = a;
  r.re = -a.re;
  r.im = -a.im;
  return r;
}

FxValue fx_sign_conj(const FxValue& a) {
  FxValue r;
  r.fw = 0;
  r.cplx = true;
  r.re = a.re >= 0 ? 1 : -1;
  r.im = a.im >= 0 ? -1 : 1;
  return r;
}

FxValue exec_op(const Op& op, const FxValue* a0, const FxValue* a1) {
  switch (op.kind) {
    case OpKind::kConst:
      return op.cval;
    case OpKind::kAdd:
      return fx_convert(fx_add(*a0, *a1), op.type);
    case OpKind::kSub:
      return fx_convert(fx_sub(*a0, *a1), op.type);
    case OpKind::kMul:
      return fx_convert(fx_mul(*a0, *a1), op.type);
    case OpKind::kNeg:
      return fx_convert(fx_neg(*a0), op.type);
    case OpKind::kSignConj:
      return fx_sign_conj(*a0);
    case OpKind::kCast:
      return fx_convert(*a0, op.type);
    case OpKind::kReal: {
      FxValue r = *a0;
      r.im = 0;
      r.cplx = false;
      return r;
    }
    case OpKind::kImag: {
      FxValue r;
      r.fw = a0->fw;
      r.re = a0->im;
      r.cplx = false;
      return r;
    }
    case OpKind::kMakeComplex: {
      FxValue a = *a0, b = *a1;
      FxValue r;
      __int128 ai = 0, bi = 0;
      align(a.re, ai, a.fw, b.re, bi, b.fw, &r.fw);
      r.re = a.re;
      r.im = b.re;
      r.cplx = true;
      return fx_convert(r, op.type);
    }
    default:
      throw std::logic_error("exec_op: memory op passed to pure evaluator");
  }
}

PortBinding::PortBinding(const Function& f) {
  const auto is_in = [](PortDir d) {
    return d == PortDir::kIn || d == PortDir::kInOut;
  };
  const auto is_out = [](PortDir d) {
    return d == PortDir::kOut || d == PortDir::kInOut;
  };
  for (std::size_t i = 0; i < f.arrays.size(); ++i) {
    const Array& a = f.arrays[i];
    const Slot s{a.name, i, a.elem, static_cast<std::size_t>(a.length)};
    if (is_in(a.port)) in_arrays_.push_back(s);
    if (is_out(a.port)) out_arrays_.push_back(s);
  }
  for (std::size_t i = 0; i < f.vars.size(); ++i) {
    const Var& v = f.vars[i];
    const Slot s{v.name, i, v.type, 0};
    if (is_in(v.port)) in_vars_.push_back(s);
    if (is_out(v.port)) out_vars_.push_back(s);
  }
  for (auto* slots : {&in_arrays_, &in_vars_, &out_arrays_, &out_vars_})
    std::sort(slots->begin(), slots->end(),
              [](const Slot& a, const Slot& b) { return a.name < b.name; });
}

void PortBinding::load(const PortIo& in, std::vector<FxValue>* vars,
                       std::vector<std::vector<FxValue>>* arrays) const {
  auto ita = in.arrays.begin();
  for (const Slot& p : in_arrays_) {
    while (ita != in.arrays.end() && ita->first < p.name) ++ita;
    if (ita == in.arrays.end() || ita->first != p.name)
      throw std::invalid_argument("missing input array port: " + p.name);
    if (ita->second.size() != p.length)
      throw std::invalid_argument("input array port size mismatch: " +
                                  p.name);
    std::vector<FxValue>& dst = (*arrays)[p.index];
    for (std::size_t j = 0; j < p.length; ++j)
      dst[j] = fx_convert(ita->second[j], p.type);
  }
  auto itv = in.vars.begin();
  for (const Slot& p : in_vars_) {
    while (itv != in.vars.end() && itv->first < p.name) ++itv;
    if (itv == in.vars.end() || itv->first != p.name)
      throw std::invalid_argument("missing input var port: " + p.name);
    (*vars)[p.index] = fx_convert(itv->second, p.type);
  }
}

PortIo PortBinding::collect(
    const std::vector<FxValue>& vars,
    const std::vector<std::vector<FxValue>>& arrays) const {
  PortIo out;
  for (const Slot& p : out_arrays_)
    out.arrays.emplace_hint(out.arrays.end(), p.name, arrays[p.index]);
  for (const Slot& p : out_vars_)
    out.vars.emplace_hint(out.vars.end(), p.name, vars[p.index]);
  return out;
}

Interpreter::Interpreter(Function f)
    : f_(std::move(f)), plan_(f_, untimed_schedule(f_)), ports_(f_) {
  for (std::size_t i = 0; i < f_.vars.size(); ++i)
    var_index_.emplace(f_.vars[i].name, static_cast<int>(i));
  for (std::size_t i = 0; i < f_.arrays.size(); ++i)
    array_index_.emplace(f_.arrays[i].name, static_cast<int>(i));
  reset();
}

int Interpreter::cached_var_index(const std::string& name) const {
  const auto it = var_index_.find(name);
  return it == var_index_.end() ? -1 : it->second;
}

int Interpreter::cached_array_index(const std::string& name) const {
  const auto it = array_index_.find(name);
  return it == array_index_.end() ? -1 : it->second;
}

void Interpreter::reset() { initial_state(f_, &var_state_, &array_state_); }

const std::vector<FxValue>& Interpreter::array_state(
    const std::string& name) const {
  const int i = cached_array_index(name);
  assert(i >= 0);
  return array_state_[static_cast<size_t>(i)];
}

const FxValue& Interpreter::var_state(const std::string& name) const {
  const int i = cached_var_index(name);
  assert(i >= 0);
  return var_state_[static_cast<size_t>(i)];
}

void Interpreter::set_array_state(const std::string& name,
                                  const std::vector<FxValue>& values) {
  const int i = cached_array_index(name);
  assert(i >= 0);
  const Array& a = f_.arrays[static_cast<size_t>(i)];
  assert(static_cast<int>(values.size()) == a.length);
  for (int j = 0; j < a.length; ++j)
    array_state_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
        fx_convert(values[static_cast<size_t>(j)], a.elem);
}

void Interpreter::set_var_state(const std::string& name, const FxValue& value) {
  const int i = cached_var_index(name);
  assert(i >= 0);
  var_state_[static_cast<size_t>(i)] =
      fx_convert(value, f_.vars[static_cast<size_t>(i)].type);
}

PortIo Interpreter::run(const PortIo& in) {
  ports_.load(in, &var_state_, &array_state_);
  UntimedSink sink{&var_state_, &array_state_};
  plan_.run(sink);
  ops_executed_ += sink.ops_executed;
  return ports_.collect(var_state_, array_state_);
}

std::vector<PortIo> Interpreter::run_stream(const std::vector<PortIo>& ins) {
  std::vector<PortIo> outs;
  outs.reserve(ins.size());
  for (const auto& in : ins) outs.push_back(run(in));
  return outs;
}

}  // namespace hlsw::hls
