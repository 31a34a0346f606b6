#include "hls/interp.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "hls/schedule.h"

namespace hlsw::hls {

namespace {

// The untimed sink over lane-major planes of S: row r's lanes are
// rows[r*L, r*L + L). Array writes land immediately, in program order,
// and executed ops are counted for the lanes that carry a symbol. No
// per-cycle work.
template <class S, int L>
struct PlaneSink {
  S* rows = nullptr;
  const int* var_row = nullptr;
  const int* arr_row = nullptr;
  long long lanes = 1;  // lanes carrying a symbol in this run
  long long ops_executed = 0;

  S* var(int v) const { return rows + var_row[v] * L; }
  S* elem(int a, int idx) const { return rows + (arr_row[a] + 2 * idx) * L; }

  template <class T>
  static void copy(const S* from, T* d) {
    for (int l = 0; l < 2 * L; ++l) d[l] = static_cast<T>(from[l]);
  }
  // At one lane the store is forced inline, like the conversion helpers
  // it wraps: as a call, every var and array write cost the one-lane
  // golden about 8%. At more lanes it stays one call per row, which keeps
  // the lane executors small (inlined, they ran 17% slower at -O2).
  template <class T>
  static void store(S* to, const ConvSpec& cs, const T* s) {
    plan_detail::store_rows<T, L>(to, to + L, s, cs);
  }
  template <class T>
    requires(L == 1)
  [[gnu::always_inline]] static void store(S* to, const ConvSpec& cs,
                                           const T* s) {
    plan_detail::store_rows<T, L>(to, to + L, s, cs);
  }
  template <class T>
  void load_var(int v, T* d) { copy(var(v), d); }
  template <class T>
  void store_var(int v, const ConvSpec& cs, const T* s) {
    store(var(v), cs, s);
  }
  template <class T>
  void load_elem(int a, int idx, T* d) { copy(elem(a, idx), d); }
  template <class T>
  void store_elem(int a, int idx, const ConvSpec& cs, const T* s) {
    store(elem(a, idx), cs, s);
  }
  void ops(std::size_t, long long n) { ops_executed += n * lanes; }
  void enter(std::size_t, const RegionPlan&) {}
  void end_cycle() {}
};

// Lane `lane` of the row pair at `row` (re lanes, then im lanes) as a
// value of the declared type `t`, and the store of a value converted into
// that type.
template <class S, int L>
FxValue lane_value(const S* row, int lane, const FxType& t) {
  FxValue v;
  v.re = row[lane];
  v.im = row[L + lane];
  v.fw = t.fw();
  v.cplx = t.cplx;
  return v;
}
template <class S, int L>
void set_lane(S* row, int lane, const FxValue& v) {
  row[lane] = static_cast<S>(v.re);
  row[L + lane] = static_cast<S>(v.im);
}

// Loads `in` into lane `lane` of the sink's planes through `ports`.
template <class S, int L>
void load_lane(const PortBinding& ports, const PortIo& in,
               const PlaneSink<S, L>& st, int lane) {
  ports.load(
      in,
      [&](std::size_t v, const FxValue& x) {
        set_lane<S, L>(st.var(static_cast<int>(v)), lane, x);
      },
      [&](std::size_t a, std::size_t j, const FxValue& x) {
        set_lane<S, L>(st.elem(static_cast<int>(a), static_cast<int>(j)),
                       lane, x);
      });
}

// Lane `lane`'s output ports.
template <class S, int L>
PortIo collect_lane(const PortBinding& ports, const PlaneSink<S, L>& st,
                    int lane) {
  return ports.collect(
      [&](std::size_t v, const FxType& t) {
        return lane_value<S, L>(st.var(static_cast<int>(v)), lane, t);
      },
      [&](std::size_t a, const FxType& t, std::size_t n) {
        std::vector<FxValue> out;
        out.reserve(n);
        for (std::size_t j = 0; j < n; ++j)
          out.push_back(lane_value<S, L>(
              st.elem(static_cast<int>(a), static_cast<int>(j)), lane, t));
        return out;
      });
}

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

Interpreter::Interpreter(Function f)
    : f_(std::move(f)), plan_(f_, untimed_schedule(f_)), ports_(f_) {
  std::vector<FxValue> vars;
  std::vector<std::vector<FxValue>> arrays;
  initial_state(f_, &vars, &arrays);
  const auto fits = [](__int128 v) {
    return v >= std::numeric_limits<long long>::min() &&
           v <= std::numeric_limits<long long>::max();
  };
  const auto push = [&](const FxValue& v) {
    reset_rows_.push_back(v.re);
    reset_rows_.push_back(v.im);
    narrow_state_ = narrow_state_ && fits(v.re) && fits(v.im);
  };
  const auto type_fits = [&](const FxType& t) {
    narrow_state_ = narrow_state_ &&
                    fits(plan_detail::min_raw<__int128>(t.w, t.sgn)) &&
                    fits(plan_detail::max_raw<__int128>(t.w, t.sgn));
  };
  for (std::size_t i = 0; i < f_.vars.size(); ++i) {
    var_index_.emplace(f_.vars[i].name, static_cast<int>(i));
    var_row_.push_back(static_cast<int>(reset_rows_.size()));
    push(vars[i]);
    type_fits(f_.vars[i].type);
  }
  for (std::size_t i = 0; i < f_.arrays.size(); ++i) {
    array_index_.emplace(f_.arrays[i].name, static_cast<int>(i));
    arr_row_.push_back(static_cast<int>(reset_rows_.size()));
    for (const FxValue& v : arrays[i]) push(v);
    type_fits(f_.arrays[i].elem);
  }
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

void Interpreter::reset() { state_ = reset_rows_; }

std::vector<FxValue> Interpreter::array_state(const std::string& name) const {
  const int i = cached_array_index(name);
  assert(i >= 0);
  const Array& a = f_.arrays[static_cast<size_t>(i)];
  const __int128* rows = state_.data() + arr_row_[static_cast<size_t>(i)];
  std::vector<FxValue> out;
  for (int j = 0; j < a.length; ++j)
    out.push_back(lane_value<__int128, 1>(rows + 2 * j, 0, a.elem));
  return out;
}

FxValue Interpreter::var_state(const std::string& name) const {
  const int i = cached_var_index(name);
  assert(i >= 0);
  return lane_value<__int128, 1>(
      state_.data() + var_row_[static_cast<size_t>(i)], 0,
      f_.vars[static_cast<size_t>(i)].type);
}

void Interpreter::set_array_state(const std::string& name,
                                  const std::vector<FxValue>& values) {
  const int i = cached_array_index(name);
  assert(i >= 0);
  const Array& a = f_.arrays[static_cast<size_t>(i)];
  assert(static_cast<int>(values.size()) == a.length);
  __int128* rows = state_.data() + arr_row_[static_cast<size_t>(i)];
  for (int j = 0; j < a.length; ++j)
    set_lane<__int128, 1>(rows + 2 * j, 0,
                          fx_convert(values[static_cast<size_t>(j)], a.elem));
}

void Interpreter::set_var_state(const std::string& name, const FxValue& value) {
  const int i = cached_var_index(name);
  assert(i >= 0);
  set_lane<__int128, 1>(
      state_.data() + var_row_[static_cast<size_t>(i)], 0,
      fx_convert(value, f_.vars[static_cast<size_t>(i)].type));
}

PortIo Interpreter::run(const PortIo& in) {
  PlaneSink<__int128, 1> sink{state_.data(), var_row_.data(),
                              arr_row_.data()};
  load_lane(ports_, in, sink, 0);
  plan_.run<1>(sink);
  ops_executed_ += sink.ops_executed;
  return collect_lane(ports_, sink, 0);
}

std::vector<PortIo> Interpreter::run_stream(const std::vector<PortIo>& ins) {
  std::vector<PortIo> outs;
  outs.reserve(ins.size());
  for (const auto& in : ins) outs.push_back(run(in));
  return outs;
}

template <class S, int L>
void Interpreter::run_lanes(const std::vector<std::vector<PortIo>>& streams,
                            std::size_t first, std::size_t n,
                            const LaneOutput& emit) {
  // Every lane starts from the reset state.
  std::vector<S> rows(reset_rows_.size() * L);
  for (std::size_t r = 0; r < reset_rows_.size(); ++r)
    std::fill_n(rows.begin() + static_cast<long>(r * L), L,
                static_cast<S>(reset_rows_[r]));
  PlaneSink<S, L> sink{rows.data(), var_row_.data(), arr_row_.data()};
  std::size_t len = 0;
  for (std::size_t l = 0; l < n; ++l)
    len = std::max(len, streams[first + l].size());
  // Lanes past the end of their stream (and lanes past n) keep running on
  // their last state; nothing is loaded into or read from them.
  for (std::size_t i = 0; i < len; ++i) {
    sink.lanes = 0;
    for (std::size_t l = 0; l < n; ++l) {
      if (i >= streams[first + l].size()) continue;
      load_lane(ports_, streams[first + l][i], sink, static_cast<int>(l));
      ++sink.lanes;
    }
    plan_.run<L>(sink);
    for (std::size_t l = 0; l < n; ++l)
      if (i < streams[first + l].size())
        emit(first + l, i, collect_lane(ports_, sink, static_cast<int>(l)));
  }
  ops_executed_ += sink.ops_executed;
}

void Interpreter::run_streams(const std::vector<std::vector<PortIo>>& streams,
                              const LaneOutput& emit) {
  for (std::size_t first = 0; first < streams.size(); first += kLaneWidth) {
    const std::size_t n =
        std::min<std::size_t>(kLaneWidth, streams.size() - first);
    // A step of kLaneWidth lanes costs about as much as ten one-lane
    // steps (Table 1 designs), so a group of at most a third of
    // kLaneWidth streams runs lane by lane.
    if (3 * n <= kLaneWidth)
      for (std::size_t l = 0; l < n; ++l)
        run_lanes<__int128, 1>(streams, first + l, 1, emit);
    else if (narrow_state_)
      run_lanes<long long, kLaneWidth>(streams, first, n, emit);
    else
      run_lanes<__int128, kLaneWidth>(streams, first, n, emit);
  }
}

}  // namespace hlsw::hls
