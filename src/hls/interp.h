// Untimed IR interpreter: executes a Function bit-accurately, in program
// order, exactly like the original C++ model would run. This is the golden
// reference of the verification chain (paper Figure 1): the RTL simulator
// (rtl/sim.h) must match it bit for bit on every invocation, and the
// native fixpt-based decoder model must match both.
//
// Execution engine: the constructor compiles the function through the
// shared plan compiler (hls/plan.h) as a one-cycle, unpipelined schedule
// whose array writes land immediately in program order — the same
// compiler and executor template rtl::Simulator runs its schedule
// through, differing only in that sink. The state is lane-major planes of
// raw components: each var and each array element is one row of re lanes
// and one of im lanes, while fw and cplx are the declared type's. run()
// and run_stream() execute one lane; run_streams() executes kLaneWidth
// independent streams in lockstep through the same op stream. Ports load
// and collect through the PortBinding below, which rtl::Simulator shares.
// The op-by-op reference it is pinned against is exec_op below, which
// rtl::Simulator runs under SimOptions::compiled = false.
//
// Statics (Figure 4's `static` arrays and vars) persist across run() calls,
// matching C function-static semantics.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/ir.h"
#include "hls/plan.h"

namespace hlsw::hls {

// One invocation's port values, keyed by port name. Input arrays must carry
// `length` values; output scalars/arrays are filled by run().
struct PortIo {
  std::map<std::string, std::vector<FxValue>> arrays;
  std::map<std::string, FxValue> vars;
};

// A Function's ports bound once to their state indices, each slot sorted
// by name and carrying the port's type and length. hls::Interpreter and
// rtl::Simulator load and collect every invocation through it: PortIo's
// maps iterate in name order, so load() is one merge walk and collect()
// inserts every port at its map's end with a hint — no per-port lookups.
class PortBinding {
 public:
  explicit PortBinding(const Function& f);

  // Converts every input port value into its port's type (fx_convert) and
  // hands it to the state: var(index, value) for a var port,
  // elem(index, j, value) for element j of an array port. Throws
  // std::invalid_argument naming the port when an input port is missing or
  // an input array's length is wrong.
  template <class Var, class Elem>
  void load(const PortIo& in, Var&& var, Elem&& elem) const;

  // The output ports read from the state: var(index, type) gives a var
  // port's FxValue, array(index, type, length) an array port's values.
  template <class Var, class Arr>
  PortIo collect(Var&& var, Arr&& array) const;

 private:
  struct Slot {
    std::string name;
    std::size_t index = 0;  // var/array state index
    FxType type;            // var type or array element type
    std::size_t length = 0;  // array element count
  };

  std::vector<Slot> in_arrays_, in_vars_, out_arrays_, out_vars_;
};

class Interpreter {
 public:
  // Lanes run_streams() executes in lockstep.
  static constexpr int kLaneWidth = 32;

  // Receives output `symbol` of stream `lane` (see run_streams).
  using LaneOutput =
      std::function<void(std::size_t lane, std::size_t symbol, PortIo out)>;

  // Takes its own copy of the function so callers may pass temporaries
  // (e.g. Interpreter(build_qam_decoder_ir())).
  explicit Interpreter(Function f);

  // Executes one invocation: loads input ports, runs all regions in program
  // order, returns output ports.
  PortIo run(const PortIo& in);

  // Batched form: pushes every input through the design in order (static
  // state carries across symbols exactly as repeated run() calls would).
  std::vector<PortIo> run_stream(const std::vector<PortIo>& ins);

  // Runs every stream as its own run_stream() from the reset state would,
  // kLaneWidth streams in lockstep; this interpreter's own state is left
  // as it was. Streams may differ in length. Each output is handed to
  // `emit` as soon as its symbol completes, in symbol order within a
  // stream (streams interleave), so no stream's outputs are held.
  // ops_executed() grows by the sum over the streams. Throws
  // std::invalid_argument as run() does for any stream's bad input.
  void run_streams(const std::vector<std::vector<PortIo>>& streams,
                   const LaneOutput& emit);

  // Clears all static state back to initial values.
  void reset();

  // State inspection for tests.
  std::vector<FxValue> array_state(const std::string& name) const;

  // State preload (coefficient download before decision-directed runs).
  // Values are converted into the storage element type.
  void set_array_state(const std::string& name,
                       const std::vector<FxValue>& values);

  // Number of op executions performed so far (profiling/complexity tests).
  long long ops_executed() const { return ops_executed_; }

 private:
  int cached_array_index(const std::string& name) const;
  // Runs streams [first, first + n) at L lanes on fresh planes of S.
  template <class S, int L>
  void run_lanes(const std::vector<std::vector<PortIo>>& streams,
                 std::size_t first, std::size_t n, const LaneOutput& emit);

  const Function f_;
  // Plane rows: var v's re row is var_row_[v] (its im row the next one),
  // element j of array a starts at row arr_row_[a] + 2j.
  std::vector<int> var_row_, arr_row_;
  std::vector<__int128> reset_rows_;  // one lane of the initial state
  std::vector<__int128> state_;       // this interpreter's one-lane state
  // Every state value fits int64 (each declared type's range and each
  // var's initial value), so run_streams() keeps int64 planes: at 32
  // lanes they run the QAM decoders about 1.25x faster than __int128
  // planes. At one lane they gain under 2%, so state_ keeps one type.
  bool narrow_state_ = true;
  // Name -> array index, resolved once at construction so the accessors do
  // not rescan Function::arrays on every call (link sweeps hit
  // array_state()/set_array_state() per symbol).
  std::map<std::string, int> array_index_;
  // f_ compiled under untimed_schedule(f_).
  ExecPlan plan_;
  PortBinding ports_;
  long long ops_executed_ = 0;
};

// Exact full-precision arithmetic on FxValues (shared with rtl::Simulator).
// Results carry the natural fw; callers convert into the op's result type
// with fx_convert.
FxValue fx_add(const FxValue& a, const FxValue& b);
FxValue fx_sub(const FxValue& a, const FxValue& b);
FxValue fx_mul(const FxValue& a, const FxValue& b);
FxValue fx_neg(const FxValue& a);
FxValue fx_sign_conj(const FxValue& a);

// Executes a single op given resolved operand values: the op-by-op
// reference semantics rtl::Simulator's interpretive path runs and the
// compiled plan (hls/plan.h) is pinned against.
FxValue exec_op(const Op& op, const FxValue* a0, const FxValue* a1);

template <class Var, class Elem>
void PortBinding::load(const PortIo& in, Var&& var, Elem&& elem) const {
  auto ita = in.arrays.begin();
  for (const Slot& p : in_arrays_) {
    while (ita != in.arrays.end() && ita->first < p.name) ++ita;
    if (ita == in.arrays.end() || ita->first != p.name)
      throw std::invalid_argument("missing input array port: " + p.name);
    if (ita->second.size() != p.length)
      throw std::invalid_argument("input array port size mismatch: " +
                                  p.name);
    for (std::size_t j = 0; j < p.length; ++j)
      elem(p.index, j, fx_convert(ita->second[j], p.type));
  }
  auto itv = in.vars.begin();
  for (const Slot& p : in_vars_) {
    while (itv != in.vars.end() && itv->first < p.name) ++itv;
    if (itv == in.vars.end() || itv->first != p.name)
      throw std::invalid_argument("missing input var port: " + p.name);
    var(p.index, fx_convert(itv->second, p.type));
  }
}

template <class Var, class Arr>
PortIo PortBinding::collect(Var&& var, Arr&& array) const {
  PortIo out;
  for (const Slot& p : out_arrays_)
    out.arrays.emplace_hint(out.arrays.end(), p.name,
                            array(p.index, p.type, p.length));
  for (const Slot& p : out_vars_)
    out.vars.emplace_hint(out.vars.end(), p.name, var(p.index, p.type));
  return out;
}

}  // namespace hlsw::hls
