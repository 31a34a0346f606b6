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
// through, differing only in that write sink. Ports load and collect
// through the PortBinding below, which rtl::Simulator shares. The op-by-op
// reference it is pinned against is exec_op below, which rtl::Simulator
// runs under SimOptions::compiled = false.
//
// Statics (Figure 4's `static` arrays and vars) persist across run() calls,
// matching C function-static semantics.
#pragma once

#include <map>
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
  // stores it into the state. Throws std::invalid_argument naming the port
  // when an input port is missing or an input array's length is wrong.
  void load(const PortIo& in, std::vector<FxValue>* vars,
            std::vector<std::vector<FxValue>>* arrays) const;

  // The output ports' values in `vars`/`arrays`.
  PortIo collect(const std::vector<FxValue>& vars,
                 const std::vector<std::vector<FxValue>>& arrays) const;

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
  // Takes its own copy of the function so callers may pass temporaries
  // (e.g. Interpreter(build_qam_decoder_ir())).
  explicit Interpreter(Function f);

  // Executes one invocation: loads input ports, runs all regions in program
  // order, returns output ports.
  PortIo run(const PortIo& in);

  // Batched form: pushes every input through the design in order (static
  // state carries across symbols exactly as repeated run() calls would).
  std::vector<PortIo> run_stream(const std::vector<PortIo>& ins);

  // Clears all static state back to initial values.
  void reset();

  // State inspection for tests.
  const std::vector<FxValue>& array_state(const std::string& name) const;
  const FxValue& var_state(const std::string& name) const;

  // State preload (coefficient download before decision-directed runs).
  // Values are converted into the storage element type.
  void set_array_state(const std::string& name,
                       const std::vector<FxValue>& values);
  void set_var_state(const std::string& name, const FxValue& value);

  // Number of op executions performed so far (profiling/complexity tests).
  long long ops_executed() const { return ops_executed_; }

 private:
  int cached_var_index(const std::string& name) const;
  int cached_array_index(const std::string& name) const;

  const Function f_;
  std::vector<FxValue> var_state_;
  std::vector<std::vector<FxValue>> array_state_;
  // Name -> state index, resolved once at construction so the accessors do
  // not rescan Function::vars/arrays on every call (link sweeps hit
  // array_state()/set_array_state() per symbol).
  std::map<std::string, int> var_index_;
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

}  // namespace hlsw::hls
