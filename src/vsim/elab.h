// Elaboration: turns a parsed SourceUnit into one executable Design.
//
//  - instances of modules the unit defines are flattened (named port
//    connections alias parent signals; instance-internal nets get "inst."
//    prefixed signals),
//  - an instance of a module the unit does not define, but the caller
//    binds to a separately elaborated Design, stays one BoundInstance:
//    its ports pair parent signals with the bound design's top ports, and
//    the event kernel steps it as a unit (sim.h). This is how a testbench
//    drives its DUT without a second parse or a second elaboration of it,
//  - localparam references fold to literals,
//  - task enables inline the task body behind blocking assignments of the
//    actual arguments to per-task argument signals,
//  - every expression is annotated with its resolved signal and its
//    self-determined width/signedness per IEEE 1364-2001 4.4/4.5 — the
//    evaluation kernel (sim.h) and the lint pass (lint.h) both key off
//    these annotations.
//
// The Design is immutable after elaboration: simulations share it through
// a shared_ptr (one elaborated design, many per-shard Simulation states).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vsim/ast.h"

namespace hlsw::vsim {

struct Signal {
  std::string name;
  int width = 1;
  bool is_signed = false;
  bool is_reg = false;
  int array_len = 0;  // 0 = scalar
  bool has_init = false;
  long long init = 0;
  bool is_top_input = false;   // port of the *top* module
  bool is_top_output = false;
  bool is_task_arg = false;    // synthesized by task inlining (elab.cpp)
};

struct ElabAssign {
  int target = -1;      // scalar signal driven by this continuous assign
  ExprPtr rhs;
  std::vector<int> deps;  // signals read by rhs (sorted, unique)
};

struct Process {
  StmtPtr body;
  bool is_always = false;
  std::string origin;  // "<module>.<always|initial>[n]" for diagnostics
};

struct Design;

// An instance bound to another Design instead of flattened. Every port pair
// joins a scalar signal of this design to a top port of the bound one;
// inputs flow in, outputs flow back.
struct BoundInstance {
  std::string name;  // instance path, e.g. "dut"
  std::shared_ptr<const Design> design;
  struct Port {
    int sig = -1;    // signal of this design
    int inner = -1;  // top port of `design`
    bool is_input = false;
  };
  std::vector<Port> ports;
};

struct Design {
  std::string top;
  std::vector<Signal> signals;
  std::map<std::string, int> signal_index;
  std::vector<ElabAssign> assigns;
  std::vector<Process> processes;
  std::vector<BoundInstance> instances;

  int find(const std::string& name) const {
    auto it = signal_index.find(name);
    return it == signal_index.end() ? -1 : it->second;
  }
};

// Module name -> the elaborated design an instance of it binds to.
using Bindings = std::map<std::string, std::shared_ptr<const Design>>;

// Elaborates `top_module`, which may instantiate other modules of the unit
// (flattened) or modules the unit does not define but `bound` names
// (bound). Throws std::runtime_error on undeclared identifiers, unknown
// modules, port mismatches (a bound instance's ports must be top ports of
// its design, joined to scalar signals of equal width), unsupported
// constructs, or widths beyond 64 bits.
std::shared_ptr<const Design> elaborate(const SourceUnit& su,
                                        const std::string& top_module,
                                        const Bindings& bound = {});

// Collects the signals read by an annotated expression (exposed for the
// lint pass and the simulator's dependency wiring).
void collect_reads(const Expr& e, std::vector<int>* out);

}  // namespace hlsw::vsim
