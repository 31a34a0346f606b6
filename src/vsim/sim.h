// Event-driven simulation kernel for elaborated Designs, after the
// stratified event queue of IEEE 1364 section 11: an active region (process
// execution and continuous-assign propagation, with blocking assignments
// visible immediately) and an NBA region (nonblocking updates committed in
// assignment order once the active region drains), iterated as delta cycles
// until the time slot is quiescent, then time advances to the next timer
// (# delay) event. Two-state semantics: every net starts at 0, there is no
// X/Z, and `===`/`!==` behave as `==`/`!=`.
//
// Processes (initial and always bodies alike) are compiled to a flat
// bytecode — assignments, jumps, edge waits, delays, repeat counters and
// system tasks — so multi-statement behavioral code (the generated
// testbench with its tasks, repeat loops and @(edge) waits) runs without
// recursion or coroutines. $display/$finish/$stop complete the testbench
// contract; $dumpfile/$dumpvars record a VCD through rtl::VcdCore. This
// kernel is the only engine for those testbench constructs (with `#`,
// `repeat` and `$time`): the cycle-based engines run plain DUTs.
//
// A bound instance (elab.h) runs behind its ports as a CompiledSim on its
// design's plan (compile.h), and the kernel steps it as one more region of
// the time slot: once the ready processes have run and the continuous
// assigns are flushed, and before the NBAs commit, each instance whose
// input nets changed since its last step takes those inputs,
// settles, and writes its changed outputs back as ordinary events (which may
// wake processes and re-enter the loop). So a process woken by a clock edge
// reads the instance's pre-edge registered outputs, as it would in the
// flattened design, where the instance's NBAs commit after every ready
// process has run. A combinational output catches up after every ready
// process too, not between two of them as a flattened assign would. At
// construction an instance takes the parent's initial values on its inputs
// after its own time-0 region (a nonzero initial value is an edge to it).
// Instance steps count against the per-slot instruction budget, so a
// combinational loop through an instance that never converges fails naming
// the instance.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "vsim/elab.h"

namespace hlsw::vsim {

// Execution engine selection. A Simulation has two tiers: kEvent runs the
// event kernel, and every other backend runs the compiled interpreter when
// the levelizer accepts the design, else the event kernel with the
// levelizer's reason in fallback_reason(). The generated native engine has
// one door, make_packed_engine (pack.h): kPackedCodegen at any lane count
// and kAuto above one lane build it, degrading to per-lane Simulations at
// kCompiled. So the default path never invokes the host compiler at one
// lane. The event kernel serves whatever the levelizer refuses (delays,
// system tasks, repeat, $time, zero-delay feedback).
enum class Backend {
  kAuto,           // one lane: compiled; several lanes: native
  kEvent,          // stratified event kernel (sim.cpp)
  kCompiled,       // levelized tape interpreter (compile.cpp)
  kPackedCodegen,  // generated lane-major native engine (codegen.cpp)
};

struct SimConfig {
  long long max_time = 1'000'000'000;  // free-run safety stop (time units)
  long long max_instrs_per_slot = 50'000'000;  // zero-delay-loop guard
  Backend backend = Backend::kAuto;
};

struct SimStats {
  long long events = 0;        // observed value changes
  long long nba_commits = 0;   // nonblocking updates applied
  long long delta_cycles = 0;  // NBA->active iterations within time slots
  long long time_slots = 0;    // distinct simulation times executed
  long long instrs = 0;        // bytecode instructions retired
  bool operator==(const SimStats&) const = default;
};

struct RunResult {
  bool finished = false;   // reached $finish
  bool stopped = false;    // reached $stop
  bool timed_out = false;  // hit SimConfig::max_time
  long long end_time = 0;
  std::vector<std::string> display;  // $display output, in order
  std::string vcd_name;              // $dumpfile argument ("" if none)
  std::string vcd_text;              // VCD contents when $dumpvars ran
};

class CompiledSim;

class Simulation {
 public:
  // Compiles every process and runs the time-0 active region (initial
  // blocks up to their first wait, all continuous assigns). Unless
  // cfg.backend is kEvent, a cycle-schedulable design is delegated to the
  // levelized compiled backend (compile.h); observable behavior is
  // identical.
  // A design with bound instances runs on the event kernel, each instance
  // on its design's compiled plan; an instance whose design the levelizer
  // refuses throws, naming the instance and the reason.
  explicit Simulation(std::shared_ptr<const Design> design,
                      const SimConfig& cfg = {});
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- Poke-and-settle mode (PackedDutHarness) ----
  void poke(const std::string& name, unsigned long long value);
  unsigned long long peek(const std::string& name) const;
  long long peek_signed(const std::string& name) const;
  unsigned long long peek_elem(const std::string& name, int index) const;
  // Handle-based access for hot callers (PackedDutHarness): resolve the
  // name once, then poke/peek by signal index on any backend.
  int signal_handle(const std::string& name) const;
  void poke(int sig, unsigned long long value);
  unsigned long long peek(int sig) const;
  long long peek_signed(int sig) const;
  unsigned long long peek_elem(int sig, int index) const;
  // Runs delta cycles at the current time until quiescent.
  void settle();

  // ---- Free-run mode (testbench): advance time until $finish/$stop,
  // timer exhaustion, or max_time.
  RunResult run();

  bool finished() const { return finished_; }
  long long now() const;
  const SimStats& stats() const;
  const Design& design() const { return *design_; }

  // Which engine executes this simulation: "compiled" or "event".
  const char* backend() const;
  // Why the compiled interpreter was not used ("" when it runs, or when
  // kEvent was requested): the levelizer's reason.
  const std::string& fallback_reason() const { return fallback_reason_; }

 private:
  struct Instr;
  struct Thread;
  struct Compiler;
  struct Bound;

  static std::uint64_t mask(int w) {
    return w >= 64 ? ~0ULL : (1ULL << w) - 1ULL;
  }
  static std::uint64_t extend(std::uint64_t v, int from, int to, bool sgn);

  std::uint64_t eval(const Expr& e, int ctx_w, bool ctx_sgn) const;
  std::uint64_t eval_self(const Expr& e) const;
  long long eval_signed_self(const Expr& e) const;

  void set_scalar(int sig, std::uint64_t v);
  void set_elem(int sig, long long index, std::uint64_t v);
  void on_change(int sig, std::uint64_t old_v, std::uint64_t new_v);
  void step_bound();
  void flush_comb();
  void commit_nba();
  void run_thread(int tid);
  void exec_assign(const Expr& lhs, const Expr& rhs, bool nonblocking);
  void exec_sys(const Stmt& st);
  std::string format_display(const Stmt& st) const;
  void start_dump();
  void dump_change(int sig, long long index) const;
  void flush_dump() const;
  int require(const std::string& name) const;

  std::shared_ptr<const Design> design_;
  SimConfig cfg_;
  // Non-null when the compiled cycle-based backend executes this design;
  // every public entry point dispatches to it. The event-kernel state
  // below stays unconstructed in that case.
  std::unique_ptr<CompiledSim> compiled_;
  std::string fallback_reason_;
  std::vector<std::uint64_t> val_;
  std::vector<std::vector<std::uint64_t>> arr_;
  std::vector<std::vector<int>> dep_map_;  // signal -> dependent assigns
  std::vector<Thread> threads_;

  // Bound instances, and per signal whether it drives an input of one
  // (empty without instances): the flag on_change tests.
  std::vector<Bound> bound_;
  std::vector<char> feeds_bound_;
  bool bound_dirty_ = false;

  std::vector<int> comb_q_;
  std::vector<char> comb_queued_;
  std::size_t comb_head_ = 0;

  struct NbaEntry {
    int sig;
    long long index;  // -1 for scalars
    std::uint64_t value;
  };
  std::vector<NbaEntry> nba_q_;

  struct TimerEntry {
    long long time;
    long long seq;
    int tid;
    bool operator>(const TimerEntry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  long long timer_seq_ = 0;

  long long time_ = 0;
  long long slot_instr_base_ = 0;  // stats_.instrs at activation start
  std::vector<ExprPtr> synth_;     // synthetic case-compare expressions
  bool finished_ = false;
  bool stopped_ = false;
  SimStats stats_;
  std::vector<std::string> display_;
  std::string dump_name_;
  bool dumping_ = false;
  // VCD recording (pimpl'd so vsim/sim.h does not pull rtl/vcd.h in).
  struct Dump;
  std::unique_ptr<Dump> dump_;
  std::vector<int> dump_handle_;        // scalar signal -> VCD handle
  std::vector<std::vector<int>> dump_elem_handle_;
};

}  // namespace hlsw::vsim
