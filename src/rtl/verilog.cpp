#include "rtl/verilog.h"

#include <cassert>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "hls/plan.h"

namespace hlsw::rtl {

using hls::Array;
using hls::ArrayMapping;
using hls::Block;
using hls::Function;
using hls::FxType;
using hls::Op;
using hls::OpKind;
using hls::PortDir;
using hls::Region;
using hls::Schedule;

namespace {

// All datapath values travel as 64-bit signed at their natural scale.
constexpr int kW = 64;

std::string wname(std::size_t region, std::size_t op, const char* comp) {
  std::ostringstream os;
  os << "w_r" << region << "_o" << op << "_" << comp;
  return os.str();
}
std::string pname(std::size_t region, std::size_t op, const char* comp) {
  std::ostringstream os;
  os << "p_r" << region << "_o" << op << "_" << comp;
  return os.str();
}

std::string kWs() { return std::to_string(kW); }

std::string literal(long long v) {
  std::ostringstream os;
  if (v < 0)
    os << "-" << kW << "'sd" << -v;
  else
    os << kW << "'sd" << v;
  return os.str();
}

// Part-selects are only legal on identifiers; composite expressions must be
// materialized into a named wire first.
bool is_simple_ident(const std::string& s) {
  if (s.empty() || (!std::isalpha(static_cast<unsigned char>(s[0])) &&
                    s[0] != '_'))
    return false;
  for (const char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
      return false;
  return true;
}

// Emits the conversion of a 64-bit value `src` at scale 2^-src_fw into the
// destination fixed-point type, producing an expression string. Also
// emits any helper wires into `decl`/`body`.
class ExprEmitter {
 public:
  ExprEmitter(std::ostringstream& decl, std::ostringstream& body)
      : decl_(decl), body_(body) {}

  std::string convert(const std::string& src_in, int src_fw,
                      const FxType& dst, const std::string& tag) {
    std::string src = src_in;
    if (!is_simple_ident(src)) {
      // The rounding logic below part-selects src; give composites a name.
      const std::string t0 = fresh(tag + "_src");
      body_ << "  assign " << t0 << " = " << src << ";\n";
      src = t0;
    }
    const int shift = dst.fw() - src_fw;
    std::string v;
    if (shift == 0) {
      v = src;
    } else if (shift > 0) {
      v = "(" + src + " <<< " + std::to_string(shift) + ")";
    } else {
      const int d = -shift;
      // base = floor(src / 2^d), then the rounding increment per mode.
      const std::string base = "(" + src + " >>> " + std::to_string(d) + ")";
      const std::string msb = "(" + src + "[" + std::to_string(d - 1) + "])";
      const std::string rest =
          d >= 2 ? "(|" + src + "[" + std::to_string(d - 2) + ":0])"
                 : "1'b0";
      const std::string neg = "(" + src + "[" + std::to_string(kW - 1) + "])";
      const std::string lsb = "(" + src + "[" + std::to_string(d) + "])";
      std::string inc;
      switch (dst.q) {
        case fixpt::Quant::kTrn: inc = "1'b0"; break;
        case fixpt::Quant::kTrnZero:
          inc = "(" + neg + " & (" + msb + " | " + rest + "))";
          break;
        case fixpt::Quant::kRnd: inc = msb; break;
        case fixpt::Quant::kRndZero:
          inc = "(" + msb + " & (" + rest + " | " + neg + "))";
          break;
        case fixpt::Quant::kRndMinInf:
          inc = "(" + msb + " & " + rest + ")";
          break;
        case fixpt::Quant::kRndInf:
          inc = "(" + msb + " & (" + rest + " | ~" + neg + "))";
          break;
        case fixpt::Quant::kRndConv:
          inc = "(" + msb + " & (" + rest + " | " + lsb + "))";
          break;
      }
      const std::string t = fresh(tag + "_rnd");
      // $signed keeps the sum signed: a bare unsigned concat operand would
      // flip the whole RHS (and the >>> inside `base`) to unsigned per the
      // Verilog signedness propagation rules.
      body_ << "  assign " << t << " = " << base << " + $signed({{"
            << (kW - 1) << "{1'b0}}, " << inc << "});\n";
      v = t;
    }
    // Overflow handling into dst.w bits.
    const long long hi = (1LL << (dst.sgn ? dst.w - 1 : dst.w)) - 1;
    const long long lo =
        dst.sgn ? ((dst.o == fixpt::Ovf::kSatSym) ? -hi
                                                  : -(1LL << (dst.w - 1)))
                : 0;
    const std::string t = fresh(tag + "_fit");
    switch (dst.o) {
      case fixpt::Ovf::kWrap: {
        // Take the low dst.w bits, sign/zero extend back to 64. The value
        // is part-selected, so composites (shift results) get a name first.
        std::string vb = v;
        if (!is_simple_ident(vb)) {
          vb = fresh(tag + "_raw");
          body_ << "  assign " << vb << " = " << v << ";\n";
        }
        body_ << "  assign " << t << " = {{" << (kW - dst.w) << "{"
              << (dst.sgn ? vb + "[" + std::to_string(dst.w - 1) + "]"
                          : std::string("1'b0"))
              << "}}, " << vb << "[" << dst.w - 1 << ":0]};\n";
        break;
      }
      case fixpt::Ovf::kSat:
      case fixpt::Ovf::kSatSym:
        body_ << "  assign " << t << " = (" << v << " > " << literal(hi)
              << ") ? " << literal(hi) << " : (" << v << " < " << literal(lo)
              << ") ? " << literal(lo) << " : " << v << ";\n";
        break;
      case fixpt::Ovf::kSatZero:
        body_ << "  assign " << t << " = (" << v << " > " << literal(hi)
              << " || " << v << " < " << literal(lo) << ") ? " << kW
              << "'sd0 : " << v << ";\n";
        break;
    }
    return t;
  }

  std::string fresh(const std::string& tag) {
    std::ostringstream os;
    os << "t_" << tag << "_" << serial_++;
    decl_ << "  wire signed [" << kW - 1 << ":0] " << os.str() << ";\n";
    return os.str();
  }

 private:
  std::ostringstream& decl_;
  std::ostringstream& body_;
  int serial_ = 0;
};

struct PortSpec {
  std::string name;
  bool is_input;
  int bits;
};

}  // namespace

std::string emit_verilog(const Function& f, const Schedule& s,
                         const VerilogOptions& opts) {
  assert(f.regions.size() == s.regions.size());
  // Every datapath value below travels in one kW-bit wire, so a value that
  // can leave 64 bits would silently disagree with the C model. The golden
  // plan's interval proof decides exactly that, region by region: a region
  // it cannot run narrow is refused here.
  const hls::ExecPlan plan(f, s);
  for (std::size_t r = 0; r < plan.regions().size(); ++r)
    if (!plan.regions()[r].narrow)
      throw std::invalid_argument(
          "emit_verilog: region '" + s.regions[r].label + "' of '" + f.name +
          "' can carry values wider than 64 bits; the emitted " + kWs() +
          "-bit datapath would not match the C model");
  const std::string mod =
      opts.module_name.empty() ? f.name : opts.module_name;

  // On-chip perf counters (empty when instrumentation is off; every
  // instrumentation-only emission below is gated on !perf.empty() so the
  // off path stays byte-identical).
  const std::vector<hls::PerfCounter> perf =
      hls::instrument_map(f, s, opts.instrument);
  const int pw = perf.empty() ? 32 : perf[0].width;
  auto plit = [&](long long v) {
    return std::to_string(pw) + "'d" + std::to_string(v);
  };

  std::ostringstream header, ports, decl, comb, seq;

  header << "// Generated by hlsw (C-based hardware design flow "
            "reproduction)\n"
         << "// Function: " << f.name << ", latency " << s.latency_cycles
         << " cycles @ " << s.clock_ns << " ns\n";
  for (const auto& rs : s.regions) {
    if (rs.ii > 0) {
      header << "// NOTE: loop '" << rs.label << "' was scheduled with "
             << "II=" << rs.ii << "; this emitter initiates iterations\n"
             << "// sequentially (functionally identical, "
             << rs.trip * rs.body.cycles << " instead of "
             << rs.total_cycles << " cycles for the loop).\n";
    }
  }
  if (!perf.empty())
    header << "// Instrumented: " << perf.size()
           << " perf_* counters (hls::instrument_map order"
           << (opts.instrument.readback_mux ? "; perf_sel selects perf_rdata"
                                            : "")
           << ").\n";

  // ---- Ports ---------------------------------------------------------------
  std::vector<PortSpec> pspecs;
  for (const auto& v : f.vars) {
    if (v.port == PortDir::kNone) continue;
    const bool in = v.port == PortDir::kIn;
    if (v.type.cplx) {
      pspecs.push_back({v.name + "_re", in, v.type.w});
      pspecs.push_back({v.name + "_im", in, v.type.w});
    } else {
      pspecs.push_back({v.name, in, v.type.w});
    }
  }
  for (const auto& a : f.arrays) {
    if (a.port == PortDir::kNone) continue;
    const bool in = a.port == PortDir::kIn;
    for (int j = 0; j < a.length; ++j) {
      const std::string base = a.name + "_" + std::to_string(j);
      if (a.elem.cplx) {
        pspecs.push_back({base + "_re", in, a.elem.w});
        pspecs.push_back({base + "_im", in, a.elem.w});
      } else {
        pspecs.push_back({base, in, a.elem.w});
      }
    }
  }

  ports << "module " << mod << " (\n  input wire clk,\n  input wire rst,\n"
        << "  input wire start,\n  output reg done";
  for (const auto& p : pspecs) {
    ports << ",\n  " << (p.is_input ? "input wire signed [" : "output reg signed [")
          << p.bits - 1 << ":0] " << p.name;
  }
  if (!perf.empty() && opts.instrument.readback_mux) {
    ports << ",\n  input wire [15:0] perf_sel,\n  output wire [" << pw - 1
          << ":0] perf_rdata";
  }
  ports << "\n);\n\n";

  // ---- Storage ----------------------------------------------------------------
  // Same-cycle read forwarding (see kVarRead below) means a var's register
  // is only observable when some read actually falls back to it: a read with
  // no earlier unguarded same-cycle write samples the register, either
  // directly or as the else branch of a guarded-forward mux. Vars with no
  // such read get neither a register nor a load — ports always keep theirs,
  // the pin is the register.
  std::vector<char> var_reg_read(f.vars.size(), 0);
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    const auto& bs = s.regions[r].body;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      const Op& op = b.ops[i];
      if (op.kind != OpKind::kVarRead) continue;
      bool covered = false;
      for (std::size_t jw = 0; jw < i; ++jw) {
        const Op& wr = b.ops[jw];
        if (wr.kind == OpKind::kVarWrite && wr.var == op.var &&
            bs.place[jw].cycle == bs.place[i].cycle && wr.guard_trip < 0)
          covered = true;
      }
      if (!covered) var_reg_read[static_cast<size_t>(op.var)] = 1;
    }
  }
  for (std::size_t vi = 0; vi < f.vars.size(); ++vi) {
    const auto& v = f.vars[vi];
    if (v.port != PortDir::kNone) continue;  // ports are module pins
    if (!var_reg_read[vi]) continue;         // every read is forwarded
    const std::string pre = "reg signed [" + std::to_string(v.type.w - 1) +
                            ":0] v_" + v.name;
    if (v.type.cplx)
      decl << "  " << pre << "_re, v_" << v.name << "_im;\n";
    else
      decl << "  " << pre << ";\n";
  }
  for (const auto& a : f.arrays) {
    const char* kind =
        a.mapping == ArrayMapping::kMemory ? "  // memory-mapped\n" : "";
    decl << kind;
    if (a.elem.cplx) {
      decl << "  reg signed [" << a.elem.w - 1 << ":0] m_" << a.name
           << "_re [0:" << a.length - 1 << "];\n";
      decl << "  reg signed [" << a.elem.w - 1 << ":0] m_" << a.name
           << "_im [0:" << a.length - 1 << "];\n";
    } else {
      decl << "  reg signed [" << a.elem.w - 1 << ":0] m_" << a.name
           << " [0:" << a.length - 1 << "];\n";
    }
  }

  // ---- FSM states ----------------------------------------------------------------
  int n_states = 1;  // S_IDLE = 0
  std::vector<int> region_state_base(f.regions.size());
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    region_state_base[r] = n_states;
    n_states += s.regions[r].body.cycles;
  }
  decl << "\n  reg [" << 15 << ":0] state;\n";
  decl << "  localparam S_IDLE = 0;\n";
  for (std::size_t r = 0; r < f.regions.size(); ++r)
    decl << "  localparam S_" << (f.regions[r].is_loop
                                      ? f.regions[r].loop.label
                                      : f.regions[r].name)
         << " = " << region_state_base[r] << ";\n";
  bool any_loop = false;
  for (const auto& region : f.regions)
    if (region.is_loop) any_loop = true;
  if (any_loop) decl << "  reg [15:0] k;  // loop iteration counter\n";
  if (!perf.empty()) {
    decl << "  // perf_* instrumentation counters, cumulative between "
            "resets\n";
    for (const auto& c : perf)
      decl << "  reg [" << c.width - 1 << ":0] " << c.name << ";\n";
    if (opts.instrument.readback_mux) {
      comb << "  assign perf_rdata =";
      for (const auto& c : perf)
        comb << "\n      (perf_sel == 16'd" << c.index << ") ? " << c.name
             << " :";
      comb << "\n      " << plit(0) << ";\n";
    }
  }

  // An op's value only needs a pipeline register when some consumer reads it
  // in a later cycle; same-cycle consumers take the wire directly.
  std::vector<std::vector<char>> pipe_used(f.regions.size());
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    const auto& bs = s.regions[r].body;
    pipe_used[r].assign(b.ops.size(), 0);
    for (std::size_t j = 0; j < b.ops.size(); ++j)
      for (const int a : b.ops[j].args)
        if (bs.place[static_cast<size_t>(a)].cycle != bs.place[j].cycle)
          pipe_used[r][static_cast<size_t>(a)] = 1;
  }

  // ---- Datapath ----------------------------------------------------------------
  ExprEmitter ee(decl, comb);
  // Per-region, per-op wires.
  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    const auto& bs = s.regions[r].body;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      const Op& op = b.ops[i];
      // Wire + pipeline register for every op value.
      for (const char* comp : {"re", "im"}) {
        if (!op.type.cplx && std::string(comp) == "im") continue;
        decl << "  wire signed [" << kW - 1 << ":0] " << wname(r, i, comp)
             << ";\n";
        if (pipe_used[r][i])
          decl << "  reg signed [" << kW - 1 << ":0] " << pname(r, i, comp)
               << ";\n";
      }
      // Operand expression: same-cycle -> wire, earlier cycle -> pipe reg.
      auto arg = [&](int a, const char* comp) -> std::string {
        const Op& src = b.ops[static_cast<size_t>(a)];
        const bool have = src.type.cplx || std::string(comp) == "re";
        if (!have) return literal(0);
        return bs.place[static_cast<size_t>(a)].cycle ==
                       bs.place[i].cycle
                   ? wname(r, static_cast<size_t>(a), comp)
                   : pname(r, static_cast<size_t>(a), comp);
      };
      auto arg_fw = [&](int a) {
        return b.ops[static_cast<size_t>(a)].type.fw();
      };
      auto idx_expr = [&](const Op& o) {
        std::ostringstream os;
        os << "(";
        if (o.idx.scale != 0) os << "$signed({1'b0,k}) * " << o.idx.scale << " + ";
        os << o.idx.offset << ")";
        return os.str();
      };

      auto emit_assign = [&](const char* comp, const std::string& rhs) {
        comb << "  assign " << wname(r, i, comp) << " = " << rhs << ";\n";
      };

      const int fw = op.type.fw();
      switch (op.kind) {
        case OpKind::kConst:
          emit_assign("re", literal(static_cast<long long>(op.cval.re)));
          if (op.type.cplx)
            emit_assign("im", literal(static_cast<long long>(op.cval.im)));
          break;
        case OpKind::kVarRead: {
          const auto& v = f.vars[static_cast<size_t>(op.var)];
          const std::string base =
              v.port != PortDir::kNone ? v.name : "v_" + v.name;
          // Scalar registers forward (the rtl::Simulator contract): a read
          // placed in the same cycle as an earlier write to the var must
          // observe the written value, which the nonblocking register load
          // only exposes NEXT cycle — so read the writer's wire instead.
          // Guarded (partial-unroll remainder) writes forward through a mux.
          auto read_expr = [&](const char* comp) {
            const std::string suf =
                v.type.cplx ? "_" + std::string(comp) : "";
            std::string src = "{{" + std::to_string(kW - v.type.w) + "{" +
                              base + suf + "[" +
                              std::to_string(v.type.w - 1) + "]}}, " + base +
                              suf + "}";
            for (std::size_t jw = 0; jw < i; ++jw) {
              const Op& wr = b.ops[jw];
              if (wr.kind != OpKind::kVarWrite || wr.var != op.var) continue;
              if (bs.place[jw].cycle != bs.place[i].cycle) continue;
              if (wr.guard_trip >= 0)
                src = "((k < " + std::to_string(wr.guard_trip) + ") ? " +
                      wname(r, jw, comp) + " : " + src + ")";
              else
                src = wname(r, jw, comp);
            }
            return src;
          };
          emit_assign("re", read_expr("re"));
          if (op.type.cplx) emit_assign("im", read_expr("im"));
          break;
        }
        case OpKind::kArrayRead: {
          const auto& a = f.arrays[static_cast<size_t>(op.array)];
          const std::string idx = idx_expr(op);
          const std::string base = "m_" + a.name;
          const std::string sufr = a.elem.cplx ? "_re" : "";
          emit_assign("re", "{{" + std::to_string(kW - a.elem.w) + "{" +
                                base + sufr + "[" + idx + "][" +
                                std::to_string(a.elem.w - 1) + "]}}, " +
                                base + sufr + "[" + idx + "]}");
          if (op.type.cplx)
            emit_assign("im", "{{" + std::to_string(kW - a.elem.w) + "{" +
                                  base + "_im[" + idx + "][" +
                                  std::to_string(a.elem.w - 1) + "]}}, " +
                                  base + "_im[" + idx + "]}");
          break;
        }
        case OpKind::kVarWrite:
        case OpKind::kArrayWrite: {
          // The converted value is computed combinationally; the actual
          // register load happens in the FSM below.
          const FxType dst =
              op.kind == OpKind::kVarWrite
                  ? f.vars[static_cast<size_t>(op.var)].type
                  : f.arrays[static_cast<size_t>(op.array)].elem;
          emit_assign("re", ee.convert(arg(op.args[0], "re"),
                                       arg_fw(op.args[0]), dst,
                                       "r" + std::to_string(r) + "o" +
                                           std::to_string(i) + "re"));
          if (dst.cplx)
            emit_assign("im", ee.convert(arg(op.args[0], "im"),
                                         arg_fw(op.args[0]), dst,
                                         "r" + std::to_string(r) + "o" +
                                             std::to_string(i) + "im"));
          break;
        }
        case OpKind::kAdd:
        case OpKind::kSub: {
          const char* sign = op.kind == OpKind::kAdd ? "+" : "-";
          const int fa = arg_fw(op.args[0]), fb = arg_fw(op.args[1]);
          const int fm = fa > fb ? fa : fb;
          auto align = [&](int a2, int f2, const char* comp) {
            return "(" + arg(a2, comp) + " <<< " + std::to_string(fm - f2) +
                   ")";
          };
          emit_assign("re", align(op.args[0], fa, "re") + " " + sign + " " +
                                align(op.args[1], fb, "re"));
          if (op.type.cplx)
            emit_assign("im", align(op.args[0], fa, "im") + " " + sign +
                                  " " + align(op.args[1], fb, "im"));
          break;
        }
        case OpKind::kMul: {
          const std::string ar = arg(op.args[0], "re"),
                            ai = arg(op.args[0], "im"),
                            br = arg(op.args[1], "re"),
                            bi = arg(op.args[1], "im");
          emit_assign("re", ar + " * " + br + " - " + ai + " * " + bi);
          if (op.type.cplx)
            emit_assign("im", ar + " * " + bi + " + " + ai + " * " + br);
          break;
        }
        case OpKind::kNeg:
          emit_assign("re", "-" + arg(op.args[0], "re"));
          if (op.type.cplx) emit_assign("im", "-" + arg(op.args[0], "im"));
          break;
        case OpKind::kSignConj:
          emit_assign("re", "(" + arg(op.args[0], "re") + "[" +
                                std::to_string(kW - 1) + "] ? -" + kWs() +
                                "'sd1 : " + kWs() + "'sd1)");
          if (op.type.cplx)  // a real result has no _im wire declared
            emit_assign("im", "(" + arg(op.args[0], "im") + "[" +
                                  std::to_string(kW - 1) + "] ? " + kWs() +
                                  "'sd1 : -" + kWs() + "'sd1)");
          break;
        case OpKind::kCast:
          emit_assign("re", ee.convert(arg(op.args[0], "re"),
                                       arg_fw(op.args[0]), op.type,
                                       "c" + std::to_string(r) + "o" +
                                           std::to_string(i) + "re"));
          if (op.type.cplx)
            emit_assign("im", ee.convert(arg(op.args[0], "im"),
                                         arg_fw(op.args[0]), op.type,
                                         "c" + std::to_string(r) + "o" +
                                             std::to_string(i) + "im"));
          break;
        case OpKind::kReal:
          emit_assign("re", arg(op.args[0], "re"));
          break;
        case OpKind::kImag:
          emit_assign("re", arg(op.args[0], "im"));
          break;
        case OpKind::kMakeComplex: {
          const int fa = arg_fw(op.args[0]), fb = arg_fw(op.args[1]);
          emit_assign("re", "(" + arg(op.args[0], "re") + " <<< " +
                                std::to_string(fw - fa) + ")");
          emit_assign("im", "(" + arg(op.args[1], "re") + " <<< " +
                                std::to_string(fw - fb) + ")");
          break;
        }
      }
    }
  }

  // ---- Instrumentation updates ---------------------------------------------------
  // Three insertion points in the FSM always-block: zero on rst, one
  // unconditional tick block keyed on the current state (active/region
  // cycles, iteration completions, serialization stalls, guard-qualified
  // memory-port activity), and the invocation count on the accepted start
  // handshake. All empty when instrumentation is off.
  std::string perf_rst, perf_tick, perf_start;
  if (!perf.empty()) {
    std::ostringstream prst, ptick, pstart;
    auto bump = [&](std::ostringstream& os, const std::string& name,
                    const std::string& by) {
      os << name << " <= " << name << " + " << by << ";\n";
    };
    for (const auto& c : perf) {
      prst << "      " << c.name << " <= " << plit(0) << ";\n";
      switch (c.kind) {
        case hls::CounterKind::kInvocations:
          pstart << "          ";
          bump(pstart, c.name, plit(1));
          break;
        case hls::CounterKind::kActiveCycles:
          ptick << "      if (state != S_IDLE) ";
          bump(ptick, c.name, plit(1));
          break;
        case hls::CounterKind::kRegionCycles: {
          const int base = region_state_base[static_cast<size_t>(c.region)];
          const int last =
              base + s.regions[static_cast<size_t>(c.region)].body.cycles - 1;
          if (base == last)
            ptick << "      if (state == " << base << ") ";
          else
            ptick << "      if (state >= " << base << " && state <= " << last
                  << ") ";
          bump(ptick, c.name, plit(1));
          break;
        }
        case hls::CounterKind::kLoopIters: {
          const int last =
              region_state_base[static_cast<size_t>(c.region)] +
              s.regions[static_cast<size_t>(c.region)].body.cycles - 1;
          ptick << "      if (state == " << last << ") ";
          bump(ptick, c.name, plit(1));
          break;
        }
        case hls::CounterKind::kLoopStall: {
          const auto& rs = s.regions[static_cast<size_t>(c.region)];
          const int bubble = rs.body.cycles - rs.ii;
          if (bubble <= 0) break;  // re-entry is no slower than the II
          const int last = region_state_base[static_cast<size_t>(c.region)] +
                           rs.body.cycles - 1;
          ptick << "      if (state == " << last << " && k != " << rs.trip - 1
                << ") ";
          bump(ptick, c.name, plit(bubble));
          break;
        }
        case hls::CounterKind::kMemReads:
        case hls::CounterKind::kMemWrites: {
          const OpKind want = c.kind == hls::CounterKind::kMemReads
                                  ? OpKind::kArrayRead
                                  : OpKind::kArrayWrite;
          for (std::size_t r = 0; r < f.regions.size(); ++r) {
            const Region& region = f.regions[r];
            const Block& b =
                region.is_loop ? region.loop.body : region.straight;
            const auto& bs = s.regions[r].body;
            for (int cyc = 0; cyc < bs.cycles; ++cyc) {
              long long n = 0;                 // unconditional accesses
              std::map<int, long long> gated;  // guard_trip -> count
              for (std::size_t i = 0; i < b.ops.size(); ++i) {
                const Op& op = b.ops[i];
                if (op.kind != want || op.array != c.array) continue;
                if (bs.place[i].cycle != cyc) continue;
                if (op.guard_trip < 0)
                  ++n;
                else if (region.is_loop)
                  ++gated[op.guard_trip];
                else if (op.guard_trip > 0)
                  ++n;  // straight region: k is 0, the guard folds statically
              }
              if (n == 0 && gated.empty()) continue;
              std::vector<std::string> terms;
              if (n > 0) terms.push_back(plit(n));
              for (const auto& [g, m] : gated)
                terms.push_back("((k < " + std::to_string(g) + ") ? " +
                                plit(m) + " : " + plit(0) + ")");
              ptick << "      if (state == " << region_state_base[r] + cyc
                    << ") " << c.name << " <= " << c.name;
              for (const std::string& t : terms) ptick << " + " << t;
              ptick << ";\n";
            }
          }
          break;
        }
      }
    }
    perf_rst = prst.str();
    perf_tick = ptick.str();
    perf_start = pstart.str();
  }

  // ---- FSM -----------------------------------------------------------------------
  seq << "\n  always @(posedge clk) begin\n"
      << "    if (rst) begin\n      state <= S_IDLE;\n      done <= 1'b0;\n"
      << (any_loop ? "      k <= 0;\n" : "")
      << perf_rst
      << "    end else begin\n      done <= 1'b0;\n"
      << perf_tick
      << "      case (state)\n        S_IDLE: if (start) begin state <= "
      << region_state_base[0] << ";" << (any_loop ? " k <= 0;" : "")
      << "\n"
      << perf_start;
  // Latch input array ports into their register files on start.
  for (const auto& a : f.arrays) {
    if (a.port != PortDir::kIn && a.port != PortDir::kInOut) continue;
    for (int j = 0; j < a.length; ++j) {
      const std::string pin = a.name + "_" + std::to_string(j);
      if (a.elem.cplx) {
        seq << "          m_" << a.name << "_re[" << j << "] <= " << pin
            << "_re;\n";
        seq << "          m_" << a.name << "_im[" << j << "] <= " << pin
            << "_im;\n";
      } else {
        seq << "          m_" << a.name << "[" << j << "] <= " << pin
            << ";\n";
      }
    }
  }
  seq << "        end\n";

  for (std::size_t r = 0; r < f.regions.size(); ++r) {
    const Region& region = f.regions[r];
    const Block& b = region.is_loop ? region.loop.body : region.straight;
    const auto& rs = s.regions[r];
    for (int c = 0; c < rs.body.cycles; ++c) {
      seq << "        " << region_state_base[r] + c << ": begin\n";
      // Register loads for writes and op pipeline values in this cycle.
      for (std::size_t i = 0; i < b.ops.size(); ++i) {
        const Op& op = b.ops[i];
        if (rs.body.place[i].cycle != c) continue;
        std::string guard;
        if (op.guard_trip >= 0)
          guard = "if (k < " + std::to_string(op.guard_trip) + ") ";
        if (op.kind == OpKind::kVarWrite) {
          const auto& v = f.vars[static_cast<size_t>(op.var)];
          const bool is_port = v.port != PortDir::kNone;
          if (!is_port && !var_reg_read[static_cast<size_t>(op.var)])
            continue;  // register elided — consumers take the write's wire
          const std::string base = is_port ? v.name : "v_" + v.name;
          seq << "          " << guard << base << (v.type.cplx ? "_re" : "")
              << " <= " << wname(r, i, "re") << "[" << v.type.w - 1
              << ":0];\n";
          if (v.type.cplx)
            seq << "          " << guard << base << "_im <= "
                << wname(r, i, "im") << "[" << v.type.w - 1 << ":0];\n";
        } else if (op.kind == OpKind::kArrayWrite) {
          const auto& a = f.arrays[static_cast<size_t>(op.array)];
          std::ostringstream idx;
          idx << "(";
          if (op.idx.scale != 0)
            idx << "$signed({1'b0,k}) * " << op.idx.scale << " + ";
          idx << op.idx.offset << ")";
          seq << "          " << guard << "m_" << a.name
              << (a.elem.cplx ? "_re" : "") << "[" << idx.str()
              << "] <= " << wname(r, i, "re") << "[" << a.elem.w - 1
              << ":0];\n";
          if (a.elem.cplx)
            seq << "          " << guard << "m_" << a.name << "_im["
                << idx.str() << "] <= " << wname(r, i, "im") << "["
                << a.elem.w - 1 << ":0];\n";
        } else if (pipe_used[r][i]) {
          // Pipeline the value for later-cycle consumers.
          seq << "          " << pname(r, i, "re") << " <= "
              << wname(r, i, "re") << ";\n";
          if (op.type.cplx)
            seq << "          " << pname(r, i, "im") << " <= "
                << wname(r, i, "im") << ";\n";
        }
      }
      // Next-state logic.
      const bool last_cycle = c == rs.body.cycles - 1;
      const bool last_region = r + 1 == f.regions.size();
      const std::string next_region_state =
          last_region ? "S_IDLE"
                      : std::to_string(region_state_base[r + 1]);
      if (region.is_loop && last_cycle) {
        seq << "          if (k == " << rs.trip - 1 << ") begin k <= 0; "
            << "state <= " << next_region_state << ";"
            << (last_region ? " done <= 1'b1;" : "") << " end\n"
            << "          else begin k <= k + 16'd1; state <= "
            << region_state_base[r] << "; end\n";
      } else if (last_cycle) {
        seq << "          state <= " << next_region_state << ";"
            << (last_region ? " done <= 1'b1;" : "") << "\n";
      } else {
        seq << "          state <= " << region_state_base[r] + c + 1
            << ";\n";
      }
      seq << "        end\n";
    }
  }
  seq << "        default: state <= S_IDLE;\n      endcase\n    end\n"
      << "  end\n";

  std::ostringstream out;
  out << header.str() << ports.str() << decl.str() << "\n" << comb.str()
      << seq.str() << "endmodule\n";
  return out.str();
}

}  // namespace hlsw::rtl
