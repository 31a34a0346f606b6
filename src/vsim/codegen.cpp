#include "vsim/codegen.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlsw::vsim {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("vsim runtime error: " + what);
}

// Revision of the generated engine's C ABI, embedded in every object
// (hlsw_cg_abi) and folded into the cache fingerprint. Rev 3: the scalar
// entry points are gone (one lane is the lane-major engine at kL = 1) and
// NBA planes ride inline in the queue entries.
constexpr int kCgAbi = 3;

// ---- Toolchain resolution ---------------------------------------------------

struct Probe {
  bool ok = false;
  std::string version;  // first line of `cmd --version`
  // " -march=<level>" for cpu_isa_level() when the toolchain accepts it,
  // else empty (the toolchain's default target).
  std::string march;
};

// The highest x86-64 ISA level (v4, else v3) this CPU runs, or null. Only
// feature names that GCC and Clang both accept are tested; a CPU with
// these also has the rest of the level (F16C, LZCNT, MOVBE, XSAVE).
const char* cpu_isa_level() {
#if defined(__x86_64__) && defined(__GNUC__)
  const bool v3 = __builtin_cpu_supports("popcnt") &&
                  __builtin_cpu_supports("sse4.2") &&
                  __builtin_cpu_supports("avx") &&
                  __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("bmi") &&
                  __builtin_cpu_supports("bmi2");
  if (!v3) return nullptr;
  const bool v4 = __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512cd") &&
                  __builtin_cpu_supports("avx512dq") &&
                  __builtin_cpu_supports("avx512vl");
  return v4 ? "x86-64-v4" : "x86-64-v3";
#else
  return nullptr;
#endif
}

// Probe results are memoized per candidate command; the environment
// variables themselves are re-read on every call so a test can disable
// codegen (HLSW_CODEGEN_CXX=none) and re-enable it within one process.
Probe probe_cxx(const std::string& cmd) {
  static std::mutex mu;
  static std::map<std::string, Probe> memo;
  std::lock_guard<std::mutex> lk(mu);
  const auto it = memo.find(cmd);
  if (it != memo.end()) return it->second;
  Probe p;
  if (FILE* out = ::popen((cmd + " --version 2>/dev/null").c_str(), "r")) {
    char buf[512];
    if (std::fgets(buf, sizeof buf, out) != nullptr) p.version = buf;
    // Drain the rest so the child never blocks on a full pipe.
    while (std::fgets(buf, sizeof buf, out) != nullptr) {
    }
    p.ok = ::pclose(out) == 0;
    while (!p.version.empty() &&
           (p.version.back() == '\n' || p.version.back() == '\r'))
      p.version.pop_back();
  }
  if (const char* level = cpu_isa_level(); p.ok && level != nullptr) {
    const std::string march = std::string(" -march=") + level;
    const std::string check =
        cmd + march + " -fsyntax-only -x c++ /dev/null > /dev/null 2>&1";
    if (std::system(check.c_str()) == 0) p.march = march;
  }
  memo[cmd] = p;
  return p;
}

}  // namespace

std::string codegen_toolchain() {
  if (const char* e = std::getenv("HLSW_CODEGEN_CXX")) {
    const std::string v = e;
    if (v.empty() || v == "none") return "";
    return probe_cxx(v).ok ? v : "";
  }
  if (const char* e = std::getenv("CXX")) {
    const std::string v = e;
    if (!v.empty() && probe_cxx(v).ok) return v;
  }
  for (const char* cand : {"c++", "g++", "clang++"})
    if (probe_cxx(cand).ok) return cand;
  return "";
}

bool codegen_available() { return !codegen_toolchain().empty(); }

// ---- Source generation ------------------------------------------------------

namespace {

std::string hx(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// One tape as lane-loop text: `body` holds the statements of the final
// `for (l = 0; l < kL; ++l)` loop and `value` the expression (a temp name
// or literal) of the tape's value inside it. Every op result becomes its
// own `const u64` temp so operands are never textually duplicated; `tmp` is
// the caller-scoped temp counter keeping names unique per function. Signal
// loads index the lane plane. With `split`, an array read whose index is
// not a constant ends the lane loop: the index goes to an `i64 ixN[kL]`
// plane, the temps still on the stack to `u64 pN[kL]` planes, and ldrow
// reads the element plane `rwN` (one row when every lane agrees on the
// index) before the next loop resumes. `pre` holds those earlier loops and
// reads, whole statements that run before the final loop. Without
// `split` (one lane, where nothing vectorizes) `pre` is empty and element
// loads pass the lane through to the per-lane ldel.
struct LaneTape {
  std::string pre, body, value;
};

LaneTape lane_tape(const CompiledDesign& cd, int tape, int& tmp,
                   const std::string& ind, bool split) {
  const TapeRef& t = cd.tapes[static_cast<std::size_t>(tape)];
  const std::string bind = ind + "  ";  // statements sit inside the loop
  LaneTape out;
  std::ostringstream os;  // the open loop's statements
  // Stack entries: a literal, a temp of the open loop, or a plane element
  // ("pN[l]", "rwN[l]") that outlives it.
  struct Ent {
    std::string expr;
    bool temp;
  };
  std::vector<Ent> stk;
  const auto push = [&](const std::string& expr) {
    std::string name = "t" + std::to_string(tmp++);
    os << bind << "const u64 " << name << " = " << expr << ";\n";
    stk.push_back({std::move(name), true});
  };
  const auto pop = [&] {
    std::string v = std::move(stk.back().expr);
    stk.pop_back();
    return v;
  };
  const auto sig = [&](std::int32_t a) {
    return "S->v[" + std::to_string(a) + "][l]";
  };
  const auto arr = [&](std::int32_t a) {
    return "S->a" + std::to_string(a);
  };
  const auto alen = [&](std::int32_t a) {
    return std::to_string(cd.design->signals[static_cast<std::size_t>(a)]
                              .array_len);
  };
  // An element read of array `a` at index expression `idx` (an i64), as an
  // expression valid in the open loop. A literal index stays a per-lane
  // ldel: its loop reads one row already.
  const auto load_elem = [&](std::int32_t a, const std::string& u,
                             const std::string& idx) -> std::string {
    if (!split || u.rfind("(0x", 0) == 0)
      return "ldel(" + arr(a) + ", " + alen(a) + ", " + idx + ", l)";
    const std::string n = std::to_string(tmp++);
    std::string decl = ind + "i64 ix" + n + "[kL];";
    std::string keep;
    for (Ent& e : stk) {
      if (!e.temp) continue;
      const std::string p = "p" + e.expr.substr(1);
      decl += " u64 " + p + "[kL];";
      keep += bind + p + "[l] = " + e.expr + ";\n";
      e = {p + "[l]", false};
    }
    out.pre += decl + "\n" + ind + "for (int l = 0; l < kL; ++l) {\n" +
               os.str() + keep + bind + "ix" + n + "[l] = " + idx + ";\n" +
               ind + "}\n" + ind + "u64 rw" + n + "[kL];\n" + ind +
               "ldrow(rw" + n + ", " + arr(a) + ", " + alen(a) + ", ix" + n +
               ");\n";
    os.str("");
    return "rw" + n + "[l]";
  };
  for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    const TOp& o = cd.ops[i];
    const std::string W = std::to_string(o.w);
    const std::string A = std::to_string(o.a);
    const std::string I = hx(o.imm);
    // Folded 32-bit constants of the xC superinstructions.
    const std::string C =
        hx(static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.a)));
    switch (o.code) {
      case TOp::kConst:
        stk.push_back({"(" + I + ")", false});
        break;
      case TOp::kLoad:
        push(sig(o.a));
        break;
      case TOp::kLoadSx:
        push("sx(" + sig(o.a) + ", " + W + ") & " + I);
        break;
      case TOp::kLoadTr:
        push(sig(o.a) + " & " + I);
        break;
      case TOp::kLoadElem: {
        const std::string u = pop();
        const std::string idx =
            o.w ? "(i64)sx(" + u + ", " + W + ")" : "(i64)" + u;
        push(load_elem(o.a, u, idx));
        break;
      }
      case TOp::kTrunc:
        push(pop() + " & " + I);
        break;
      case TOp::kSext:
        push("sx(" + pop() + ", " + W + ") & " + I);
        break;
      case TOp::kToSigned:
        push("tosgn(" + pop() + ", " + W + ")");
        break;
      case TOp::kBitSel: {
        const std::string idx = pop(), base = pop();
        push("bitsel(" + base + ", (i64)" + idx + ", " + W + ")");
        break;
      }
      case TOp::kRange:
        push("(" + pop() + " >> " + A + ") & " + I);
        break;
      case TOp::kNeg:
        push("(0 - " + pop() + ") & " + I);
        break;
      case TOp::kNot:
        push("~" + pop() + " & " + I);
        break;
      case TOp::kLNot:
        push("(u64)(" + pop() + " == 0)");
        break;
      case TOp::kNeZero:
        push("(u64)(" + pop() + " != 0)");
        break;
      case TOp::kRedAnd:
        push("(u64)(" + pop() + " == " + I + ")");
        break;
      case TOp::kRedNand:
        push("(u64)(" + pop() + " != " + I + ")");
        break;
      case TOp::kRedOr:
        push("(u64)(" + pop() + " != 0)");
        break;
      case TOp::kRedNor:
        push("(u64)(" + pop() + " == 0)");
        break;
      case TOp::kRedXor:
        push("(u64)__builtin_parityll((i64)" + pop() + ")");
        break;
      case TOp::kRedXnor:
        push("(u64)!__builtin_parityll((i64)" + pop() + ")");
        break;
      case TOp::kAnd: {
        const std::string b = pop(), a = pop();
        push(a + " & " + b);
        break;
      }
      case TOp::kOr: {
        const std::string b = pop(), a = pop();
        push(a + " | " + b);
        break;
      }
      case TOp::kXor: {
        const std::string b = pop(), a = pop();
        push(a + " ^ " + b);
        break;
      }
      case TOp::kXnorB: {
        const std::string b = pop(), a = pop();
        push("~(" + a + " ^ " + b + ") & " + I);
        break;
      }
      case TOp::kAdd: {
        const std::string b = pop(), a = pop();
        push("(" + a + " + " + b + ") & " + I);
        break;
      }
      case TOp::kSub: {
        const std::string b = pop(), a = pop();
        push("(" + a + " - " + b + ") & " + I);
        break;
      }
      case TOp::kMul: {
        const std::string b = pop(), a = pop();
        push("(" + a + " * " + b + ") & " + I);
        break;
      }
      case TOp::kDivU: {
        const std::string b = pop(), a = pop();
        push(b + " == 0 ? 0 : " + a + " / " + b);
        break;
      }
      case TOp::kModU: {
        const std::string b = pop(), a = pop();
        push(b + " == 0 ? 0 : " + a + " % " + b);
        break;
      }
      case TOp::kDivS: {
        const std::string b = pop(), a = pop();
        push("divs(" + a + ", " + b + ", " + W + ", " + I + ")");
        break;
      }
      case TOp::kModS: {
        const std::string b = pop(), a = pop();
        push("mods(" + a + ", " + b + ", " + W + ", " + I + ")");
        break;
      }
      case TOp::kEq: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " == " + b + ")");
        break;
      }
      case TOp::kNe: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " != " + b + ")");
        break;
      }
      case TOp::kLtU: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " < " + b + ")");
        break;
      }
      case TOp::kLeU: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " <= " + b + ")");
        break;
      }
      case TOp::kGtU: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " > " + b + ")");
        break;
      }
      case TOp::kGeU: {
        const std::string b = pop(), a = pop();
        push("(u64)(" + a + " >= " + b + ")");
        break;
      }
      case TOp::kLtS: {
        const std::string b = pop(), a = pop();
        push("(u64)(sgn64(" + a + ", " + W + ") < sgn64(" + b + ", " + W +
             "))");
        break;
      }
      case TOp::kLeS: {
        const std::string b = pop(), a = pop();
        push("(u64)(sgn64(" + a + ", " + W + ") <= sgn64(" + b + ", " + W +
             "))");
        break;
      }
      case TOp::kGtS: {
        const std::string b = pop(), a = pop();
        push("(u64)(sgn64(" + a + ", " + W + ") > sgn64(" + b + ", " + W +
             "))");
        break;
      }
      case TOp::kGeS: {
        const std::string b = pop(), a = pop();
        push("(u64)(sgn64(" + a + ", " + W + ") >= sgn64(" + b + ", " + W +
             "))");
        break;
      }
      case TOp::kShl: {
        const std::string sh = pop(), a = pop();
        push(sh + " >= 64 ? 0 : (" + a + " << " + sh + ") & " + I);
        break;
      }
      case TOp::kShrU: {
        const std::string sh = pop(), a = pop();
        push(sh + " >= 64 ? 0 : " + a + " >> " + sh);
        break;
      }
      case TOp::kShrS: {
        const std::string sh = pop(), a = pop();
        push("(u64)(sgn64(" + a + ", " + W + ") >> (" + sh + " > 63 ? 63 : " +
             sh + ")) & " + I);
        break;
      }
      case TOp::kConcatAcc: {
        const std::string kid = pop(), acc = pop();
        push("(" + acc + " << " + W + ") | " + kid);
        break;
      }
      case TOp::kRepl:
        push("repl(" + pop() + ", " + W + ", " + A + ")");
        break;
      case TOp::kMux: {
        const std::string ev = pop(), tv = pop(), cond = pop();
        push(cond + " != 0 ? " + tv + " : " + ev);
        break;
      }
      case TOp::kLoadElemSx: {
        const std::string u = pop();
        push("sx(" + load_elem(o.a, u, "(i64)" + u) + ", " + W + ") & " + I);
        break;
      }
      case TOp::kLoadElemTr: {
        const std::string u = pop();
        const std::string idx =
            o.w ? "(i64)sx(" + u + ", " + W + ")" : "(i64)" + u;
        push(load_elem(o.a, u, idx) + " & " + I);
        break;
      }
      case TOp::kAddC:
        push("(" + pop() + " + " + C + ") & " + I);
        break;
      case TOp::kSubC:
        push("(" + pop() + " - " + C + ") & " + I);
        break;
      case TOp::kMulC:
        push("(" + pop() + " * " + C + ") & " + I);
        break;
      case TOp::kOrC:
        push(pop() + " | " + I);
        break;
      case TOp::kXorC:
        push(pop() + " ^ " + I);
        break;
      case TOp::kShlC:
        push("(" + pop() + " << " + C + ") & " + I);
        break;
      case TOp::kConcatC:
        push("(" + pop() + " << " + W + ") | " + C);
        break;
      case TOp::kAddL:
        push("(" + pop() + " + " + sig(o.a) + ") & " + I);
        break;
      case TOp::kSubL:
        push("(" + pop() + " - " + sig(o.a) + ") & " + I);
        break;
      case TOp::kMulL:
        push("(" + pop() + " * " + sig(o.a) + ") & " + I);
        break;
      case TOp::kAndL:
        push(pop() + " & " + sig(o.a));
        break;
      case TOp::kOrL:
        push(pop() + " | " + sig(o.a));
        break;
      case TOp::kXorL:
        push(pop() + " ^ " + sig(o.a));
        break;
      case TOp::kConcatL:
        push("(" + pop() + " << " + W + ") | " + sig(o.a));
        break;
      case TOp::kRangeL:
        push("(" + sig(o.a) + " >> " + W + ") & " + I);
        break;
      case TOp::kLoadShlC:
        push("(" + sig(o.a) + " << " + W + ") & " + I);
        break;
      case TOp::kHalt:  // the tape's last op
        break;
    }
  }
  out.body = os.str();
  out.value = stk.back().expr;
  return out;
}

// End of proc p's slice of CompiledDesign::prog (entries are built
// sequentially, so proc bodies are contiguous).
std::size_t proc_end(const CompiledDesign& cd, std::size_t p) {
  return p + 1 < cd.procs.size()
             ? static_cast<std::size_t>(cd.procs[p + 1].entry)
             : cd.prog.size();
}

// Per-signal static tables (masks, widths, array lengths, fanout/trigger
// flags).
void emit_static_tables(std::ostream& os, const CompiledDesign& cd) {
  const Design& d = *cd.design;
  const std::size_t nsig = d.signals.size();
  const auto bool_table = [&](const char* name, auto pred) {
    os << "static constexpr bool " << name << "[" << nsig << "] = {";
    for (std::size_t i = 0; i < nsig; ++i)
      os << (i ? "," : "") << (pred(i) ? 1 : 0);
    os << "};\n";
  };
  os << "static constexpr u64 kMask[" << nsig << "] = {";
  for (std::size_t i = 0; i < nsig; ++i)
    os << (i ? "," : "") << hx(cd.sig_mask[i]);
  os << "};\n";
  os << "static constexpr int kWidth[" << nsig << "] = {";
  for (std::size_t i = 0; i < nsig; ++i)
    os << (i ? "," : "") << d.signals[i].width;
  os << "};\n";
  os << "static constexpr i64 kALen[" << nsig << "] = {";
  for (std::size_t i = 0; i < nsig; ++i)
    os << (i ? "," : "") << d.signals[i].array_len;
  os << "};\n";
  bool_table("kHasFan", [&](std::size_t i) {
    return cd.fan_index[i] < cd.fan_index[i + 1];
  });
  bool_table("kHasTrig", [&](std::size_t i) {
    return cd.trig_index[i] < cd.trig_index[i + 1];
  });
  os << "\n";
}

// Load-site classification as in compile.cpp: the xL superinstructions are
// reads of val[a] too.
bool tape_reads_scalar(const TOp& o) {
  switch (o.code) {
    case TOp::kLoad:
    case TOp::kLoadSx:
    case TOp::kLoadTr:
    case TOp::kAddL:
    case TOp::kSubL:
    case TOp::kMulL:
    case TOp::kAndL:
    case TOp::kOrL:
    case TOp::kXorL:
    case TOp::kConcatL:
    case TOp::kRangeL:
    case TOp::kLoadShlC:
      return true;
    default:
      return false;
  }
}

// One lane-masked process body: a LIFO stack of (pc, mask) contexts split
// off by divergent branches, a `dispatch` switch that re-enters the goto
// graph at a dynamic pc, and instruction retirement counted as
// popcount(mask), so the lane sum equals what L scalar CompiledSim runs
// retire (pack_test pins the bit-identity against those runs).
void emit_proc(std::ostream& os, const CompiledDesign& cd, std::size_t p,
               bool split) {
  const std::size_t entry = static_cast<std::size_t>(cd.procs[p].entry);
  const std::size_t end = proc_end(cd, p);

  // Contexts hold disjoint non-empty lane sets, so at most kL exist at
  // once and fixed arrays replace the oracle's vector.
  os << "static int proc" << p << "(St* S, u64 m, i64 budget) {\n"
        "  u64 wk_m[kL]; int wk_pc[kL]; int wsp = 0; int npc = 0;\n"
        "  u64 pl[kL]; u64 ixp[kL];\n"
        "  (void)wk_m; (void)wk_pc; (void)wsp; (void)npc;\n"
        "  (void)pl; (void)ixp; (void)budget;\n";
  int tmp = 0;
  for (std::size_t pc = entry; pc < end; ++pc) {
    const PInstr& in = cd.prog[pc];
    const std::string SIG = std::to_string(in.sig);
    const std::string MASK =
        in.sig >= 0 ? hx(cd.sig_mask[static_cast<std::size_t>(in.sig)]) : "";
    const std::string A = std::to_string(in.a);
    // Evaluates a tape for every lane into `dest[l]` (pure, so computing
    // lanes outside the mask is harmless — oracle does the same).
    const auto plane_tape = [&](int tape, const char* dest) {
      const LaneTape t = lane_tape(cd, tape, tmp, "    ", split);
      os << t.pre << "    for (int l = 0; l < kL; ++l) {\n" << t.body
         << "      " << dest << "[l] = " << t.value << ";\n    }\n";
    };
    // A conditional jump on the lanes whose condition reads zero (`cz`,
    // counted in `nf` over every lane). The count decides the lockstep
    // cases (every lane jumps, or none does) in a vectorizable loop; the
    // lane mask `tk` is built only when the lanes disagree.
    const auto cond_jump = [&]() {
      os << "    u64 tk = 0;\n"
            "    if (nf == (u64)kL) {\n"
            "      tk = m;\n"
            "    } else if (nf != 0) {\n"
            "      for (int l = 0; l < kL; ++l) tk |= cz[l] << l;\n"
            "      tk &= m;\n"
            "    }\n"
            "    if (tk == m) goto L"
         << in.a
         << ";\n"
            "    if (tk != 0) { ++S->div_splits; wk_pc[wsp] = "
         << A << "; wk_m[wsp] = tk; ++wsp; m &= ~tk; }\n";
    };
    os << "  L" << pc << ": S->instrs += popc(m);\n";
    os << "  {\n";
    switch (in.code) {
      case PInstr::kAssign:
        plane_tape(in.t0, "pl");
        os << "    set_masked(S, " << SIG << ", pl, m);\n";
        break;
      case PInstr::kAssignCopy:
        os << "    set_masked(S, " << SIG << ", S->v[" << in.a << "], m);\n";
        break;
      case PInstr::kAssignConst:
        os << "    set_masked_c(S, " << SIG << ", " << hx(in.imm) << ", m);\n";
        break;
      case PInstr::kAssignElem:
        plane_tape(in.t0, "pl");  // value first, then index (kernel order)
        plane_tape(in.t1, "ixp");
        os << "    for (int l = 0; l < kL; ++l)\n"
              "      if ((m >> l) & 1) setel_lane(S, "
           << SIG << ", l, (i64)ixp[l], pl[l]);\n";
        break;
      case PInstr::kAssignBit: {
        plane_tape(in.t0, "pl");
        plane_tape(in.t1, "ixp");
        const int w =
            cd.design->signals[static_cast<std::size_t>(in.sig)].width;
        os << "    const u64* cur = S->v[" << SIG << "];\n"
              "    u64 valid = 0;\n"
              "    for (int l = 0; l < kL; ++l) {\n"
              "      if (!((m >> l) & 1)) continue;\n"
              "      const i64 bi = (i64)ixp[l];\n"
              "      if (bi < 0 || bi >= "
           << w
           << ") continue;\n"
              "      pl[l] = (cur[l] & ~(1ull << bi)) | ((pl[l] & 1ull) << "
              "bi);\n"
              "      valid |= 1ull << l;\n"
              "    }\n"
              "    set_masked(S, "
           << SIG << ", pl, valid);\n";
        break;
      }
      case PInstr::kNb:
        plane_tape(in.t0, "pl");
        os << "    Nba& e = nba_push(S, " << SIG
           << ", m, false);\n"
              "    for (int l = 0; l < kL; ++l) e.v[l] = pl[l] & "
           << MASK << ";\n";
        break;
      case PInstr::kNbCopy:
        os << "    Nba& e = nba_push(S, " << SIG
           << ", m, false);\n"
              "    for (int l = 0; l < kL; ++l) e.v[l] = S->v["
           << in.a << "][l] & " << MASK << ";\n";
        break;
      case PInstr::kNbConst:
        os << "    Nba& e = nba_push(S, " << SIG
           << ", m, false);\n"
              "    for (int l = 0; l < kL; ++l) e.v[l] = "
           << hx(in.imm) << ";\n";
        break;
      case PInstr::kNbElem:
      case PInstr::kNbBit: {
        // Element writes keep the signal's mask, bit writes only bit 0;
        // the index plane rides in the entry either way.
        const std::string vm = in.code == PInstr::kNbElem ? MASK : "1ull";
        plane_tape(in.t0, "pl");
        plane_tape(in.t1, "ixp");
        os << "    Nba& e = nba_push(S, " << SIG
           << ", m, true);\n"
              "    for (int l = 0; l < kL; ++l) {\n"
              "      e.v[l] = pl[l] & "
           << vm
           << ";\n"
              "      e.ix[l] = (i64)ixp[l];\n"
              "    }\n";
        break;
      }
      case PInstr::kJump:
        // Backward jumps carry the aggregate (lane-summed) budget check;
        // the budget arrives pre-scaled by the lane count.
        if (in.a <= static_cast<std::int32_t>(pc))
          os << "    if (S->instrs - S->slot_base > budget) return 1;\n";
        os << "    goto L" << in.a << ";\n";
        break;
      case PInstr::kJumpIfFalse: {
        const LaneTape t = lane_tape(cd, in.t0, tmp, "    ", split);
        os << t.pre
           << "    u64 cz[kL]; u64 nf = 0;\n"
              "    for (int l = 0; l < kL; ++l) {\n"
           << t.body << "      cz[l] = (u64)(" << t.value
           << " == 0);\n"
              "      nf += cz[l];\n"
              "    }\n";
        cond_jump();
        break;
      }
      case PInstr::kJumpIfFalseSig:
        os << "    u64 cz[kL]; u64 nf = 0;\n"
              "    const u64* s = S->v["
           << SIG
           << "];\n"
              "    for (int l = 0; l < kL; ++l) {\n"
              "      cz[l] = (u64)(s[l] == 0);\n"
              "      nf += cz[l];\n"
              "    }\n";
        cond_jump();
        break;
      case PInstr::kCaseJump:
        // Lockstep fast path dispatches all lanes in one shot (no split
        // counted); otherwise lanes group by target in first-seen order
        // and groups 1..n-1 stack up, exactly as the oracle. Under a full
        // mask the lockstep test counts the lanes off lane 0's selector
        // (a loop that vectorizes); a partial mask tests lane by lane.
        os << "    const u64* s = S->v[" << SIG
           << "];\n"
              "    const u64 s0 = s[__builtin_ctzll(m)];\n";
        if (split)
          os << "    bool lock;\n"
                "    if (m == kFull) {\n"
                "      u64 nd = 0;\n"
                "      for (int l = 0; l < kL; ++l) nd += (u64)(s[l] != s0);\n"
                "      lock = nd == 0;\n"
                "    } else {\n"
                "      lock = true;\n"
                "      for (int l = 0; l < kL; ++l) lock &= (s[l] == s0) | "
                "!((m >> l) & 1);\n"
                "    }\n";
        else
          os << "    bool lock = true;\n"
                "    for (int l = 0; l < kL; ++l) lock &= (s[l] == s0) | "
                "!((m >> l) & 1);\n";
        os << "    if (lock) { npc = case_t"
           << in.a
           << "(s0); goto dispatch; }\n"
              "    int gpc[kL]; u64 gm[kL]; int ng = 0;\n"
              "    for (int l = 0; l < kL; ++l) {\n"
              "      if (!((m >> l) & 1)) continue;\n"
              "      const int tpc = case_t"
           << in.a
           << "(s[l]);\n"
              "      int g = 0;\n"
              "      while (g < ng && gpc[g] != tpc) ++g;\n"
              "      if (g == ng) { gpc[ng] = tpc; gm[ng] = 0; ++ng; }\n"
              "      gm[g] |= 1ull << l;\n"
              "    }\n"
              "    S->div_splits += ng - 1;\n"
              "    for (int g = 1; g < ng; ++g) { wk_pc[wsp] = gpc[g]; "
              "wk_m[wsp] = gm[g]; ++wsp; }\n"
              "    m = gm[0];\n"
              "    npc = gpc[0];\n"
              "    goto dispatch;\n";
        break;
      case PInstr::kHalt:
        os << "    if (wsp == 0) return 0;\n"
              "    --wsp; npc = wk_pc[wsp]; m = wk_m[wsp]; goto dispatch;\n";
        break;
    }
    os << "  }\n";
  }
  os << "  dispatch:\n  switch (npc) {\n";
  for (std::size_t pc = entry; pc < end; ++pc)
    os << "    case " << pc << ": goto L" << pc << ";\n";
  os << "    default: return 0;\n  }\n}\n\n";
}

}  // namespace

std::string packed_codegen_source(const CompiledDesign& cd, int lanes) {
  const Design& d = *cd.design;
  const std::size_t nsig = d.signals.size();
  const std::size_t nproc = cd.procs.size();
  const std::uint64_t full =
      lanes == 64 ? ~0ULL : (1ULL << lanes) - 1ULL;
  // One lane has nothing to vectorize, and splitting its tapes slowed the
  // one-lane engine by 1.5-5.5% on three of the four Table 1 designs, so
  // they keep a single loop.
  const bool split = lanes > 1;
  std::ostringstream os;

  // The lane count is part of the generated text (kL below), so every
  // (design, lanes) pair gets its own fingerprint.
  os << "// Generated by hlsw vsim codegen (lane-major engine, " << lanes
     << (lanes == 1 ? " lane" : " lanes")
     << ");\n"
        "// compiled and dlopen()ed at runtime. One translation unit per\n"
        "// (design fingerprint, lane count).\n"
        "#include <cstddef>\n#include <cstdint>\n#include <vector>\n";
  os << "namespace {\n"
        "typedef std::uint64_t u64;\ntypedef long long i64;\n"
        "constexpr int kL = "
     << lanes
     << ";\n"
        "constexpr u64 kFull = "
     << hx(full)
     << ";\n"
        "inline u64 um(int w) { return w >= 64 ? ~0ull : (1ull << w) - 1ull; "
        "}\n"
        "inline i64 sgn64(u64 v, int w) { if (w < 64 && ((v >> (w - 1)) & "
        "1)) v |= ~um(w); return (i64)v; }\n"
        "inline u64 sx(u64 v, int w) { if ((v >> (w - 1)) & 1) v |= ~um(w); "
        "return v; }\n"
        "inline u64 tosgn(u64 v, int w) { if (w < 64 && ((v >> (w - 1)) & "
        "1)) v |= ~um(w); return v; }\n"
        "inline u64 ldel(const u64* A, i64 n, i64 i, int l) { return (i >= 0 "
        "&& i < n) ? A[(std::size_t)i * kL + l] : 0; }\n"
        // Element plane of A at index plane ix: one row copy when every lane
        // reads the same index, zeros when that index is out of range, and
        // per-lane bounds-checked reads when the lanes disagree. Inlined, so
        // the planes stay in the caller's frame.
        "__attribute__((always_inline)) inline void ldrow(u64* __restrict "
        "out, const u64* __restrict A, i64 n, const i64* __restrict ix) {\n"
        "  u64 d = 0;\n"
        "  for (int l = 0; l < kL; ++l) d |= (u64)(ix[l] ^ ix[0]);\n"
        "  if (d != 0) {\n"
        "    for (int l = 0; l < kL; ++l) out[l] = ldel(A, n, ix[l], l);\n"
        "  } else if (ix[0] >= 0 && ix[0] < n) {\n"
        "    const u64* row = A + (std::size_t)ix[0] * kL;\n"
        "    for (int l = 0; l < kL; ++l) out[l] = row[l];\n"
        "  } else {\n"
        "    for (int l = 0; l < kL; ++l) out[l] = 0;\n"
        "  }\n"
        "}\n"
        // Stores plane nv & sm over plane v, which it must not overlap, and
        // returns how many lanes changed.
        "__attribute__((always_inline)) inline u64 stplane(u64* __restrict v, "
        "const u64* __restrict nv, u64 sm) {\n"
        "  u64 nch = 0;\n"
        "  for (int l = 0; l < kL; ++l) {\n"
        "    const u64 n = nv[l] & sm;\n"
        "    nch += (u64)(v[l] != n);\n"
        "    v[l] = n;\n"
        "  }\n"
        "  return nch;\n"
        "}\n"
        "inline u64 bitsel(u64 base, i64 i, int w) { return (i >= 0 && i < "
        "w) ? (base >> i) & 1 : 0; }\n"
        "inline u64 divs(u64 a, u64 b, int w, u64 imm) { const i64 sa = "
        "sgn64(a, w), sb = sgn64(b, w); u64 r; if (sb == 0) r = 0; else if "
        "(sb == -1) r = 0 - a; else r = (u64)(sa / sb); return r & imm; }\n"
        "inline u64 mods(u64 a, u64 b, int w, u64 imm) { const i64 sa = "
        "sgn64(a, w), sb = sgn64(b, w); u64 r; if (sb == 0 || sb == -1) r = "
        "0; else r = (u64)(sa % sb); return r & imm; }\n"
        "inline u64 repl(u64 kv, int w, int n) { u64 v = 0; for (int i = 0; "
        "i < n; ++i) v = (v << w) | kv; return v; }\n"
        // A one-lane mask is 0 or 1: its popcount is the mask itself.
     << (lanes == 1 ? "inline int popc(u64 m) { return (int)m; }\n\n"
                    : "inline int popc(u64 m) { return "
                      "__builtin_popcountll(m); }\n\n");

  emit_static_tables(os, cd);

  // Comb activity gating, as in the interpreted oracle: the fan CSR maps a
  // changed signal to the eager nodes that must re-evaluate (lazy nodes are
  // excluded by construction — they re-run at peek, below), and kLazyOf
  // names the lazy node driving a signal so the peek entry points can force
  // it on demand.
  const std::size_t nnodes = cd.nodes.size();
  os << "constexpr int kNN = " << std::max<std::size_t>(nnodes, 1) << ";\n";
  os << "static constexpr std::int32_t kFanIdx[" << (nsig + 1) << "] = {";
  for (std::size_t i = 0; i <= nsig; ++i)
    os << (i ? "," : "") << cd.fan_index[i];
  os << "};\n";
  os << "static constexpr std::int32_t kFanNodes["
     << std::max<std::size_t>(cd.fan_nodes.size(), 1) << "] = {";
  if (cd.fan_nodes.empty()) {
    os << "0";
  } else {
    for (std::size_t i = 0; i < cd.fan_nodes.size(); ++i)
      os << (i ? "," : "") << cd.fan_nodes[i];
  }
  os << "};\n";
  os << "static constexpr std::int32_t kLazyOf[" << nsig << "] = {";
  for (std::size_t i = 0; i < nsig; ++i) {
    const std::int32_t n = cd.node_of[i];
    const bool lazy =
        n >= 0 && cd.node_lazy[static_cast<std::size_t>(n)] != 0;
    os << (i ? "," : "") << (lazy ? n : -1);
  }
  os << "};\n\n";

  // Engine state: one kL-lane plane per signal (2D so runtime-sig paths
  // like set_masked index rows), lane-major arrays, lane-mask ready bits
  // and the NBA queue, with every extent baked. Each queued NBA carries
  // its value plane (and, for element and bit writes, its index plane)
  // inline; the empty constructor leaves the planes uninitialized for the
  // enqueuing instruction to fill.
  os << "struct Nba {\n"
        "  Nba() {}\n"
        "  std::int32_t sig;\n"
        "  bool has_ix;\n"
        "  u64 mask;\n"
        "  u64 v[kL];\n"
        "  i64 ix[kL];\n"
        "};\n";
  os << "struct St {\n  u64 v[" << nsig << "][kL] = {};\n";
  for (std::size_t i = 0; i < nsig; ++i)
    if (d.signals[i].array_len > 0)
      os << "  u64 a" << i << "[" << d.signals[i].array_len
         << " * kL] = {};\n";
  os << "  std::vector<Nba> nba;\n"
        "  u64 ready["
     << std::max<std::size_t>(nproc, 1)
     << "] = {};\n"
        "  int running = -1;\n"
        "  bool comb_dirty = true;\n"
        // Zero = dirty: the first flush evaluates every eager node, as the
        // oracle's constructor marks all non-lazy nodes pending.
        "  unsigned char nclean[kNN] = {};\n"
        "  i64 events = 0, nba_commits = 0, delta_cycles = 0, instrs = 0;\n"
        "  i64 flushes = 0, div_splits = 0, slot_base = 0;\n"
        "};\n\n"
        "inline Nba& nba_push(St* S, int sig, u64 m, bool has_ix) {\n"
        "  Nba& e = S->nba.emplace_back();\n"
        "  e.sig = sig;\n"
        "  e.has_ix = has_ix;\n"
        "  e.mask = m;\n"
        "  return e;\n"
        "}\n\n";

  os << "static u64* arrp(St* S, int sig) {\n  switch (sig) {\n";
  for (std::size_t i = 0; i < nsig; ++i)
    if (d.signals[i].array_len > 0)
      os << "    case " << i << ": return S->a" << i << ";\n";
  os << "    default: return nullptr;\n  }\n}\n\n";

  // Edge triggers: the running process's own writes never re-arm it (every
  // changed lane lies inside its context mask, as in the oracle).
  os << "static void trig(St* S, int sig, u64 ch, u64 pos, u64 neg) {\n"
        "  (void)ch; (void)pos; (void)neg;\n"
        "  switch (sig) {\n";
  for (std::size_t i = 0; i < nsig; ++i) {
    const auto b = cd.trig_index[i], e = cd.trig_index[i + 1];
    if (b == e) continue;
    os << "    case " << i << ":\n";
    for (auto k = b; k < e; ++k) {
      const auto& t = cd.trigs[static_cast<std::size_t>(k)];
      const char* edge = t.edge == Edge::kAny
                             ? "ch"
                             : (t.edge == Edge::kPos ? "pos" : "neg");
      os << "      if (S->running != " << t.proc << ") S->ready[" << t.proc
         << "] |= " << edge << ";\n";
    }
    os << "      break;\n";
  }
  os << "    default: break;\n  }\n}\n\n";

  // Dirty the changed signal's dependent eager nodes (the oracle's
  // mark_fanout): flush then re-evaluates only those.
  os << "static void mark_fan(St* S, int sig) {\n"
        "  for (std::int32_t i = kFanIdx[sig]; i < kFanIdx[sig + 1]; ++i)\n"
        "    S->nclean[kFanNodes[i]] = 0;\n"
        "}\n\n";

  // The one lane-masked write path — branchless full-context fast path,
  // guarded partial path, popcount event accounting, bit-0 edge masks. A
  // full-context write to a signal no process waits on only counts its
  // changed lanes (stplane, a loop the host compiler vectorizes).
  os << "static void set_masked(St* S, int sig, const u64* nv, u64 mask) {\n"
        "  if (mask == 0) return;\n"
        "  const u64 sm = kMask[sig];\n"
        "  u64* v = S->v[sig];\n"
        "  u64 ch = 0, pos = 0, neg = 0;\n"
        "  if (mask == kFull && !kHasTrig[sig] && nv != v) {\n"
        "    const u64 nch = stplane(v, nv, sm);\n"
        "    if (nch == 0) return;\n"
        "    S->events += (i64)nch;\n"
        "    if (kHasFan[sig]) { S->comb_dirty = true; mark_fan(S, sig); }\n"
        "    return;\n"
        "  }\n"
        "  if (mask == kFull) {\n"
        "    for (int l = 0; l < kL; ++l) {\n"
        "      const u64 n = nv[l] & sm;\n"
        "      const u64 o = v[l];\n"
        "      v[l] = n;\n"
        "      ch |= (u64)(o != n) << l;\n"
        "      pos |= ((~o & n) & 1) << l;\n"
        "      neg |= ((o & ~n) & 1) << l;\n"
        "    }\n"
        "  } else {\n"
        "    for (int l = 0; l < kL; ++l) {\n"
        "      if (!((mask >> l) & 1)) continue;\n"
        "      const u64 n = nv[l] & sm;\n"
        "      const u64 o = v[l];\n"
        "      if (o == n) continue;\n"
        "      v[l] = n;\n"
        "      const u64 bit = 1ull << l;\n"
        "      ch |= bit;\n"
        "      if (!(o & 1) && (n & 1)) pos |= bit;\n"
        "      if ((o & 1) && !(n & 1)) neg |= bit;\n"
        "    }\n"
        "  }\n"
        "  if (ch == 0) return;\n"
        "  S->events += popc(ch);\n"
        "  if (kHasFan[sig]) { S->comb_dirty = true; mark_fan(S, sig); }\n"
        "  if (kHasTrig[sig]) trig(S, sig, ch, pos, neg);\n"
        "}\n\n"
        "static void set_masked_c(St* S, int sig, u64 nv, u64 mask) {\n"
        "  u64 p[kL];\n"
        "  for (int l = 0; l < kL; ++l) p[l] = nv;\n"
        "  set_masked(S, sig, p, mask);\n"
        "}\n\n"
        "static void setel_lane(St* S, int sig, int l, i64 idx, u64 v) {\n"
        "  if (idx < 0 || idx >= kALen[sig]) return;  // silent drop\n"
        "  v &= kMask[sig];\n"
        "  u64* A = arrp(S, sig);\n"
        "  u64& slot = A[(std::size_t)idx * kL + l];\n"
        "  if (slot == v) return;\n"
        "  slot = v;\n"
        "  ++S->events;\n"
        "  // element writes never wake edge waits (kernel parity)\n"
        "  if (kHasFan[sig]) { S->comb_dirty = true; mark_fan(S, sig); }\n"
        "}\n\n";

  // Activity-gated comb flush in level order, the oracle's flush_comb with
  // the level queues compiled away: each eager node is emitted in level
  // order behind its own dirty bit, evaluates its FUSED exec_tape (lazy
  // single-reader cones inlined, exactly what the interpreter runs) as a
  // branchless full-mask lane loop, and on change marks its dependents —
  // which sit strictly later in the emitted order, so one pass reaches the
  // fixpoint. Lazy nodes are absent here entirely: like the oracle they
  // re-run on demand at the peek entry points (force_lazy below), which is
  // what lets a 64-lane flush skip the majority of the node list.
  {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < cd.nodes.size(); ++i)
      if (!cd.node_lazy[i]) order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cd.nodes[a].level < cd.nodes[b].level;
                     });
    os << "static void flush(St* S) {\n  ++S->flushes;\n";
    int tmp = 0;
    for (const std::size_t n : order) {
      const CompiledDesign::Node& nd = cd.nodes[n];
      const std::string SM =
          hx(cd.sig_mask[static_cast<std::size_t>(nd.target)]);
      const bool has_fan =
          cd.fan_index[static_cast<std::size_t>(nd.target)] <
          cd.fan_index[static_cast<std::size_t>(nd.target) + 1];
      const bool has_trig =
          cd.trig_index[static_cast<std::size_t>(nd.target)] <
          cd.trig_index[static_cast<std::size_t>(nd.target) + 1];
      const LaneTape t = lane_tape(cd, nd.exec_tape, tmp, "    ", split);
      os << "  if (!S->nclean[" << n << "]) { // node " << n << " level "
         << nd.level << " -> "
         << d.signals[static_cast<std::size_t>(nd.target)].name << "\n"
         << "    S->nclean[" << n << "] = 1;\n"
         << t.pre << "    u64* v = S->v[" << nd.target << "];\n";
      // Only a process trigger needs the changed lanes and edges as masks;
      // any other target counts its changed lanes.
      if (has_trig)
        os << "    u64 ch = 0, pos = 0, neg = 0;\n";
      else
        os << "    u64 nch = 0;\n";
      os << "    for (int l = 0; l < kL; ++l) {\n"
         << t.body << "      const u64 n = " << t.value << " & " << SM
         << ";\n"
            "      const u64 o = v[l];\n"
            "      v[l] = n;\n";
      if (has_trig)
        os << "      ch |= (u64)(o != n) << l;\n"
              "      pos |= ((~o & n) & 1) << l;\n"
              "      neg |= ((o & ~n) & 1) << l;\n"
              "    }\n"
              "    if (ch) {\n"
              "      S->events += popc(ch);\n";
      else
        os << "      nch += (u64)(o != n);\n"
              "    }\n"
              "    if (nch) {\n"
              "      S->events += (i64)nch;\n";
      if (has_fan)
        os << "      S->comb_dirty = true;\n"
              "      mark_fan(S, "
           << nd.target << ");\n";
      if (has_trig)
        os << "      trig(S, " << nd.target << ", ch, pos, neg);\n";
      os << "    }\n  }\n";
    }
    os << "}\n\n";
  }

  // On-demand lazy evaluation at the observation boundary, mirroring
  // CompiledSim::force_lazy: lazy scalar reads inside the tape force their
  // own lazy driver first (the dependency set is static, so the recursion
  // is unrolled per case), then the ORIGINAL tape runs as a plain masked
  // store — no events, no triggers, no fanout (logical const).
  {
    os << "static void force_lazy(St* S, int n) {\n  switch (n) {\n";
    int tmp = 0;
    for (std::size_t n = 0; n < cd.nodes.size(); ++n) {
      if (!cd.node_lazy[n]) continue;
      const CompiledDesign::Node& nd = cd.nodes[n];
      os << "    case " << n << ": { // -> "
         << d.signals[static_cast<std::size_t>(nd.target)].name << "\n";
      const TapeRef& t = cd.tapes[static_cast<std::size_t>(nd.tape)];
      std::vector<std::int32_t> deps;
      for (std::uint32_t i = t.begin; i < t.begin + t.len; ++i) {
        const TOp& o = cd.ops[i];
        if (!tape_reads_scalar(o)) continue;
        const std::int32_t m = cd.node_of[static_cast<std::size_t>(o.a)];
        if (m < 0 || !cd.node_lazy[static_cast<std::size_t>(m)]) continue;
        if (std::find(deps.begin(), deps.end(), m) == deps.end())
          deps.push_back(m);
      }
      for (const std::int32_t m : deps)
        os << "      force_lazy(S, " << m << ");\n";
      const LaneTape lt = lane_tape(cd, nd.tape, tmp, "      ", split);
      os << lt.pre << "      u64* v = S->v[" << nd.target
         << "];\n"
            "      for (int l = 0; l < kL; ++l) {\n"
         << lt.body << "        v[l] = " << lt.value << " & "
         << hx(cd.sig_mask[static_cast<std::size_t>(nd.target)])
         << ";\n      }\n      break;\n    }\n";
    }
    os << "    default: break;\n  }\n}\n\n";
  }

  for (std::size_t t = 0; t < cd.case_tables.size(); ++t) {
    const CompiledDesign::CaseTable& ct = cd.case_tables[t];
    os << "static int case_t" << t << "(u64 v) {\n  switch (v) {\n";
    for (const auto& [val, target] : ct.arms)
      os << "    case " << hx(val) << ": return " << target << ";\n";
    os << "    default: return " << ct.def_pc << ";\n  }\n}\n";
  }
  if (!cd.case_tables.empty()) os << "\n";

  for (std::size_t p = 0; p < nproc; ++p) emit_proc(os, cd, p, split);

  os << "static int run_proc(St* S, int p, u64 m, i64 budget) {\n"
        "  S->running = p;\n  int r = 0;\n"
        "  switch (p) {\n";
  for (std::size_t p = 0; p < nproc; ++p)
    os << "    case " << p << ": r = proc" << p << "(S, m, budget); break;\n";
  os << "    default: break;\n  }\n"
        "  S->running = -1;\n"
        "  return r ? p + 1 : 0;\n}\n\n";

  // Commits apply in enqueue order. Nothing in a commit enqueues another
  // NBA (set_masked only wakes processes), so the queue is walked in place
  // and cleared once drained.
  // A full-mask element write whose lanes agree on the index stores one
  // row and counts its changed lanes.
  os << "static void commit_nba(St* S) {\n"
        "  for (const Nba& e : S->nba) {\n"
        "    S->nba_commits += popc(e.mask);\n"
        "    const u64* v = e.v;\n"
        "    if (kALen[e.sig] > 0) {\n"
        "      const i64* ix = e.ix;\n"
        "      const u64 sm = kMask[e.sig];\n"
        "      const i64 n = kALen[e.sig];\n"
        "      u64* A = arrp(S, e.sig);\n"
        "      if (e.mask == kFull) {\n"
        "        u64 d = 0;\n"
        "        for (int l = 0; l < kL; ++l) d |= (u64)(ix[l] ^ ix[0]);\n"
        "        if (d == 0) {\n"
        "          if (ix[0] < 0 || ix[0] >= n) continue;  // silent drop\n"
        "          const u64 nch =\n"
        "              stplane(A + (std::size_t)ix[0] * kL, v, sm);\n"
        "          S->events += (i64)nch;\n"
        "          if (nch != 0 && kHasFan[e.sig]) {\n"
        "            S->comb_dirty = true;\n"
        "            mark_fan(S, e.sig);\n"
        "          }\n"
        "          continue;\n"
        "        }\n"
        "      }\n"
        "      bool changed = false;\n"
        "      for (int l = 0; l < kL; ++l) {\n"
        "        if (!((e.mask >> l) & 1)) continue;\n"
        "        const i64 idx = ix[l];\n"
        "        if (idx < 0 || idx >= n) continue;  // silent drop\n"
        "        const u64 nv = v[l] & sm;\n"
        "        u64& slot = A[(std::size_t)idx * kL + l];\n"
        "        if (slot == nv) continue;\n"
        "        slot = nv;\n"
        "        ++S->events;\n"
        "        changed = true;\n"
        "      }\n"
        "      if (changed && kHasFan[e.sig]) {\n"
        "        S->comb_dirty = true;\n"
        "        mark_fan(S, e.sig);\n"
        "      }\n"
        "    } else if (e.has_ix) {  // nonblocking bit write, RMW\n"
        "      const i64* ix = e.ix;\n"
        "      u64 nv[kL];\n"
        "      const u64* cur = S->v[e.sig];\n"
        "      u64 bit_mask = 0, neg_mask = 0;\n"
        "      for (int l = 0; l < kL; ++l) {\n"
        "        if (!((e.mask >> l) & 1)) continue;\n"
        "        if (ix[l] < 0) {\n"
        "          neg_mask |= 1ull << l;\n"
        "        } else if (ix[l] < kWidth[e.sig]) {\n"
        "          nv[l] = (cur[l] & ~(1ull << ix[l])) | ((v[l] & 1ull) << "
        "ix[l]);\n"
        "          bit_mask |= 1ull << l;\n"
        "        }\n"
        "      }\n"
        "      if (neg_mask) set_masked(S, e.sig, v, neg_mask);\n"
        "      if (bit_mask) set_masked(S, e.sig, nv, bit_mask);\n"
        "    } else {\n"
        "      set_masked(S, e.sig, v, e.mask);\n"
        "    }\n"
        "  }\n"
        "  S->nba.clear();\n"
        "}\n\n";

  os << "static int settle(St* S, i64 budget) {\n"
        "  S->slot_base = S->instrs;\n"
        "  for (;;) {\n"
        // Clear AFTER the flush: one level-ordered pass over a pure DAG is
        // a fixpoint, so the dirty bits the flush's own stores raise would
        // only buy a redundant re-evaluation.
        "    if (S->comb_dirty) { flush(S); S->comb_dirty = false; }\n"
        "    int p = -1;\n"
        "    for (int i = 0; i < "
     << nproc
     << "; ++i)\n"
        "      if (S->ready[i] != 0) { p = i; break; }\n"
        "    if (p >= 0) {\n"
        "      const u64 rm = S->ready[p];\n"
        "      S->ready[p] = 0;\n"
        "      const int r = run_proc(S, p, rm, budget);\n"
        "      if (r) return r;\n"
        "      continue;\n"
        "    }\n"
        "    if (S->nba.empty()) break;\n"
        "    commit_nba(S);\n"
        "    ++S->delta_cycles;\n"
        "  }\n"
        "  return 0;\n}\n"
        "}  // namespace\n\n";

  // ABI. Keep in sync with PackedCodegenModule (codegen.h); bump kCgAbi
  // when anything below changes shape. open_and_verify checks the
  // hlsw_cg_abi/hlsw_cg_fp pair before any entry point is resolved.
  os << "extern \"C\" {\n"
        "int hlsw_cg_abi() { return "
     << kCgAbi
     << "; }\n"
        "int hlsw_cg_pk_lanes() { return kL; }\n"
        "void* hlsw_cg_pk_create() {\n  St* s = new St();\n";
  for (std::size_t i = 0; i < nsig; ++i)
    if (d.signals[i].array_len == 0 && d.signals[i].has_init)
      os << "  for (int l = 0; l < kL; ++l) s->v[" << i << "][l] = "
         << hx(static_cast<std::uint64_t>(d.signals[i].init) & cd.sig_mask[i])
         << ";\n";
  for (std::size_t p = 0; p < nproc; ++p)
    if (cd.procs[p].initially_ready)
      os << "  s->ready[" << p << "] = kFull;\n";
  os << "  return s;\n}\n"
        "void hlsw_cg_pk_destroy(void* p) { delete (St*)p; }\n"
        "void hlsw_cg_pk_poke(void* p, int sig, u64 v, u64 mask) {\n"
        "  set_masked_c((St*)p, sig, v, mask & kFull);\n}\n"
        "void hlsw_cg_pk_poke_plane(void* p, int sig, const u64* plane, u64 "
        "mask) {\n"
        "  set_masked((St*)p, sig, plane, mask & kFull);\n}\n"
        "u64 hlsw_cg_pk_peek(void* p, int sig, int lane) {\n"
        "  St* S = (St*)p;\n"
        "  if (kLazyOf[sig] >= 0) force_lazy(S, kLazyOf[sig]);\n"
        "  return S->v[sig][lane];\n}\n"
        "u64 hlsw_cg_pk_peek_elem(void* p, int sig, int idx, int lane) {\n"
        "  const u64* A = arrp((St*)p, sig);\n"
        "  return A ? A[(std::size_t)idx * kL + lane] : 0;\n}\n"
        "u64 hlsw_cg_pk_nonzero(void* p, int sig) {\n"
        "  St* S = (St*)p;\n"
        "  if (kLazyOf[sig] >= 0) force_lazy(S, kLazyOf[sig]);\n"
        "  const u64* v = S->v[sig];\n";
  // The harness polls `done` with this every clock: several lanes count
  // their nonzero lanes first (a loop that vectorizes) and build the mask
  // bit by bit only when the lanes disagree.
  if (split)
    os << "  u64 nz = 0;\n"
          "  for (int l = 0; l < kL; ++l) nz += (u64)(v[l] != 0);\n"
          "  if (nz == 0) return 0;\n"
          "  if (nz == (u64)kL) return kFull;\n";
  os << "  u64 m = 0;\n"
        "  for (int l = 0; l < kL; ++l) m |= (u64)(v[l] != 0) << l;\n"
        "  return m;\n}\n"
        "int hlsw_cg_pk_settle(void* p, long long budget) { return "
        "settle((St*)p, budget); }\n"
        "void hlsw_cg_pk_stats(void* p, long long* out) {\n"
        "  const St* s = (const St*)p;\n"
        "  out[0] = s->events; out[1] = s->nba_commits;\n"
        "  out[2] = s->delta_cycles; out[3] = s->instrs;\n"
        "  out[4] = s->flushes; out[5] = s->div_splits;\n}\n"
        "}\n";
  return os.str();
}

// ---- Build + load -----------------------------------------------------------

namespace {

// Compile flags; part of the fingerprinted text (see build_shared_object).
// Each object is compiled once, and build_shared_object appends the
// toolchain's Probe::march, so the lane loops vectorize at the widest ISA
// level this process can run. A process that picks another level computes
// another fingerprint, so it never loads the object.
constexpr const char* kCxxFlags = "-std=c++17 -O2 -fPIC -shared";

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The shared-object cache directory, or an empty path with the reason in
// *why. An explicit $HLSW_VSIM_CODEGEN_CACHE is a deployment setting and is
// used as given. The default, <tmp>/hlsw-vsim-codegen-<euid>, is created
// with mode 0700, and this process dlopen()s what it finds there, so it is
// used only when lstat shows a real directory (not a symlink) owned by the
// effective uid with no group or other write bit: anything else could hold
// objects planted by another user.
std::filesystem::path cache_dir(std::string* why) {
  if (const char* e = std::getenv("HLSW_VSIM_CODEGEN_CACHE"))
    if (*e) return e;
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) {
    *why = "no temp directory for the codegen cache: " + ec.message();
    return {};
  }
  const uid_t euid = ::geteuid();
  const std::filesystem::path dir =
      tmp / ("hlsw-vsim-codegen-" + std::to_string(euid));
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) {
    *why = "cannot create codegen cache " + dir.string() + ": " +
           std::strerror(errno);
    return {};
  }
  struct stat st {};
  std::string bad;
  if (::lstat(dir.c_str(), &st) != 0)
    bad = std::strerror(errno);
  else if (S_ISLNK(st.st_mode))
    bad = "is a symlink";
  else if (!S_ISDIR(st.st_mode))
    bad = "is not a directory";
  else if (st.st_uid != euid)
    bad = "is owned by uid " + std::to_string(st.st_uid) + ", not " +
          std::to_string(euid);
  else if ((st.st_mode & (S_IWGRP | S_IWOTH)) != 0)
    bad = "is group- or world-writable";
  if (!bad.empty()) {
    *why = "untrusted codegen cache " + dir.string() + ": " + bad;
    return {};
  }
  return dir;
}

// The whole file, or "" when it cannot be read.
std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return f ? ss.str() : std::string();
}

struct LoadedModule {
  void* handle = nullptr;
  std::string error;
};

// Removes the least recently used <fp>.{so,cpp,log} triples from `dir`
// until at most kCodegenCacheObjects objects remain, ordered by .so mtime
// (a disk hit refreshes it). `keep` is never removed, and neither is
// anything not named like a fingerprint, such as a builder's .tmp<pid>
// files. A process that loses its object between exists() and dlopen()
// rebuilds it, and an object already mapped survives the unlink.
void evict_lru(const std::filesystem::path& dir,
               const std::filesystem::path& keep) {
  namespace fs = std::filesystem;
  std::vector<std::pair<fs::file_time_type, fs::path>> objs;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    const std::string stem = p.stem().string();
    if (p.extension() != ".so" || stem.size() != 16 ||
        !std::all_of(stem.begin(), stem.end(),
                     [](unsigned char c) { return std::isxdigit(c); }))
      continue;
    std::error_code tec;
    const fs::file_time_type t = fs::last_write_time(p, tec);
    if (!tec) objs.emplace_back(t, p);
  }
  if (objs.size() <= kCodegenCacheObjects) return;
  std::sort(objs.begin(), objs.end());  // oldest first
  std::size_t excess = objs.size() - kCodegenCacheObjects;
  for (const auto& obj : objs) {
    if (excess == 0) break;
    if (obj.second == keep) continue;
    fs::path p = obj.second;
    for (const char* ext : {".cpp", ".log", ".so"})
      fs::remove(p.replace_extension(ext), ec);
    --excess;
  }
}

// dlopen + fingerprint/ABI verification. The handle is never dlclose()d:
// generated code may be referenced by live engines for the process
// lifetime, and re-opening the same path returns the same handle anyway.
LoadedModule open_and_verify(const std::filesystem::path& so,
                             const std::string& fp) {
  LoadedModule m;
  m.handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (m.handle == nullptr) {
    const char* e = dlerror();
    m.error = e ? e : "dlopen failed";
    return m;
  }
  const auto fp_fn =
      reinterpret_cast<const char* (*)()>(dlsym(m.handle, "hlsw_cg_fp"));
  const auto abi_fn =
      reinterpret_cast<int (*)()>(dlsym(m.handle, "hlsw_cg_abi"));
  if (fp_fn == nullptr || abi_fn == nullptr || abi_fn() != kCgAbi ||
      fp != fp_fn()) {
    m.handle = nullptr;
    m.error = "cached shared object failed fingerprint/ABI verification";
  }
  return m;
}

// Builds (or reuses) the content-keyed shared object for `src` in `dir`.
// Returns false with a reason in *why.
bool build_shared_object(std::string src, const std::filesystem::path& dir,
                         std::string* fp_out, std::string* so_out,
                         void** handle_out, std::string* why) {
  const std::string cxx = codegen_toolchain();
  if (cxx.empty()) {
    *why = "no host toolchain (set CXX or HLSW_CODEGEN_CXX)";
    return false;
  }
  // The fingerprint covers everything that shapes the object: the
  // toolchain command and the first line of its --version, the flags, the
  // ABI revision and the generated text. The embedded fp symbol is
  // appended after hashing so the hash stays well-defined.
  const Probe tc = probe_cxx(cxx);
  const std::string flags = kCxxFlags + tc.march;
  src = "// toolchain: " + cxx + "\n// version: " + tc.version +
        "\n// flags: " + flags + "\n// abi: " + std::to_string(kCgAbi) +
        "\n" + src;
  const std::string fp = fnv1a(src);
  src += "\nextern \"C\" const char* hlsw_cg_fp() { return \"" + fp +
         "\"; }\n";

  obs::ScopedSpan span("vsim.codegen.compile", "vsim");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path so = dir / (fp + ".so");
  const std::filesystem::path cpp = dir / (fp + ".cpp");
  const std::filesystem::path log = dir / (fp + ".log");

  // One compilation at a time per process. Across processes nothing is
  // locked: every artifact (source, log, object) is written under a
  // per-pid name and installed with an atomic rename, so a concurrent
  // builder of the same fingerprint can neither truncate the source this
  // compiler reads nor expose a half-written object. Each rename installs
  // a complete file; the last writer wins and all writers produce the
  // same bytes.
  static std::mutex build_mu;
  std::lock_guard<std::mutex> lk(build_mu);

  const bool metrics = obs::enabled();
  LoadedModule lm;
  bool cache_hit = false;
  // An on-disk hit must have been built from exactly this text: the stored
  // source is compared in full before the object is loaded, so a 64-bit
  // fingerprint collision (or a tampered cache entry) rebuilds instead.
  if (std::filesystem::exists(so, ec) && read_file(cpp) == src) {
    lm = open_and_verify(so, fp);
    cache_hit = lm.handle != nullptr;
    if (cache_hit)  // eviction follows use, not build time
      std::filesystem::last_write_time(
          so, std::filesystem::file_time_type::clock::now(), ec);
  }
  if (!cache_hit) {
    // The source keeps its .cpp suffix: the compiler picks the language
    // from it.
    const std::string tag = ".tmp" + std::to_string(::getpid());
    const std::filesystem::path cpp_tmp = dir / (fp + tag + ".cpp");
    const std::filesystem::path log_tmp = dir / (fp + tag + ".log");
    const std::filesystem::path tmp = dir / (fp + tag + ".so");
    {
      std::ofstream f(cpp_tmp);
      f << src;
      if (!f) {
        *why = "cannot write " + cpp_tmp.string();
        return false;
      }
    }
    const std::string cmd = cxx + " " + flags + " -o '" + tmp.string() +
                            "' '" + cpp_tmp.string() + "' > '" +
                            log_tmp.string() + "' 2>&1";
    if (metrics)
      obs::MetricsRegistry::instance().add("vsim.codegen.compiles", 1.0);
    const int rc = std::system(cmd.c_str());
    // Source and log stay in the cache for inspection, complete either way.
    std::filesystem::rename(cpp_tmp, cpp, ec);
    std::filesystem::rename(log_tmp, log, ec);
    if (rc != 0) {
      std::string excerpt;
      std::ifstream lf(log);
      std::string line;
      for (int i = 0; i < 3 && std::getline(lf, line); ++i)
        excerpt += (excerpt.empty() ? "" : " | ") + line;
      std::filesystem::remove(tmp, ec);
      *why = "toolchain '" + cxx + "' failed (" +
             (excerpt.empty() ? "see " + log.string() : excerpt) + ")";
      return false;
    }
    std::filesystem::rename(tmp, so, ec);
    if (ec) {
      *why = "cannot install " + so.string() + ": " + ec.message();
      return false;
    }
    lm = open_and_verify(so, fp);
    if (lm.handle == nullptr) {
      *why = "freshly built shared object failed to load: " + lm.error;
      return false;
    }
    evict_lru(dir, so);
  }
  if (metrics)
    obs::MetricsRegistry::instance().add(
        cache_hit ? "vsim.codegen.so_cache.hits"
                  : "vsim.codegen.so_cache.misses",
        1.0);
  if (span.active()) {
    span.arg("fingerprint", fp);
    span.arg("cached", cache_hit ? 1LL : 0LL);
    span.arg("cxx", cxx);
    span.arg("bytes", static_cast<long long>(src.size()));
  }

  *fp_out = fp;
  *so_out = so.string();
  *handle_out = lm.handle;
  return true;
}

// Builds (or reuses) the shared object and resolves the hlsw_cg_pk_* entry
// points into *mod, verifying the baked lane count.
bool build_packed_module(std::string src, int lanes,
                         const std::filesystem::path& dir,
                         PackedCodegenModule* mod, std::string* why) {
  void* handle = nullptr;
  if (!build_shared_object(std::move(src), dir, &mod->fingerprint,
                           &mod->so_path, &handle, why))
    return false;
  const auto sym = [&](const char* name) { return dlsym(handle, name); };
  const auto lanes_fn = reinterpret_cast<int (*)()>(sym("hlsw_cg_pk_lanes"));
  if (lanes_fn == nullptr || lanes_fn() != lanes) {
    *why = "generated shared object has the wrong lane count";
    return false;
  }
  mod->create = reinterpret_cast<void* (*)()>(sym("hlsw_cg_pk_create"));
  mod->destroy =
      reinterpret_cast<void (*)(void*)>(sym("hlsw_cg_pk_destroy"));
  mod->poke = reinterpret_cast<void (*)(void*, int, std::uint64_t,
                                        std::uint64_t)>(sym("hlsw_cg_pk_poke"));
  mod->poke_plane =
      reinterpret_cast<void (*)(void*, int, const std::uint64_t*,
                                std::uint64_t)>(sym("hlsw_cg_pk_poke_plane"));
  mod->peek = reinterpret_cast<std::uint64_t (*)(void*, int, int)>(
      sym("hlsw_cg_pk_peek"));
  mod->peek_elem = reinterpret_cast<std::uint64_t (*)(void*, int, int, int)>(
      sym("hlsw_cg_pk_peek_elem"));
  mod->nonzero = reinterpret_cast<std::uint64_t (*)(void*, int)>(
      sym("hlsw_cg_pk_nonzero"));
  mod->settle =
      reinterpret_cast<int (*)(void*, long long)>(sym("hlsw_cg_pk_settle"));
  mod->stats =
      reinterpret_cast<void (*)(void*, long long*)>(sym("hlsw_cg_pk_stats"));
  if (!mod->create || !mod->destroy || !mod->poke || !mod->poke_plane ||
      !mod->peek || !mod->peek_elem || !mod->nonzero || !mod->settle ||
      !mod->stats) {
    *why = "generated shared object is missing entry points";
    return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<const PackedCodegenModule> packed_codegen_plan(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    std::string* why) {
  const bool metrics = obs::enabled();
  const auto fall = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    if (metrics)
      obs::MetricsRegistry::instance().add("vsim.codegen.fallbacks", 1.0);
    return nullptr;
  };

  // Toolchain availability and cache-directory trust are decided BEFORE the
  // plan's module slot, so disabling codegen (HLSW_CODEGEN_CXX=none) or an
  // untrusted default cache never poisons the slot, and never hands out an
  // engine loaded from a directory that is no longer trusted.
  if (!codegen_available())
    return fall("no host toolchain (set CXX or HLSW_CODEGEN_CXX)");
  std::string dir_why;
  const std::filesystem::path dir = cache_dir(&dir_why);
  if (dir.empty()) return fall(dir_why);
  if (plan == nullptr) return fall("no compiled plan");
  if (lanes < 1 || lanes > kMaxLanes)
    return fall("lane count " + std::to_string(lanes) + " out of range");

  std::lock_guard<std::mutex> lk(plan->modules_mu);
  auto it = plan->modules.find(lanes);
  if (it == plan->modules.end()) {
    CompiledDesign::Module m;
    auto mod = std::make_shared<PackedCodegenModule>();
    mod->lanes = lanes;
    if (build_packed_module(packed_codegen_source(*plan, lanes), lanes, dir,
                            mod.get(), &m.why))
      m.mod = std::move(mod);
    it = plan->modules.emplace(lanes, std::move(m)).first;
  }
  if (it->second.mod == nullptr) return fall(it->second.why);
  return {plan, it->second.mod.get()};
}

// ---- PackedCodegenSim -------------------------------------------------------

PackedCodegenSim::PackedCodegenSim(
    std::shared_ptr<const CompiledDesign> plan,
    std::shared_ptr<const PackedCodegenModule> mod, const SimConfig& cfg)
    : plan_(std::move(plan)), mod_(std::move(mod)), cfg_(cfg) {
  full_mask_ = mod_->lanes == 64 ? ~0ULL : (1ULL << mod_->lanes) - 1ULL;
  st_ = mod_->create();
  settle();  // time 0: all comb evaluates once, initial bodies run
}

PackedCodegenSim::~PackedCodegenSim() {
  if (st_ != nullptr) {
    if (obs::enabled()) {
      refresh_stats();
      auto& m = obs::MetricsRegistry::instance();
      m.add("vsim.events", static_cast<double>(stats_.events));
      m.add("vsim.nba_commits", static_cast<double>(stats_.nba_commits));
      if (divergence_splits_ > 0)
        m.add("vsim.packed.divergence_splits",
              static_cast<double>(divergence_splits_));
      long long o[6] = {};
      mod_->stats(st_, o);
      m.add("vsim.codegen.flushes", static_cast<double>(o[4]));
    }
    mod_->destroy(st_);
  }
}

void PackedCodegenSim::poke(int sig, std::uint64_t value,
                            std::uint64_t mask) {
  mod_->poke(st_, sig, value, mask & full_mask_);
}

void PackedCodegenSim::poke_plane(int sig, const std::uint64_t* plane,
                                  std::uint64_t mask) {
  mod_->poke_plane(st_, sig, plane, mask & full_mask_);
}

std::uint64_t PackedCodegenSim::peek(int sig, int lane) const {
  return mod_->peek(st_, sig, lane);
}

long long PackedCodegenSim::peek_signed(int sig, int lane) const {
  const int w =
      plan_->design->signals[static_cast<std::size_t>(sig)].width;
  std::uint64_t v = peek(sig, lane);
  if (w < 64 && ((v >> (w - 1)) & 1))
    v |= ~((w >= 64 ? ~0ULL : (1ULL << w) - 1ULL));
  return static_cast<long long>(v);
}

std::uint64_t PackedCodegenSim::peek_elem(int sig, int index,
                                          int lane) const {
  const Signal& s =
      plan_->design->signals[static_cast<std::size_t>(sig)];
  if (index < 0 || index >= s.array_len)
    fail("element " + std::to_string(index) + " out of range for '" +
         s.name + "'");
  return mod_->peek_elem(st_, sig, index, lane);
}

std::uint64_t PackedCodegenSim::peek_nonzero_mask(int sig) const {
  return mod_->nonzero(st_, sig);
}

void PackedCodegenSim::settle() {
  // Packed instruction counts are lane sums, so the per-slot budget scales
  // with the lane count (the interpreted engine applies the same factor).
  const int r = mod_->settle(
      st_, cfg_.max_instrs_per_slot * static_cast<long long>(mod_->lanes));
  if (r != 0)
    fail("instruction budget exceeded without time advancing "
         "(zero-delay loop in " +
         plan_->procs[static_cast<std::size_t>(r - 1)].origin + "?)");
}

void PackedCodegenSim::refresh_stats() const {
  long long o[6] = {};
  mod_->stats(st_, o);
  stats_.events = o[0];
  stats_.nba_commits = o[1];
  stats_.delta_cycles = o[2];
  stats_.instrs = o[3];
  divergence_splits_ = o[5];
}

const SimStats& PackedCodegenSim::stats() const {
  refresh_stats();
  return stats_;
}

long long PackedCodegenSim::divergence_splits() const {
  refresh_stats();
  return divergence_splits_;
}

}  // namespace hlsw::vsim
