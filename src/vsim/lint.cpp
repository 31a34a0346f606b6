#include "vsim/lint.h"

#include <map>
#include <set>
#include <sstream>

namespace hlsw::vsim {

namespace {

inline unsigned long long umask(int w) {
  return w >= 64 ? ~0ULL : (1ULL << w) - 1ULL;
}

// Signed value of a literal (optionally under one unary +/-); false if the
// expression is not a plain constant.
bool const_value(const Expr& e, long long* out) {
  if (e.kind == ExprKind::kNumber) {
    *out = literal_value(e);
    return true;
  }
  return e.kind == ExprKind::kUnary &&
         e.kids[0]->kind == ExprKind::kNumber &&
         fold_int(e.op, literal_value(*e.kids[0]), 0, out);
}

// Instrumentation counters (rtl::VerilogOptions::instrument) live in the
// reserved perf_ namespace and are write-only from inside the module by
// design: they are read back out-of-band (harness peek or the optional
// perf_rdata mux). Elaboration flattens instance paths, so match the last
// path component.
bool is_perf_counter(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  const std::size_t base = dot == std::string::npos ? 0 : dot + 1;
  return name.compare(base, 5, "perf_") == 0;
}

class Linter {
 public:
  explicit Linter(const Design& d) : d_(d), read_(d.signals.size(), 0) {}

  std::vector<LintIssue> run() {
    for (const ElabAssign& a : d_.assigns) {
      ++cont_count_[a.target];
      mark_reads(*a.rhs);
      const Signal& t = d_.signals[static_cast<size_t>(a.target)];
      check_trunc(t.width, t.name, *a.rhs, "continuous assign");
    }
    for (std::size_t p = 0; p < d_.processes.size(); ++p)
      walk(*d_.processes[p].body, static_cast<int>(p));
    // A bound instance reads the nets on its inputs.
    for (const BoundInstance& bi : d_.instances)
      for (const BoundInstance::Port& port : bi.ports)
        if (port.is_input) read_[static_cast<size_t>(port.sig)] = 1;

    std::vector<LintIssue> out;
    // never-read — dead procedural state.
    for (std::size_t i = 0; i < d_.signals.size(); ++i) {
      const Signal& s = d_.signals[i];
      const bool written =
          proc_writers_.count(static_cast<int>(i)) ||
          cont_count_.count(static_cast<int>(i));
      if (s.is_reg && written && !read_[i] && !s.is_top_output &&
          !s.is_task_arg && !is_perf_counter(s.name))
        out.push_back({"never-read", s.name,
                       "assigned but its value is never read"});
    }
    // width-truncation — collected during the walk, in discovery order.
    for (auto& i : trunc_) out.push_back(std::move(i));
    // multi-driven — conflicting drivers.
    for (std::size_t i = 0; i < d_.signals.size(); ++i) {
      const Signal& s = d_.signals[i];
      const int sig = static_cast<int>(i);
      const int conts =
          cont_count_.count(sig) ? cont_count_.at(sig) : 0;
      const std::size_t procs =
          proc_writers_.count(sig) ? proc_writers_.at(sig).size() : 0;
      if (conts > 1) {
        out.push_back({"multi-driven", s.name,
                       "driven by " + std::to_string(conts) +
                           " continuous assigns"});
      } else if (conts >= 1 && procs > 0) {
        out.push_back({"multi-driven", s.name,
                       "driven by both a continuous assign and a process"});
      } else if (procs > 1 && !s.is_task_arg) {
        out.push_back({"multi-driven", s.name,
                       "driven from " + std::to_string(procs) +
                           " always/initial blocks"});
      }
    }
    return out;
  }

 private:
  void mark_reads(const Expr& e) {
    std::vector<int> r;
    collect_reads(e, &r);
    for (const int sig : r) read_[static_cast<size_t>(sig)] = 1;
  }

  void check_trunc(int lhs_w, const std::string& name, const Expr& rhs,
                   const std::string& where) {
    if (rhs.self_w <= lhs_w) return;
    long long v;
    if (const_value(rhs, &v)) {
      const long long lo =
          lhs_w >= 64 ? 0 : -(1LL << (lhs_w - 1));
      const long long hi = static_cast<long long>(umask(lhs_w));
      if (lhs_w >= 64 || (v >= lo && v <= hi)) return;
    }
    trunc_.push_back(
        {"width-truncation", name,
         where + " drops " + std::to_string(rhs.self_w - lhs_w) +
             " high bits (rhs is " + std::to_string(rhs.self_w) +
             " bits wide, target is " + std::to_string(lhs_w) + ")"});
  }

  void write_lhs(const Expr& lhs, int pid) {
    if (lhs.kind == ExprKind::kIdent) {
      proc_writers_[lhs.sig].insert(pid);
      return;
    }
    // element / bit select: the base is written, the index is read.
    proc_writers_[lhs.kids[0]->sig].insert(pid);
    mark_reads(*lhs.kids[1]);
  }

  void check_assign(const Stmt& st, const char* where) {
    const Expr& lhs = *st.lhs;
    const int lw = lhs.self_w;
    const std::string name = lhs.kind == ExprKind::kIdent
                                 ? lhs.name
                                 : lhs.kids[0]->name;
    check_trunc(lw, name, *st.rhs, where);
  }

  void walk(const Stmt& st, int pid) {
    switch (st.kind) {
      case StmtKind::kBlock:
      case StmtKind::kForever:
        for (const auto& s : st.sub) walk(*s, pid);
        break;
      case StmtKind::kBlockingAssign:
      case StmtKind::kNbAssign:
        write_lhs(*st.lhs, pid);
        mark_reads(*st.rhs);
        check_assign(st, st.kind == StmtKind::kNbAssign
                             ? "nonblocking assignment"
                             : "blocking assignment");
        break;
      case StmtKind::kIf:
        mark_reads(*st.cond);
        for (const auto& s : st.sub) walk(*s, pid);
        break;
      case StmtKind::kCase:
        mark_reads(*st.cond);
        for (const auto& item : st.items) {
          for (const auto& l : item.labels) mark_reads(*l);
          walk(*item.body, pid);
        }
        break;
      case StmtKind::kRepeat:
        mark_reads(*st.cond);
        walk(*st.sub[0], pid);
        break;
      case StmtKind::kEventCtrl:
        for (const auto& [edge, e] : st.events) mark_reads(*e);
        walk(*st.sub[0], pid);
        break;
      case StmtKind::kDelay:
        walk(*st.sub[0], pid);
        break;
      case StmtKind::kSysTask:
        for (const auto& a : st.args) mark_reads(*a);
        break;
      case StmtKind::kTaskCall:  // inlined away during elaboration
      case StmtKind::kNull:
        break;
    }
  }

  const Design& d_;
  std::vector<char> read_;
  std::map<int, int> cont_count_;
  std::map<int, std::set<int>> proc_writers_;
  std::vector<LintIssue> trunc_;
};

}  // namespace

std::vector<LintIssue> lint(const Design& d) { return Linter(d).run(); }

std::string lint_report(const std::vector<LintIssue>& issues) {
  if (issues.empty()) return "clean";
  std::ostringstream os;
  for (const auto& i : issues)
    os << i.rule << ": " << i.signal << " — " << i.detail << "\n";
  return os.str();
}

}  // namespace hlsw::vsim
