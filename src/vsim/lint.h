// Structural lint over elaborated Designs — the checks a synthesis frontend
// would warn about and that the hlsw emitter promises to never trigger:
//
//  - never-read:       a reg that is procedurally assigned but whose value no
//                      expression and no bound instance input ever reads
//                      (dead state),
//  - width-truncation: an assignment whose right-hand side is self-determined
//                      wider than the target, silently dropping bits (constant
//                      right-hand sides that fit the target are exempt —
//                      `state <= 35` is idiomatic, not a bug),
//  - multi-driven:     a net driven by more than one continuous assign, by an
//                      assign and a process, or from several processes
//                      (signals synthesized by task inlining are exempt: every
//                      call site legitimately writes the argument signals).
//
// tests/vsim/lint_test.cpp pins that rtl::emit_verilog output lints clean for
// every Table 1 architecture.
#pragma once

#include <string>
#include <vector>

#include "vsim/elab.h"

namespace hlsw::vsim {

struct LintIssue {
  std::string rule;    // "never-read" | "width-truncation" | "multi-driven"
  std::string signal;  // elaborated signal name
  std::string detail;  // human-readable explanation
};

// Deterministic: issues are ordered by rule, then by signal index /
// discovery order within the rule.
std::vector<LintIssue> lint(const Design& d);

// One "rule: signal — detail" line per issue ("clean" for none).
std::string lint_report(const std::vector<LintIssue>& issues);

}  // namespace hlsw::vsim
