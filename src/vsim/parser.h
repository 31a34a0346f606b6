// Recursive-descent parser for the vsim Verilog subset: module headers with
// ANSI port lists, net/reg/integer declarations, register files of up to
// 2^20 elements, localparams, continuous assigns, always/initial
// processes, ANSI tasks, module instantiation by named port connection, and
// the full expression grammar the rtl emitter and testbench generator
// produce (signed arithmetic, shifts including <<</>>>, part/bit selects,
// concatenation, replication, ternaries, $signed/$unsigned). Expressions
// parse by precedence climbing, and each operator spelling resolves to its
// Op here, once (ast.h).
//
// Malformed input throws std::runtime_error with a line number — the parser
// negative tests and the front-end fuzz test pin this contract.
#pragma once

#include <string>

#include "vsim/ast.h"

namespace hlsw::vsim {

// Parses one or more modules from `src`.
SourceUnit parse(const std::string& src);

}  // namespace hlsw::vsim
