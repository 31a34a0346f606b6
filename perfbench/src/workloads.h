// The three workloads. Each sets itself up, measures for args.seconds and
// checks every operation's output; see ../README.md for what each one
// exercises and why it exists.
#pragma once

#include "common.h"

namespace pb {

Report run_dse_explore(const Args& args);
Report run_sweep_packed(const Args& args);
Report run_serve_mixed(const Args& args);

}  // namespace pb
