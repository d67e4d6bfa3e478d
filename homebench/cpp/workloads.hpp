// The four workloads. Each builds its world from the seed, measures for
// args.seconds, checks its own outcome and fills in an Outcome; see
// homebench/README.md for why each exists and which layers it stresses.
#pragma once

#include "common.hpp"

namespace hb {

Outcome run_evening_fleet(const Args& args);
Outcome run_fastpath_stream(const Args& args);
Outcome run_flow_churn(const Args& args);
Outcome run_operator_live(const Args& args);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetups = 9;

}  // namespace hb
