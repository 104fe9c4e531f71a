// The round benchmark's named workloads. Each is a pure function of
// (name, seed, scale): render() writes the inputs a deployment operator
// would hand to the nodes — per-DC trace files and the plan — and returns
// the plan with every listen port left 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/cli/deployment_plan.h"

namespace roundbench {

/// full: the measured sizes. tiny: the smoke-test sizes (same plan shape,
/// a fraction of a second per round).
enum class scale { full, tiny };

[[nodiscard]] bool is_workload(std::string_view name);

/// Renders workload `name` for `seed` into `dir` (created if absent):
/// `dir/dc-<k>.trace` for every DC and `dir/plan.cfg`. The returned plan
/// equals the saved one; its tally path points into `dir`.
[[nodiscard]] tormet::cli::deployment_plan render(std::string_view name,
                                                  std::uint64_t seed,
                                                  scale size,
                                                  const std::string& dir);

}  // namespace roundbench
