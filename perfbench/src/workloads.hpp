#pragma once

#include "common.hpp"

namespace perfbench {

// fleet-tiny: four closed-loop callers into one FleetServer over the tiny
// siamese, mtdnn and dlrm.
Result run_fleet_tiny(const Args& args);

// compile-zoo: cold, then warm, registration of six paper-size models.
Result run_compile_zoo(const Args& args);

}  // namespace perfbench
