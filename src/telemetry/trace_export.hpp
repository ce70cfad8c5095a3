#pragma once

// Merged Chrome-trace export: the wall-clock events collected from the
// flight-recorder rings (spans of compiler passes, profiling, scheduling,
// plan build and execution, plus serving point events) and the modeled
// virtual-time timeline of a SimExecutor run, side by side in one document.
// Virtual devices keep the pids Timeline::to_chrome_trace has always used
// (0 = CPU, 1 = GPU, 2 = PCIe link); wall-clock events live under
// kWallClockPid, rendered by `append_wall_events` (flight_recorder.hpp).

#include <string>
#include <vector>

#include "runtime/timeline.hpp"
#include "telemetry/flight_recorder.hpp"

namespace duet::telemetry {

// `events` as FlightRecorder::collect() returns them; `modeled` may be null
// (wall-clock events only). With no events it is the modeled timeline
// alone: Timeline::to_chrome_trace is export_chrome_trace({}, this), so
// timeline events have exactly one encoding, merged or standalone.
std::string export_chrome_trace(const std::vector<FlightEvent>& events,
                                const Timeline* modeled);

}  // namespace duet::telemetry
