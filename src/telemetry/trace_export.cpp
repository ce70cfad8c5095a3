#include "telemetry/trace_export.hpp"

#include "telemetry/chrome_trace.hpp"

namespace duet::telemetry {

std::string export_chrome_trace(const std::vector<FlightEvent>& events,
                                const Timeline* modeled) {
  ChromeTraceWriter writer;
  append_wall_events(writer, events);
  if (modeled != nullptr) {
    // pids: 0 = CPU, 1 = GPU, 2 = PCIe link (the historical layout).
    writer.set_process_name(0, "CPU (modeled)");
    writer.set_process_name(1, "GPU (modeled)");
    writer.set_process_name(2, "PCIe link (modeled)");
    for (const TimelineEvent& e : modeled->events()) {
      const bool exec = e.kind == TimelineEvent::Kind::kExec;
      const int pid = exec ? static_cast<int>(e.device) : 2;
      writer.add_complete(e.label, exec ? "exec" : "transfer", pid, 0,
                          e.start * 1e6, e.duration() * 1e6,
                          {ChromeTraceWriter::Arg::integer("subgraph", e.subgraph)});
    }
  }
  return writer.to_json();
}

}  // namespace duet::telemetry
