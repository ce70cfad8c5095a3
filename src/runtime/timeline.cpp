#include "runtime/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.hpp"
#include "telemetry/trace_export.hpp"

namespace duet {

void Timeline::add(TimelineEvent event) { events_.push_back(std::move(event)); }

double Timeline::makespan() const {
  double end = 0.0;
  for (const TimelineEvent& e : events_) end = std::max(end, e.end);
  return end;
}

double Timeline::busy_time(DeviceKind kind) const {
  double total = 0.0;
  for (const TimelineEvent& e : events_) {
    if (e.kind == TimelineEvent::Kind::kExec && e.device == kind) {
      total += e.duration();
    }
  }
  return total;
}

std::string Timeline::render_ascii(int width) const {
  const double span = makespan();
  std::ostringstream os;
  if (span <= 0.0 || events_.empty()) return "(empty timeline)\n";

  const auto lane = [&](DeviceKind kind, const char* name) {
    std::string row(static_cast<size_t>(width), '.');
    for (const TimelineEvent& e : events_) {
      if (e.kind != TimelineEvent::Kind::kExec || e.device != kind) continue;
      int b = static_cast<int>(std::floor(e.start / span * width));
      int en = static_cast<int>(std::ceil(e.end / span * width));
      b = std::clamp(b, 0, width - 1);
      en = std::clamp(en, b + 1, width);
      const char mark =
          e.subgraph >= 0 ? static_cast<char>('0' + e.subgraph % 10) : '#';
      for (int i = b; i < en; ++i) row[static_cast<size_t>(i)] = mark;
    }
    os << strprintf("%-4s |", name) << row << "|\n";
  };

  os << "time axis: 0 .. " << human_time(span) << " (digits = subgraph id mod 10)\n";
  lane(DeviceKind::kGpu, "GPU");
  lane(DeviceKind::kCpu, "CPU");

  // Transfers as a third lane.
  std::string row(static_cast<size_t>(width), '.');
  for (const TimelineEvent& e : events_) {
    if (e.kind != TimelineEvent::Kind::kTransfer) continue;
    int b = static_cast<int>(std::floor(e.start / span * width));
    int en = static_cast<int>(std::ceil(e.end / span * width));
    b = std::clamp(b, 0, width - 1);
    en = std::clamp(en, b + 1, width);
    for (int i = b; i < en; ++i) row[static_cast<size_t>(i)] = '~';
  }
  os << "PCIe |" << row << "|\n";
  return os.str();
}

std::string Timeline::to_chrome_trace() const {
  // One shared emission path for all trace-event JSON (telemetry's writer
  // escapes labels; the historical pid layout is preserved).
  return telemetry::export_chrome_trace({}, this);
}

std::string Timeline::to_csv() const {
  std::ostringstream os;
  os << "kind,device,subgraph,label,start,end\n";
  for (const TimelineEvent& e : events_) {
    os << (e.kind == TimelineEvent::Kind::kExec ? "exec" : "transfer") << ","
       << device_kind_name(e.device) << "," << e.subgraph << "," << e.label << ","
       << e.start << "," << e.end << "\n";
  }
  return os.str();
}

}  // namespace duet
