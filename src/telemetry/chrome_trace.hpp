#pragma once

// Shared Chrome trace-event JSON writer (the single escaping/format path for
// every trace the repo emits — Timeline::to_chrome_trace and the telemetry
// exporters both build on it), plus the small JSON helpers the observability
// layer uses and a minimal well-formedness validator so exported documents
// can be checked without an external parser.
//
// Output follows the Trace Event Format ("X" complete events plus "M"
// process/thread-name metadata), loadable in chrome://tracing and Perfetto.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace duet::telemetry {

// Backslash-escapes quotes, backslashes, and control characters.
std::string json_escape(const std::string& s);

// Shortest-ish decimal form of a finite double ("%.6g"; never NaN/Inf —
// those serialize as 0 to keep the document valid JSON).
std::string json_number(double v);

class ChromeTraceWriter {
 public:
  // One pre-encoded argument: `json_value` must already be valid JSON.
  struct Arg {
    std::string key;
    std::string json_value;

    static Arg str(std::string key, const std::string& value);
    static Arg integer(std::string key, int64_t value);
  };

  // Metadata naming a pid / (pid, tid) row in the viewer.
  void set_process_name(int pid, const std::string& name);
  void set_thread_name(int pid, int tid, const std::string& name);

  // One complete ("X") event. Timestamps and durations in microseconds.
  void add_complete(const std::string& name, const std::string& cat, int pid,
                    int tid, double ts_us, double dur_us,
                    const std::vector<Arg>& args = {});

  // One flow event: phase must be 's' (start), 't' (step) or 'f' (finish);
  // events sharing `id` (and name/cat) render as one connected arrow chain
  // across threads. Each flow event binds to the slice enclosing its
  // timestamp on (pid, tid); 't'/'f' carry bp:"e" so they attach to the
  // enclosing slice rather than requiring an exact start match.
  void add_flow(const std::string& name, const std::string& cat, int pid,
                int tid, double ts_us, uint64_t id, char phase);

  // {"traceEvents":[...],"displayTimeUnit":"ms"}
  std::string to_json() const;

 private:
  std::vector<std::string> metadata_;  // pre-encoded "M" events
  std::vector<std::string> events_;    // pre-encoded "X" events
};

// Minimal recursive-descent JSON well-formedness check (objects, arrays,
// strings with escapes, numbers, true/false/null). Returns true when `text`
// is a single valid JSON value; otherwise false with a position-carrying
// message in *error (when non-null).
bool validate_json(const std::string& text, std::string* error = nullptr);

}  // namespace duet::telemetry
