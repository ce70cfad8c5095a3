#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

// Open spans of this thread, innermost last.
thread_local std::vector<uint64_t> t_open;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

Tracer::Layer Tracer::layer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, double> child_s;
  for (const Record& r : records_) {
    if (r.parent != 0) child_s[r.parent] += r.end_s - r.start_s;
  }
  Layer layer;
  for (const Record& r : records_) {
    if (r.name != name) continue;
    const auto it = child_s.find(r.id);
    layer.self_s +=
        r.end_s - r.start_s - (it == child_s.end() ? 0.0 : it->second);
    ++layer.count;
  }
  return layer;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", r.name.c_str(),
                 static_cast<unsigned long long>(r.thread), r.start_s * 1e6,
                 (r.end_s - r.start_s) * 1e6,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(std::string name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = std::move(name);
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_open.empty() ? 0 : t_open.back();
  record_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                   1000003;
  t_open.push_back(record_.id);
  record_.start_s = now_s();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = now_s();
  t_open.pop_back();
  Tracer::instance().add(std::move(record_));
}

}  // namespace perfbench
