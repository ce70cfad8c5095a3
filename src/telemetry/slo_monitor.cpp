#include "telemetry/slo_monitor.hpp"

#include <algorithm>
#include <cmath>

namespace duet::telemetry {

// --- SloMonitor --------------------------------------------------------------

SloMonitor::SloMonitor(double window_s, int buckets)
    : window_s_(window_s > 0.0 ? window_s : 10.0),
      bucket_s_(window_s_ / std::max(1, buckets)),
      ring_(static_cast<size_t>(std::max(1, buckets))) {}

SloMonitor::Bucket& SloMonitor::advance(double now_us) {
  const int64_t epoch =
      static_cast<int64_t>(std::floor(now_us / (bucket_s_ * 1e6)));
  Bucket& bucket =
      ring_[static_cast<size_t>(epoch % static_cast<int64_t>(ring_.size()))];
  if (bucket.epoch != epoch) {
    bucket = Bucket{};  // this slot's previous window rotated out
    bucket.epoch = epoch;
  }
  return bucket;
}

void SloMonitor::record_offered(double now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  advance(now_us).offered++;
}

void SloMonitor::record_completed(double now_us, double latency_us,
                                  bool breach) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = advance(now_us);
  bucket.completed++;
  bucket.latency_us.observe(latency_us);
  if (breach) bucket.breaches++;
}

void SloMonitor::record_shed(double now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = advance(now_us);
  bucket.shed++;
  bucket.breaches++;  // a shed request definitionally missed its deadline
}

void SloMonitor::record_rejected(double now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  advance(now_us).rejected++;
}

void SloMonitor::record_queue_wait(double now_us, double wait_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  advance(now_us).queue_wait_us.observe(wait_us);
}

void SloMonitor::record_queue_depth(double now_us, double depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = advance(now_us);
  bucket.depth_sum += depth;
  bucket.depth_samples++;
}

void SloMonitor::record_plan_version(double now_us, uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = advance(now_us);
  bucket.plan_version = std::max(bucket.plan_version, version);
}

SloSnapshot SloMonitor::snapshot(double now_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t current =
      static_cast<int64_t>(std::floor(now_us / (bucket_s_ * 1e6)));
  const int64_t oldest = current - static_cast<int64_t>(ring_.size()) + 1;

  SloSnapshot snap;
  LogHistogram latency;
  LogHistogram queue_wait;
  double depth_sum = 0.0;
  uint64_t depth_samples = 0;
  size_t live = 0;
  for (const Bucket& bucket : ring_) {
    if (bucket.epoch < oldest || bucket.epoch > current) continue;
    ++live;
    snap.offered += bucket.offered;
    snap.completed += bucket.completed;
    snap.shed += bucket.shed;
    snap.rejected += bucket.rejected;
    snap.breaches += bucket.breaches;
    snap.plan_version = std::max(snap.plan_version, bucket.plan_version);
    latency.merge(bucket.latency_us);
    queue_wait.merge(bucket.queue_wait_us);
    depth_sum += bucket.depth_sum;
    depth_samples += bucket.depth_samples;
  }
  snap.window_s = static_cast<double>(live) * bucket_s_;
  if (snap.offered > 0) {
    snap.shed_rate =
        static_cast<double>(snap.shed) / static_cast<double>(snap.offered);
    snap.reject_rate =
        static_cast<double>(snap.rejected) / static_cast<double>(snap.offered);
  }
  snap.latency_p50_us = latency.percentile(0.50);
  snap.latency_p95_us = latency.percentile(0.95);
  snap.latency_p99_us = latency.percentile(0.99);
  snap.queue_wait_p95_us = queue_wait.percentile(0.95);
  if (depth_samples > 0) {
    snap.mean_queue_depth = depth_sum / static_cast<double>(depth_samples);
  }
  return snap;
}

void SloMonitor::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Bucket& bucket : ring_) bucket = Bucket{};
}

}  // namespace duet::telemetry
