#pragma once

// Shared pieces of the benchmark: arguments, the metric sink, percentile
// reporting with sample counts, independent reference outputs, the traced
// graph factory, and compile/profile cache bookkeeping.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/plan.hpp"
#include "serve/model_registry.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// What a run attempted, how much of it failed (rejected, shed, thrown or
// wrong), and any violated cross-check. Any of these makes the run fail.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void problem(const std::string& what);
  bool correct() const { return failed == 0 && problems.empty(); }
};

struct Result {
  Outcome outcome;
  Metrics e2e;     // measured in every run
  Metrics layers;  // traced runs only
};

double median(std::vector<double> samples);
// Nearest-rank percentile `q` (0..100). Prints the sample count and how many
// samples lie above the value, flagging a tail with fewer than ten.
double percentile(const std::string& label, std::vector<double> samples,
                  double q);

double peak_rss_mb();

// One request: inputs drawn from the seed and the reference interpreter's
// outputs on the unpartitioned graph (independent of partitioning,
// scheduling, compilation and execution).
struct Request {
  std::map<duet::NodeId, duet::Tensor> feeds;
  std::vector<duet::Tensor> expected;
};
std::vector<Request> make_requests(const duet::Graph& graph, uint64_t seed,
                                   size_t count);
// Within the tolerance tests/test_engine.cpp uses.
bool outputs_match(const std::vector<duet::Tensor>& got,
                   const std::vector<duet::Tensor>& expected);

// Zoo factory whose every graph construction is a `models.build` span.
duet::serve::BatchedGraphFactory traced_factory(const std::string& name,
                                                bool tiny,
                                                uint64_t weight_seed);

// Process-wide compile and profile cache counters.
struct CacheCounts {
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;

  static CacheCounts now();
  CacheCounts since(const CacheCounts& before) const;
  double compile_hit_ratio() const;
  double profile_hit_ratio() const;
};
void clear_caches();

// Noise-free modeled makespan of a plan.
double modeled_s(const duet::ExecutionPlan& plan);

// The fleet-tiny model set (tiny configs of siamese, mtdnn, dlrm).
const std::vector<std::string>& tiny_models();
constexpr int64_t kFleetMaxBatch = 8;
// Registry over the tiny models with every plan for batch 1..8 built.
std::unique_ptr<duet::serve::ModelRegistry> make_tiny_registry(
    uint64_t weight_seed);

}  // namespace perfbench
