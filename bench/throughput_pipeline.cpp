// Extension benchmark (beyond the paper, which is latency-only): pipelined
// throughput. Streams windows of queries through the DUET placement and the
// gpu-only placement; sustained throughput is bounded by the busiest
// device, so DUET's CPU/GPU split raises throughput as well as cutting
// latency.

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "runtime/pipeline.hpp"

int main() {
  using namespace duet;
  using namespace duet::bench;

  Graph model = models::build_wide_deep();
  DuetOptions opts;  // defaults: greedy-correction placement
  DuetEngine engine(models::build_wide_deep(), opts);
  DevicePair& devices = engine.devices();

  Partition partition = partition_phased(model);
  ExecutionPlan duet_plan =
      ExecutionPlan::build(model, partition, engine.report().schedule.placement,
                           devices, CompileOptions::compiler_defaults());
  ExecutionPlan gpu_plan = ExecutionPlan::build(
      model, partition, Placement(partition.subgraphs.size(), DeviceKind::kGpu),
      devices, CompileOptions::compiler_defaults());

  header("Throughput — pipelined query windows on Wide-and-Deep");
  TextTable t({"window", "DUET qps", "DUET mean lat", "GPU-only qps",
               "GPU-only mean lat"});
  for (int window : {1, 4, 16, 64}) {
    const auto d = run_pipelined(duet_plan, devices, window);
    const auto g = run_pipelined(gpu_plan, devices, window);
    char c1[32], c2[32], c3[32], c4[32];
    std::snprintf(c1, sizeof(c1), "%.0f", d.throughput_qps);
    std::snprintf(c2, sizeof(c2), "%.2f ms", d.mean_latency_s * 1e3);
    std::snprintf(c3, sizeof(c3), "%.0f", g.throughput_qps);
    std::snprintf(c4, sizeof(c4), "%.2f ms", g.mean_latency_s * 1e3);
    t.add_row({std::to_string(window), c1, c2, c3, c4});
  }
  std::printf("%s", t.render().c_str());

  const auto d64 = run_pipelined(duet_plan, devices, 64);
  const auto g64 = run_pipelined(gpu_plan, devices, 64);
  std::printf(
      "steady state: DUET bottleneck device busy %.2f ms/query -> %.0f qps "
      "ceiling; gpu-only %.2f ms/query -> %.0f qps ceiling (%.2fx)\n",
      d64.bottleneck_busy_s * 1e3, 1.0 / d64.bottleneck_busy_s,
      g64.bottleneck_busy_s * 1e3, 1.0 / g64.bottleneck_busy_s,
      g64.bottleneck_busy_s / d64.bottleneck_busy_s);
  return 0;
}
