#include "duet/baseline.hpp"

#include "common/error.hpp"
#include "graph/shape_inference.hpp"

namespace duet {

const char* baseline_name(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kTvmCpu:
      return "TVM-CPU";
    case BaselineKind::kTvmGpu:
      return "TVM-GPU";
    case BaselineKind::kFrameworkCpu:
      return "Framework-CPU";
    case BaselineKind::kFrameworkGpu:
      return "Framework-GPU";
  }
  return "?";
}

DeviceKind baseline_device(BaselineKind kind) {
  return (kind == BaselineKind::kTvmCpu || kind == BaselineKind::kFrameworkCpu)
             ? DeviceKind::kCpu
             : DeviceKind::kGpu;
}

Baseline::Baseline(const Graph& model, BaselineKind kind, DevicePair& devices,
                   const GraphFingerprint* fingerprint)
    : kind_(kind), devices_(devices) {
  const DeviceKind dev = baseline_device(kind);
  const bool framework = kind == BaselineKind::kFrameworkCpu ||
                         kind == BaselineKind::kFrameworkGpu;
  const CompileOptions options = framework ? CompileOptions::framework()
                                           : CompileOptions::compiler_defaults();
  compiled_ = compile_for_device(model, dev, options,
                                 devices.device(dev).params(), fingerprint);
  // Pass pipelines preserve input order; build the parent->compiled feed map.
  parent_inputs_ = model.input_ids();
  compiled_inputs_ = compiled_.graph().input_ids();
  DUET_CHECK_EQ(parent_inputs_.size(), compiled_inputs_.size());
  for (NodeId id : model.input_ids()) {
    input_bytes_ += node_output_bytes(model.node(id));
  }
  for (NodeId id : model.outputs()) {
    output_bytes_ += node_output_bytes(model.node(id));
  }
}

double Baseline::transfer_overhead(bool with_noise) {
  if (baseline_device(kind_) == DeviceKind::kCpu) return 0.0;
  return devices_.link->transfer_time(input_bytes_, with_noise) +
         devices_.link->transfer_time(output_bytes_, with_noise);
}

double Baseline::latency(bool with_noise) {
  Device& dev = devices_.device(baseline_device(kind_));
  return dev.modeled_time(compiled_, with_noise) + transfer_overhead(with_noise);
}

Baseline::Result Baseline::infer(const std::map<NodeId, Tensor>& feeds,
                                 bool with_noise) {
  // Remap parent input ids to the compiled graph's (positional) input ids.
  std::map<NodeId, Tensor> remapped;
  for (size_t i = 0; i < parent_inputs_.size(); ++i) {
    auto it = feeds.find(parent_inputs_[i]);
    DUET_CHECK(it != feeds.end()) << "missing feed for input " << parent_inputs_[i];
    remapped[compiled_inputs_[i]] = it->second;
  }
  Device& dev = devices_.device(baseline_device(kind_));
  Device::RunResult rr = dev.execute(compiled_, remapped, with_noise);
  Result r;
  r.outputs = std::move(rr.outputs);
  r.latency_s = rr.modeled_time_s + transfer_overhead(with_noise);
  return r;
}

}  // namespace duet
