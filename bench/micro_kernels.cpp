// Google-benchmark micro-benchmarks of the reference kernel library (real
// wall time on the host). These are not paper figures; they document the
// numeric substrate's performance and catch kernel regressions.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/counter_normal.hpp"
#include "common/rng.hpp"
#include "graph/fingerprint.hpp"
#include "models/model_zoo.hpp"
#include "partition/partitioner.hpp"
#include "tensor/kernels.hpp"

namespace {

using duet::Rng;
using duet::Shape;
using duet::Tensor;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2d(benchmark::State& state) {
  const int64_t size = state.range(0);
  Rng rng(2);
  const Tensor x = Tensor::randn(Shape{1, 16, size, size}, rng);
  const Tensor w = Tensor::randn(Shape{32, 16, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{32});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(32)->Arg(64);

void BM_LstmCell(benchmark::State& state) {
  const int64_t hidden = state.range(0);
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{1, hidden}, rng);
  duet::kernels::LstmState s{Tensor::zeros(Shape{1, hidden}),
                             Tensor::zeros(Shape{1, hidden})};
  const Tensor w_ih = Tensor::randn(Shape{hidden, 4 * hidden}, rng, 0.05f);
  const Tensor w_hh = Tensor::randn(Shape{hidden, 4 * hidden}, rng, 0.05f);
  const Tensor bias = Tensor::zeros(Shape{4 * hidden});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::lstm_cell(x, s, w_ih, w_hh, bias));
  }
}
BENCHMARK(BM_LstmCell)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2dDirect(benchmark::State& state) {
  const int64_t ch = state.range(0);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{1, ch, 28, 28}, rng);
  const Tensor w = Tensor::randn(Shape{ch, ch, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{ch});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d_direct(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2dDirect)->Arg(8)->Arg(32);

void BM_Conv2dIm2col(benchmark::State& state) {
  const int64_t ch = state.range(0);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{1, ch, 28, 28}, rng);
  const Tensor w = Tensor::randn(Shape{ch, ch, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{ch});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d_im2col(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2dIm2col)->Arg(8)->Arg(32);

void BM_Softmax(benchmark::State& state) {
  Rng rng(4);
  const Tensor x = Tensor::randn(Shape{64, state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::softmax_lastdim(x));
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_Attention(benchmark::State& state) {
  const int64_t model = 128;
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, state.range(0), model}, rng);
  const Tensor wqkv = Tensor::randn(Shape{model, 3 * model}, rng, 0.05f);
  const Tensor wo = Tensor::randn(Shape{model, model}, rng, 0.05f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::multi_head_attention(x, wqkv, wo, 4));
  }
}
BENCHMARK(BM_Attention)->Arg(16)->Arg(64);

// Weight generation on one thread into a reused buffer (pages already
// faulted in): the generator's own cost. `per_elem` is seconds per element
// (printed with an SI prefix); the bar is 2 ns on an AVX2 host.
void BM_InitNormal(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> buffer(n);
  duet::ThreadPool one(1);
  uint64_t ordinal = 0;
  for (auto _ : state) {
    duet::fill_normal(buffer.data(), n, duet::NormalStream(7, ordinal++),
                      0.05f, one);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_InitNormal)->Arg(1 << 20);

// Fingerprinting resnet50 the way an engine does: every subgraph of its
// phased partition, then the whole model. Arg 0 hashes every payload each
// time; arg 1 shares one PayloadDigestMemo per pass, as DuetEngine does, so
// the whole model's payloads are memo hits. bytes_per_second counts
// the payload bytes fingerprinted, whether hashed or served by the memo.
void BM_FingerprintGraph(benchmark::State& state) {
  static const duet::Graph model = duet::models::build_by_name("resnet50");
  static const duet::Partition partition =
      duet::partition_phased(model, duet::PartitionOptions{});
  const auto payload_bytes = [](const duet::Graph& g) {
    int64_t n = 0;
    for (const duet::Node& node : g.nodes()) {
      if (node.is_constant()) n += static_cast<int64_t>(node.value.byte_size());
    }
    return n;
  };
  int64_t bytes = payload_bytes(model);
  for (const duet::Subgraph& sub : partition.subgraphs) {
    bytes += payload_bytes(sub.graph);
  }
  const bool shared = state.range(0) != 0;
  for (auto _ : state) {
    duet::PayloadDigestMemo memo;
    duet::PayloadDigestMemo* digests = shared ? &memo : nullptr;
    for (const duet::Subgraph& sub : partition.subgraphs) {
      benchmark::DoNotOptimize(duet::fingerprint_graph(sub.graph, digests));
    }
    benchmark::DoNotOptimize(duet::fingerprint_graph(model, digests));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_FingerprintGraph)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
