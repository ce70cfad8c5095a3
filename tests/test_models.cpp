// Tests for the model zoo: structural expectations, config plumbing,
// forward-pass sanity, and the named factory.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "graph/fingerprint.hpp"
#include "models/model_zoo.hpp"
#include "partition/partitioner.hpp"

namespace duet {
namespace {

using namespace models;

int count_ops(const Graph& g, OpType op) {
  int n = 0;
  for (const Node& node : g.nodes()) n += node.op == op;
  return n;
}

TEST(WideDeep, StructureMatchesConfig) {
  WideDeepConfig c = WideDeepConfig::tiny();
  c.rnn_layers = 3;
  c.ffn_layers = 4;
  Graph g = build_wide_deep(c);
  EXPECT_EQ(count_ops(g, OpType::kLSTM), 3);
  EXPECT_EQ(count_ops(g, OpType::kDense), 4 + 1 /*ffn out*/ + 1 /*wide*/ +
                                              1 /*rnn proj*/ + 1 /*cnn proj*/ +
                                              2 /*head*/);
  EXPECT_EQ(g.input_ids().size(), 4u);  // wide, deep, text, image
  EXPECT_EQ(g.outputs().size(), 1u);
}

TEST(WideDeep, ForwardProducesProbability) {
  Graph g = build_wide_deep(WideDeepConfig::tiny());
  Rng rng(1);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  const float p = out[0].data<float>()[0];
  EXPECT_GE(p, 0.0f);
  EXPECT_LE(p, 1.0f);
}

TEST(WideDeep, CnnDepthChangesGraphSize) {
  WideDeepConfig c18 = WideDeepConfig::tiny();
  WideDeepConfig c50 = WideDeepConfig::tiny();
  c50.cnn_depth = 50;
  EXPECT_GT(build_wide_deep(c50).num_nodes(), build_wide_deep(c18).num_nodes());
}

TEST(WideDeep, BatchPropagates) {
  WideDeepConfig c = WideDeepConfig::tiny();
  c.batch = 3;
  Graph g = build_wide_deep(c);
  EXPECT_EQ(g.node(g.outputs()[0]).out_shape.dim(0), 3);
}

TEST(Siamese, TwoIndependentBranches) {
  Graph g = build_siamese(SiameseConfig::tiny());
  EXPECT_EQ(count_ops(g, OpType::kLSTM), 2);
  EXPECT_EQ(g.input_ids().size(), 2u);
  Rng rng(2);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  EXPECT_GE(out[0].data<float>()[0], 0.0f);
  EXPECT_LE(out[0].data<float>()[0], 1.0f);
}

TEST(Mtdnn, TaskCountControlsOutputs) {
  MtDnnConfig c = MtDnnConfig::tiny();
  c.num_tasks = 7;
  Graph g = build_mtdnn(c);
  EXPECT_EQ(g.outputs().size(), 7u);
  EXPECT_EQ(count_ops(g, OpType::kGRU), 7);
  EXPECT_EQ(count_ops(g, OpType::kMultiHeadAttention), c.encoder_layers);
}

TEST(Mtdnn, TaskOutputsAreDistributions) {
  Graph g = build_mtdnn(MtDnnConfig::tiny());
  Rng rng(3);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  for (const Tensor& t : out) {
    float sum = 0.0f;
    for (int64_t i = 0; i < t.numel(); ++i) sum += t.data<float>()[i];
    EXPECT_NEAR(sum, 1.0f, 1e-4);
  }
}

TEST(ResNet, DepthsProduceExpectedConvCounts) {
  ResNetConfig c = ResNetConfig::tiny();
  c.depth = 18;
  EXPECT_EQ(count_ops(build_resnet(c), OpType::kConv2d), 20);  // 17 + 3 downsample
  c.depth = 34;
  EXPECT_EQ(count_ops(build_resnet(c), OpType::kConv2d), 36);  // 33 + 3
  c.depth = 50;
  EXPECT_EQ(count_ops(build_resnet(c), OpType::kConv2d), 53);  // 49 + 4
  c.depth = 101;
  EXPECT_EQ(count_ops(build_resnet(c), OpType::kConv2d), 104);
}

TEST(ResNet, UnsupportedDepthThrows) {
  ResNetConfig c;
  c.depth = 42;
  EXPECT_THROW(build_resnet(c), Error);
}

TEST(ResNet, ForwardIsDistribution) {
  Graph g = build_resnet(ResNetConfig::tiny());
  Rng rng(4);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  float sum = 0.0f;
  for (int64_t i = 0; i < out[0].numel(); ++i) sum += out[0].data<float>()[i];
  EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST(Vgg, SixteenWeightLayers) {
  Graph g = build_vgg16(VggConfig::tiny());
  EXPECT_EQ(count_ops(g, OpType::kConv2d), 13);
  EXPECT_EQ(count_ops(g, OpType::kDense), 3);
}

TEST(SqueezeNet, FireModulesConcatChannels) {
  Graph g = build_squeezenet(SqueezeNetConfig::tiny());
  EXPECT_EQ(count_ops(g, OpType::kConcat), 8);
  Rng rng(5);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  EXPECT_EQ(out[0].shape().dim(1), SqueezeNetConfig::tiny().num_classes);
}

TEST(Dlrm, ParallelBottomStructure) {
  models::DlrmConfig c = models::DlrmConfig::tiny();
  c.num_sparse = 5;
  Graph g = build_dlrm(c);
  EXPECT_EQ(count_ops(g, OpType::kEmbedding), 5);
  EXPECT_EQ(g.input_ids().size(), 6u);  // dense + 5 sparse
  // Bottom MLP and the 5 embeddings are parallel branches.
  Partition p = partition_phased(g);
  bool found_wide_phase = false;
  for (const Phase& phase : p.phases) {
    if (phase.type == PhaseType::kMultiPath) {
      EXPECT_EQ(phase.subgraphs.size(), 6u);
      found_wide_phase = true;
    }
  }
  EXPECT_TRUE(found_wide_phase);
}

TEST(Dlrm, ForwardProducesProbability) {
  Graph g = build_dlrm(models::DlrmConfig::tiny());
  Rng rng(8);
  const auto out = evaluate_graph(g, make_random_feeds(g, rng));
  EXPECT_GE(out[0].data<float>()[0], 0.0f);
  EXPECT_LE(out[0].data<float>()[0], 1.0f);
}

TEST(Inception, ModuleCountsAndFactory) {
  Graph g = models::build_inception(models::InceptionConfig::tiny());
  EXPECT_EQ(count_ops(g, OpType::kConcat), 9);
  EXPECT_EQ(count_ops(g, OpType::kConv2d), 3 + 9 * 6);  // stem + 6 convs/module
  EXPECT_EQ(models::build_by_name("inception").name(), "inception-v1");
  EXPECT_EQ(models::build_by_name("dlrm").name(), "dlrm");
}

TEST(ModelZoo, FactoryByName) {
  EXPECT_EQ(build_by_name("wide-deep").name(), "wide-and-deep");
  EXPECT_EQ(build_by_name("siamese").name(), "siamese");
  EXPECT_EQ(build_by_name("mtdnn").name(), "mt-dnn");
  EXPECT_EQ(build_by_name("resnet34").name(), "resnet34");
  EXPECT_EQ(build_by_name("vgg16").name(), "vgg16");
  EXPECT_EQ(build_by_name("squeezenet").name(), "squeezenet");
  EXPECT_THROW(build_by_name("gpt4"), Error);
}

TEST(ModelZoo, SeedsMakeWeightsReproducible) {
  Graph a = build_siamese(SiameseConfig::tiny(), 99);
  Graph b = build_siamese(SiameseConfig::tiny(), 99);
  Rng rng(6);
  const auto feeds = make_random_feeds(a, rng);
  std::map<NodeId, Tensor> feeds_b;
  for (size_t i = 0; i < a.input_ids().size(); ++i) {
    feeds_b[b.input_ids()[i]] = feeds.at(a.input_ids()[i]);
  }
  EXPECT_TRUE(Tensor::allclose(evaluate_graph(a, feeds)[0],
                               evaluate_graph(b, feeds_b)[0]));
}

// The batched-factory contract (model_zoo.hpp): factory(B) holds the same
// constants as factory(1), byte for byte — weights depend on the seed and
// the tensor's ordinal, never on shapes built before it.
TEST(ModelZoo, BatchedFactoryConstantsAreBitwiseEqual) {
  for (const char* name : {"wide-deep", "siamese", "mtdnn", "resnet18",
                           "squeezenet", "inception", "dlrm"}) {
    const auto factory = zoo_batched_factory(name, /*tiny=*/true);
    const Graph one = factory(1);
    const Graph eight = factory(8);
    ASSERT_EQ(one.num_nodes(), eight.num_nodes()) << name;
    for (const Node& node : one.nodes()) {
      if (!node.is_constant()) continue;
      const Tensor& a = node.value;
      const Tensor& b = eight.node(node.id).value;
      ASSERT_EQ(a.shape(), b.shape()) << name << " " << node.name;
      EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()), 0)
          << name << " " << node.name;
    }
  }
}

// Pins the weights' identity: the builder's recipes (generator version,
// seed, stream ordinals, stddevs) and the bias/scale payloads. A change to
// any of them moves this value and must update it on purpose; a change to
// the generator's output that keeps its version does not, which the next
// test catches.
TEST(ModelZoo, WideDeepWeightsFingerprintIsPinned) {
  EXPECT_EQ(fingerprint_graph(build_by_name("wide-deep", 42)).values,
            0xC7928BE80E3163DFull);
}

// Pins the generated bytes: the same graph with every constant copied out
// to a plain payload, so the fingerprint hashes the bytes the recipes make.
// A generator change that moves this must bump kNormalGeneratorVersion.
TEST(ModelZoo, WideDeepWeightBytesArePinned) {
  Graph g = build_by_name("wide-deep", 42);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    Node& node = g.mutable_node(static_cast<NodeId>(i));
    if (node.is_constant()) node.value = node.value.clone();
  }
  EXPECT_EQ(fingerprint_graph(g).values, 0x3BD14C4441290918ull);
}

TEST(ModelZoo, RandomFeedsMatchEveryInput) {
  Graph g = build_wide_deep(WideDeepConfig::tiny());
  Rng rng(7);
  const auto feeds = make_random_feeds(g, rng);
  EXPECT_EQ(feeds.size(), g.input_ids().size());
  for (NodeId id : g.input_ids()) {
    ASSERT_TRUE(feeds.count(id));
    EXPECT_EQ(feeds.at(id).shape(), g.node(id).out_shape);
    EXPECT_EQ(feeds.at(id).dtype(), g.node(id).out_dtype);
  }
}

TEST(ModelZoo, AllFullSizeModelsValidate) {
  // Full-size graphs build and validate (no numeric execution here).
  for (const char* name : {"wide-deep", "siamese", "mtdnn", "resnet18",
                           "resnet50", "vgg16", "squeezenet"}) {
    EXPECT_NO_THROW(build_by_name(name).validate()) << name;
  }
}

}  // namespace
}  // namespace duet
