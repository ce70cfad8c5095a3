// Tests for the graph-level compiler passes: each pass's specific rewrite,
// the standard pipeline's contents, and the property that the full pipeline
// preserves semantics on every zoo model (optimized graph computes the same
// outputs).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/lowering.hpp"
#include "compiler/pass.hpp"
#include "device/calibration.hpp"
#include "graph/builder.hpp"
#include "models/model_zoo.hpp"

namespace duet {
namespace {

int count_ops(const Graph& g, OpType op) {
  int n = 0;
  for (const Node& node : g.nodes()) n += node.op == op;
  return n;
}

// --- fusion -----------------------------------------------------------------------

TEST(Fusion, DenseReluBecomesEpilogue) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId d = b.dense(x, 8);
  const NodeId r = b.relu(d);
  Graph g = b.finish({r});

  Graph fused = fuse_operators(g);
  EXPECT_EQ(count_ops(fused, OpType::kReLU), 0);
  bool found = false;
  for (const Node& n : fused.nodes()) {
    if (n.op == OpType::kDense) {
      EXPECT_EQ(n.attrs.get_string_or("epilogue", ""), "relu");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fusion, CascadedEpilogues) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId d = b.dense(x, 8, "relu");  // built-in epilogue
  const NodeId t = b.tanh(d);
  Graph g = b.finish({t});
  Graph fused = fuse_operators(g);
  for (const Node& n : fused.nodes()) {
    if (n.op == OpType::kDense) {
      EXPECT_EQ(n.attrs.get_string_or("epilogue", ""), "relu,tanh");
    }
  }
  EXPECT_EQ(count_ops(fused, OpType::kTanh), 0);
}

TEST(Fusion, MultiConsumerBlocksFusion) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId d = b.dense(x, 8);
  const NodeId r = b.relu(d);
  const NodeId s = b.sigmoid(d);  // second consumer of the dense value
  const NodeId out = b.add(r, s);
  Graph g = b.finish({out});
  Graph fused = fuse_operators(g);
  // dense must stay unfused; relu and sigmoid survive.
  EXPECT_EQ(count_ops(fused, OpType::kReLU), 1);
  EXPECT_EQ(count_ops(fused, OpType::kSigmoid), 1);
}

TEST(Fusion, OutputValueNotFusedAway) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId d = b.dense(x, 8);
  const NodeId r = b.relu(d);
  Graph g = b.finish({d, r});  // the dense value itself escapes

  Graph fused = fuse_operators(g);
  EXPECT_EQ(count_ops(fused, OpType::kReLU), 1);

  // Semantics: both outputs still correct.
  Rng rng(1);
  const auto feeds = models::make_random_feeds(g, rng);
  const auto before = evaluate_graph(g, feeds);
  const auto after = evaluate_graph(fused, feeds);
  EXPECT_TRUE(Tensor::allclose(before[0], after[0]));
  EXPECT_TRUE(Tensor::allclose(before[1], after[1]));
}

TEST(Fusion, UnaryChainCollapses) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId a = b.relu(x);
  const NodeId c = b.tanh(a);
  const NodeId d = b.sigmoid(c);
  Graph g = b.finish({d});
  Graph fused = fuse_operators(g);
  EXPECT_EQ(count_ops(fused, OpType::kElementwiseChain), 1);
  for (const Node& n : fused.nodes()) {
    if (n.op == OpType::kElementwiseChain) {
      EXPECT_EQ(n.attrs.get_string("chain"), "relu,tanh,sigmoid");
    }
  }
}

// --- constant folding ------------------------------------------------------------

TEST(ConstantFold, FoldsConstantSubtree) {
  GraphBuilder b("t");
  const NodeId c1 = b.constant(Tensor::full(Shape{2, 2}, 2.0f));
  const NodeId c2 = b.constant(Tensor::full(Shape{2, 2}, 3.0f));
  const NodeId prod = b.mul(c1, c2);
  const NodeId x = b.input(Shape{2, 2});
  const NodeId out = b.add(x, prod);
  Graph g = b.finish({out});

  Graph folded = fold_constants(g);
  EXPECT_EQ(count_ops(folded, OpType::kMul), 0);
  // The folded constant carries the right value.
  bool found = false;
  for (const Node& n : folded.nodes()) {
    if (n.is_constant() && n.name.find(".folded") != std::string::npos) {
      EXPECT_EQ(n.value.data<float>()[0], 6.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ConstantFold, LeavesDynamicNodes) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 2});
  const NodeId r = b.relu(x);
  Graph g = b.finish({r});
  Graph folded = fold_constants(g);
  EXPECT_EQ(count_ops(folded, OpType::kReLU), 1);
}

// --- batch norm folding ------------------------------------------------------------

TEST(FoldBatchNorm, ConvBnCollapsesAndMatchesNumerically) {
  GraphBuilder b("t", 5);
  const NodeId x = b.input(Shape{1, 3, 8, 8});
  const NodeId c = b.conv2d(x, 4, 3, 1, 1, "c");
  // Non-trivial scale/shift.
  Graph& g0 = b.graph();
  const NodeId scale = b.constant(Tensor::from_vector(Shape{4}, {1, 2, 0.5, -1}));
  const NodeId shift = b.constant(Tensor::from_vector(Shape{4}, {0, 1, -1, 2}));
  const NodeId bn = g0.add_node(OpType::kBatchNorm, {c, scale, shift});
  Graph g = b.finish({bn});

  Graph folded = fold_batch_norm(g);
  EXPECT_EQ(count_ops(folded, OpType::kBatchNorm), 0);
  EXPECT_EQ(count_ops(folded, OpType::kConv2d), 1);

  Rng rng(2);
  const auto feeds = models::make_random_feeds(g, rng);
  const auto before = evaluate_graph(g, feeds);
  const auto after = evaluate_graph(folded, feeds);
  EXPECT_TRUE(Tensor::allclose(before[0], after[0], 1e-3f, 1e-4f))
      << Tensor::max_abs_diff(before[0], after[0]);
}

TEST(FoldBatchNorm, SharedConvNotFolded) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 2, 4, 4});
  const NodeId c = b.conv2d(x, 2, 1, 1, 0);
  const NodeId bn = b.batch_norm(c);
  const NodeId extra = b.relu(c);  // conv value also used raw
  const NodeId gap1 = b.global_avg_pool(bn);
  const NodeId gap2 = b.global_avg_pool(extra);
  const NodeId out = b.add(gap1, gap2);
  Graph g = b.finish({out});
  Graph folded = fold_batch_norm(g);
  EXPECT_EQ(count_ops(folded, OpType::kBatchNorm), 1);
}

// --- CSE / DCE -------------------------------------------------------------------

TEST(Cse, MergesIdenticalNodes) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId r1 = b.relu(x);
  const NodeId r2 = b.relu(x);
  const NodeId out = b.add(r1, r2);
  Graph g = b.finish({out});
  Graph cse = eliminate_common_subexpressions(g);
  EXPECT_EQ(count_ops(cse, OpType::kReLU), 1);

  Rng rng(3);
  const auto feeds = models::make_random_feeds(g, rng);
  EXPECT_TRUE(
      Tensor::allclose(evaluate_graph(g, feeds)[0], evaluate_graph(cse, feeds)[0]));
}

TEST(Cse, DifferentAttrsNotMerged) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{2, 4});
  const NodeId s1 = b.slice_rows(x, 0, 1);
  const NodeId s2 = b.slice_rows(x, 1, 2);
  const NodeId out = b.add(s1, s2);
  Graph g = b.finish({out});
  Graph cse = eliminate_common_subexpressions(g);
  EXPECT_EQ(count_ops(cse, OpType::kSliceRows), 2);
}

TEST(Dce, RemovesDeadComputeKeepsInputs) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId unused_input = b.input(Shape{1, 4});
  (void)unused_input;
  const NodeId live = b.relu(x);
  const NodeId dead = b.sigmoid(x);
  (void)dead;
  Graph g = b.finish({live});
  Graph dce = eliminate_dead_code(g);
  EXPECT_EQ(count_ops(dce, OpType::kSigmoid), 0);
  EXPECT_EQ(dce.input_ids().size(), 2u);  // signature preserved
}

// --- shape-op simplification --------------------------------------------------------

TEST(SimplifyShapeOps, RemovesIdentity) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId i = b.graph().add_node(OpType::kIdentity, {x});
  const NodeId r = b.relu(i);
  Graph g = b.finish({r});
  Graph s = simplify_shape_ops(g);
  EXPECT_EQ(count_ops(s, OpType::kIdentity), 0);
  Rng rng(4);
  const auto feeds = models::make_random_feeds(g, rng);
  EXPECT_TRUE(Tensor::allclose(evaluate_graph(g, feeds)[0],
                               evaluate_graph(s, feeds)[0]));
}

TEST(SimplifyShapeOps, CollapsesReshapeChain) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{2, 12});
  const NodeId r1 = b.reshape(x, Shape{4, 6});
  const NodeId r2 = b.reshape(r1, Shape{24});
  const NodeId r3 = b.reshape(r2, Shape{3, 8});
  const NodeId y = b.relu(r3);
  Graph g = b.finish({y});
  Graph s = simplify_shape_ops(g);
  EXPECT_EQ(count_ops(s, OpType::kReshape), 3);  // dead originals remain...
  Graph after_dce = eliminate_dead_code(s);
  EXPECT_EQ(count_ops(after_dce, OpType::kReshape), 1);  // ...one survives DCE

  Rng rng(5);
  const auto feeds = models::make_random_feeds(g, rng);
  EXPECT_TRUE(Tensor::allclose(evaluate_graph(g, feeds)[0],
                               evaluate_graph(s, feeds)[0]));
}

TEST(SimplifyShapeOps, DropsNoopReshape) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{2, 3});
  const NodeId r = b.reshape(x, Shape{2, 3});  // same shape
  const NodeId y = b.relu(r);
  Graph g = b.finish({y});
  Graph s = eliminate_dead_code(simplify_shape_ops(g));
  EXPECT_EQ(count_ops(s, OpType::kReshape), 0);
}

TEST(SimplifyShapeOps, PreservedWhenShapeMatters) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{2, 12});
  const NodeId r = b.reshape(x, Shape{4, 6});
  const NodeId d = b.dense(r, 5);  // consumes the reshaped geometry
  Graph g = b.finish({d});
  Graph s = eliminate_dead_code(simplify_shape_ops(g));
  EXPECT_EQ(count_ops(s, OpType::kReshape), 1);
}

// --- layout ------------------------------------------------------------------------

TEST(Layout, TagsConvs) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 3, 8, 8});
  const NodeId c = b.conv2d(x, 4, 3, 1, 1);
  Graph g = b.finish({c});
  Graph tagged = transform_layout(g);
  for (const Node& n : tagged.nodes()) {
    if (n.op == OpType::kConv2d) {
      EXPECT_EQ(n.attrs.get_string("layout"), "NCHWc");
    }
  }
}

// --- pipeline ----------------------------------------------------------------------

TEST(PassManager, StandardPipelineIsAllOrNothing) {
  const auto names = [](const CompileOptions& options) {
    const PassManager pm = PassManager::standard(options);
    std::vector<std::string> out;
    for (const NamedPass& p : pm.passes()) out.push_back(p.name);
    return out;
  };
  EXPECT_EQ(names(CompileOptions::compiler_defaults()),
            (std::vector<std::string>{"constant_fold", "simplify_shape_ops",
                                      "fold_batch_norm", "fusion", "cse", "dce",
                                      "layout"}));
  EXPECT_TRUE(names(CompileOptions::framework()).empty());
}

// --- full pipeline semantics (property over the zoo) -------------------------------

class PipelineSemantics : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineSemantics, OptimizedGraphComputesSameOutputs) {
  Graph g = [&] {
    const std::string name = GetParam();
    if (name == "wide-deep")
      return models::build_wide_deep(models::WideDeepConfig::tiny());
    if (name == "siamese")
      return models::build_siamese(models::SiameseConfig::tiny());
    if (name == "mtdnn") return models::build_mtdnn(models::MtDnnConfig::tiny());
    if (name == "resnet") return models::build_resnet(models::ResNetConfig::tiny());
    if (name == "squeezenet")
      return models::build_squeezenet(models::SqueezeNetConfig::tiny());
    return models::build_vgg16(models::VggConfig::tiny());
  }();

  Graph optimized = PassManager::standard(CompileOptions::compiler_defaults()).run(g);
  // Passes never grow the graph (tiny MT-DNN has no fusible pattern, so
  // equality is possible; conv models must shrink — asserted below).
  EXPECT_LE(optimized.num_nodes(), g.num_nodes());
  if (std::string(GetParam()) != "mtdnn") {
    EXPECT_LT(optimized.num_nodes(), g.num_nodes());
  }

  Rng rng(7);
  const auto feeds = models::make_random_feeds(g, rng);
  // Input ids can differ; remap positionally.
  const auto src_inputs = g.input_ids();
  const auto dst_inputs = optimized.input_ids();
  ASSERT_EQ(src_inputs.size(), dst_inputs.size());
  std::map<NodeId, Tensor> remapped;
  for (size_t i = 0; i < src_inputs.size(); ++i) {
    remapped[dst_inputs[i]] = feeds.at(src_inputs[i]);
  }

  const auto before = evaluate_graph(g, feeds);
  const auto after = evaluate_graph(optimized, remapped);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(before[i], after[i], 1e-3f, 1e-4f))
        << "output " << i
        << " max diff=" << Tensor::max_abs_diff(before[i], after[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineSemantics,
                         ::testing::Values("wide-deep", "siamese", "mtdnn",
                                           "resnet", "squeezenet", "vgg"));

// --- lowering -----------------------------------------------------------------------

TEST(Lowering, CompiledSubgraphCarriesCosts) {
  Graph g = models::build_wide_deep(models::WideDeepConfig::tiny());
  const CompiledSubgraph cs = compile_for_device(
      g, DeviceKind::kCpu, CompileOptions::compiler_defaults(), xeon_gold_6152());
  EXPECT_GT(cs.kernels().size(), 0u);
  EXPECT_GT(cs.est_total_time_s(), 0.0);
  for (const CompiledKernel& k : cs.kernels()) {
    EXPECT_GE(k.est_time_s, 0.0);
    EXPECT_GE(k.launches, 0);
  }
  EXPECT_GT(cs.input_bytes(), 0u);
  EXPECT_GT(cs.output_bytes(), 0u);
}

TEST(Lowering, WrongDeviceParamsThrow) {
  Graph g = models::build_siamese(models::SiameseConfig::tiny());
  EXPECT_THROW(compile_for_device(g, DeviceKind::kGpu,
                                  CompileOptions::compiler_defaults(),
                                  xeon_gold_6152()),
               Error);
}

TEST(Lowering, FrameworkModeSkipsFusion) {
  GraphBuilder b("t");
  const NodeId x = b.input(Shape{1, 4});
  const NodeId d = b.dense(x, 8);
  const NodeId r = b.relu(d);
  Graph g = b.finish({r});
  const CompiledSubgraph framework = compile_for_device(
      g, DeviceKind::kCpu, CompileOptions::framework(), xeon_gold_6152());
  const CompiledSubgraph compiled = compile_for_device(
      g, DeviceKind::kCpu, CompileOptions::compiler_defaults(), xeon_gold_6152());
  EXPECT_GT(framework.kernels().size(), compiled.kernels().size());
  EXPECT_GT(framework.est_total_time_s(), compiled.est_total_time_s());
}

}  // namespace
}  // namespace duet
