// Tests for the symbolic shape & cost abstract interpretation
// (src/analysis/symbolic): SymExpr algebra, the central bit-identity
// property (symbolic inference + cost, specialized at a concrete binding,
// reproduces infer_node_type / cost_model exactly across the model zoo and
// randomized lane graphs), the batch-crossover certification, the new lint
// rules' corruption triggers, and the Shape::numel overflow guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lint/lint.hpp"
#include "analysis/lint/rules.hpp"
#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_cost.hpp"
#include "analysis/symbolic/sym_expr.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/cost_model.hpp"
#include "compiler/pass.hpp"
#include "device/calibration.hpp"
#include "graph/builder.hpp"
#include "graph/shape_inference.hpp"
#include "models/model_zoo.hpp"
#include "partition/partitioner.hpp"
#include "runtime/plan.hpp"
#include "telemetry/chrome_trace.hpp"

namespace duet {
namespace {

using symbolic::SymBindings;
using symbolic::SymDomain;
using symbolic::SymExpr;
using symbolic::SymShape;

bool has_rule(const VerifyResult& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

// --- SymExpr algebra --------------------------------------------------------

TEST(SymExpr, CanonicalFormAndEquality) {
  const SymExpr b = SymExpr::symbol("B");
  const SymExpr t = SymExpr::symbol("T");
  EXPECT_EQ(b * t, t * b);              // commutes into one canonical monomial
  EXPECT_EQ(b + b, SymExpr(2) * b);     // like terms merge
  EXPECT_TRUE((b - b).is_zero());       // zero coefficients vanish
  EXPECT_TRUE(SymExpr(7).is_constant());
  EXPECT_EQ(SymExpr(7).constant_value(), 7);
  EXPECT_FALSE(b.is_constant());
  EXPECT_EQ((SymExpr(2) * b * t + SymExpr(4) * b + SymExpr(128)).to_string(),
            "2*B*T + 4*B + 128");
}

TEST(SymExpr, ArithmeticIdentities) {
  const SymExpr b = SymExpr::symbol("B");
  EXPECT_EQ((b + 1) * (b - 1), b * b - 1);
  EXPECT_EQ((b + 3) - (b + 3), SymExpr(0));
  SymExpr acc;
  acc += b;
  acc += 5;
  acc *= SymExpr(2);
  EXPECT_EQ(acc, SymExpr(2) * b + 10);
}

TEST(SymExpr, ExactDivision) {
  const SymExpr b = SymExpr::symbol("B");
  const SymExpr t = SymExpr::symbol("T");
  auto q = (SymExpr(6) * b * t).divided_by(3);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, SymExpr(2) * b * t);
  q = (SymExpr(4) * b * b - SymExpr(6) * b + 8).divided_by(2);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, SymExpr(2) * b * b - SymExpr(3) * b + 4);
  EXPECT_EQ(SymExpr().divided_by(7).value(), SymExpr());
  EXPECT_FALSE((b + 1).divided_by(2).has_value());  // 1/2 not integer
  EXPECT_THROW((void)b.divided_by(0), Error);
}

TEST(SymExpr, EvalIsExactAndThrowsOnUnboundSymbol) {
  const SymExpr b = SymExpr::symbol("B");
  const SymExpr t = SymExpr::symbol("T");
  const SymExpr e = SymExpr(2) * b * t + SymExpr(4) * b + 128;
  EXPECT_EQ(e.eval({{"B", 3}, {"T", 5}}), 170);
  EXPECT_THROW(e.eval({{"B", 3}}), Error);
}

TEST(SymExpr, OverflowThrowsInsteadOfWrapping) {
  const SymExpr b = SymExpr::symbol("B");
  const int64_t big = std::numeric_limits<int64_t>::max();
  EXPECT_THROW(SymExpr(big) * SymExpr(2), Error);      // coefficient arithmetic
  EXPECT_THROW((b * b).eval({{"B", int64_t{1} << 32}}), Error);  // evaluation
}

TEST(SymExpr, BoundsAndDegree) {
  const SymExpr b = SymExpr::symbol("B");
  const SymDomain domain = {{"B", {1, 64}}};
  const SymExpr::Interval iv = (SymExpr(4) * b + 8).bounds(domain);
  EXPECT_TRUE(iv.bounded);
  EXPECT_EQ(iv.lo, 12);
  EXPECT_EQ(iv.hi, 264);
  EXPECT_FALSE(b.bounds({}).bounded);  // no declared range
  EXPECT_EQ((SymExpr(2) * b * b + b).degree("B"), 2);
  EXPECT_EQ(b.degree("T"), 0);
  EXPECT_EQ((b * SymExpr::symbol("T")).symbols(),
            (std::vector<std::string>{"B", "T"}));
}

TEST(SymExpr, ProvableComparisons) {
  const SymExpr b = SymExpr::symbol("B");
  const SymDomain domain = {{"B", {1, 64}}};
  EXPECT_TRUE(symbolic::provably_ge(SymExpr(64) * b, b, domain));
  EXPECT_TRUE(symbolic::provably_gt(b + 1, b, domain));
  EXPECT_FALSE(symbolic::provably_gt(b, SymExpr(32), domain));  // flips at 33
  EXPECT_FALSE(symbolic::provably_ge(b, SymExpr(1), {}));       // unbounded
}

TEST(SymShape, LiftAndEvalRoundTrip) {
  const Shape concrete{2, 256};
  const SymShape lifted(concrete);
  EXPECT_TRUE(lifted.is_constant());
  EXPECT_EQ(lifted.at({}), concrete);

  const SymShape batched =
      lifted.with_dim(0, SymExpr::symbol("B"));
  EXPECT_EQ(batched.to_string(), "[B, 256]");
  EXPECT_EQ(batched.at({{"B", 7}}), (Shape{7, 256}));
  EXPECT_EQ(batched.numel(), SymExpr(256) * SymExpr::symbol("B"));
}

// --- Shape::numel overflow guard (satellite) ---------------------------------

TEST(ShapeNumel, AdversarialDimsThrowInsteadOfWrapping) {
  // 2^32 * 2^32 == 2^64 wraps int64 to 0 without the guard — a zero-byte
  // allocation for an enormous tensor.
  EXPECT_THROW((Shape{int64_t{1} << 32, int64_t{1} << 32}).numel(), Error);
  EXPECT_THROW(
      (Shape{std::numeric_limits<int64_t>::max(), 2}).numel(), Error);
  // Wrapping to a positive value is just as dangerous as wrapping to zero.
  EXPECT_THROW(
      (Shape{int64_t{1} << 62, 5}).numel(), Error);
}

TEST(ShapeNumel, LargeButRepresentableProductsSucceed) {
  EXPECT_EQ((Shape{int64_t{1} << 20, int64_t{1} << 20}).numel(),
            int64_t{1} << 40);
  EXPECT_EQ((Shape{}).numel(), 1);
  EXPECT_EQ((Shape{0, int64_t{1} << 62}).numel(), 0);
}

// --- bit-identity property: model zoo ----------------------------------------

// Asserts that specializing the symbolic shapes/costs of `g` at `bindings`
// reproduces the concrete inference and cost model bit-for-bit against the
// recorded shapes and quantities of `concrete` (== g for the native binding,
// or a structural twin built at another batch size).
void expect_specialization_matches(const Graph& g,
                                   const symbolic::SymbolicShapes& sym,
                                   const SymBindings& bindings,
                                   const Graph& concrete,
                                   const std::string& context) {
  ASSERT_EQ(g.num_nodes(), concrete.num_nodes()) << context;
  const CompileOptions opts = CompileOptions::compiler_defaults();
  const std::vector<DeviceCostParams> devices = {xeon_gold_6152(), titan_v()};
  for (const Node& n : concrete.nodes()) {
    const size_t id = static_cast<size_t>(n.id);
    EXPECT_EQ(sym.shapes[id].at(bindings), n.out_shape)
        << context << " node " << n.id << " (" << op_name(n.op) << "): "
        << sym.shapes[id].to_string();
    EXPECT_EQ(sym.dtypes[id], n.out_dtype) << context << " node " << n.id;

    const NodeCostQuantities ref = node_cost_quantities(concrete, n);
    const NodeCostQuantities got = symbolic::specialize(
        symbolic::sym_node_cost(g, g.node(n.id), sym), bindings, n.op);
    EXPECT_EQ(got.metadata, ref.metadata) << context << " node " << n.id;
    EXPECT_EQ(got.flops, ref.flops) << context << " node " << n.id;
    EXPECT_EQ(got.read_bytes, ref.read_bytes) << context << " node " << n.id;
    EXPECT_EQ(got.written_bytes, ref.written_bytes)
        << context << " node " << n.id;
    EXPECT_EQ(got.launches, ref.launches) << context << " node " << n.id;
    EXPECT_EQ(got.batch, ref.batch) << context << " node " << n.id;
    EXPECT_EQ(got.layout_tagged, ref.layout_tagged)
        << context << " node " << n.id;
    for (const DeviceCostParams& dev : devices) {
      EXPECT_EQ(node_time_from_quantities(got, dev, opts),
                node_time_seconds(concrete, n, dev, opts))
          << context << " node " << n.id << " on " << dev.name;
    }
  }
}

TEST(SymbolicZoo, NativeSpecializationIsBitIdentical) {
  for (const std::string& name : models::zoo_model_names()) {
    const Graph g = models::build_by_name(name);
    const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g);
    EXPECT_EQ(sym.diagnostics.error_count(), 0u)
        << name << "\n" << sym.diagnostics.to_string();

    const std::vector<NodeId> inputs = g.input_ids();
    ASSERT_FALSE(inputs.empty()) << name;
    const int64_t native = g.node(inputs[0]).out_shape.dim(0);
    for (NodeId in : inputs) {
      ASSERT_EQ(g.node(in).out_shape.dim(0), native)
          << name << ": inputs disagree on the batch dim";
    }
    expect_specialization_matches(g, sym, {{"B", native}}, g, name);
  }
}

TEST(SymbolicZoo, OnlyBatchFoldingModelsCarryDiagnostics) {
  // mtdnn and dlrm hard-code the batch inside reshape targets. mtdnn also
  // adds a [1, ...] constant to a batched tensor, and dlrm's concat meets its
  // folded (now concrete) embeddings next to the batched dense features. The
  // contract pass must flag exactly those nodes, with exactly these messages,
  // at warning severity.
  using Finding = std::tuple<std::string, NodeId, std::string>;
  const std::string rule = "symbolic-shape-contract";
  std::map<std::string, std::vector<Finding>> expected;
  expected["mtdnn"] = {
      {rule, 8,
       "reshape 'reshape_8': reshape to concrete dims folds symbolic numel "
       "49152*B"},
      {rule, 16,
       "add 'add_16': operand shapes differ symbolically: [B, 64, 768] vs "
       "[1, 64, 768]"}};
  for (NodeId id = 16; id <= 116; id += 4) {
    const std::string name = "reshape_" + std::to_string(id);
    expected["dlrm"].emplace_back(
        rule, id,
        "reshape '" + name +
            "': reshape to concrete dims folds symbolic numel 64*B");
  }
  expected["dlrm"].emplace_back(
      rule, 117, "concat 'concat_117': non-axis dim mismatch at input 1: 1 vs B");
  ASSERT_EQ(expected["dlrm"].size(), 27u);

  for (const std::string& name : models::zoo_model_names()) {
    const symbolic::SymbolicShapes sym =
        symbolic::infer_symbolic(models::build_by_name(name));
    EXPECT_EQ(sym.diagnostics.error_count(), 0u) << name;
    std::vector<Finding> got;
    for (const Diagnostic& d : sym.diagnostics.diagnostics()) {
      got.emplace_back(d.rule, d.node, d.message);
    }
    const auto it = expected.find(name);
    EXPECT_EQ(got, it == expected.end() ? std::vector<Finding>{} : it->second)
        << name << "\n" << sym.diagnostics.to_string();
  }
}

// --- bit-identity property: randomized lane graphs ----------------------------

// A trimmed twin of tests/test_fuzz.cpp's random_graph with the batch size a
// parameter that does NOT perturb the rng stream: two calls with the same
// seed build structurally identical graphs at different batch sizes, giving
// the symbolic pass a concrete twin to check non-native specializations
// against.
Graph lane_graph(uint64_t seed, int64_t batch) {
  Rng rng(seed);
  GraphBuilder b("lanes_" + std::to_string(seed), seed * 13 + 1);

  std::vector<NodeId> live;
  const int num_inputs = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < num_inputs; ++i) {
    const int64_t features = 4 << rng.uniform_int(0, 3);  // 4..32
    live.push_back(b.input(Shape{batch, features}));
  }

  const int steps = static_cast<int>(rng.uniform_int(6, 20));
  for (int s = 0; s < steps; ++s) {
    const int64_t choice = rng.uniform_int(0, 8);
    const size_t pick = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
    const NodeId x = live[pick];
    NodeId produced = kInvalidNode;
    switch (choice) {
      case 0:
        produced = b.relu(x);
        break;
      case 1:
        produced = b.sigmoid(x);
        break;
      case 2:
        produced = b.tanh(x);
        break;
      case 3:
      case 4:
        produced = b.dense(x, 4 << rng.uniform_int(0, 3));
        break;
      case 5: {  // merge two equal-shaped values with add (or skip)
        NodeId other = kInvalidNode;
        for (NodeId cand : live) {
          if (cand != x &&
              b.graph().node(cand).out_shape == b.graph().node(x).out_shape) {
            other = cand;
            break;
          }
        }
        produced = other != kInvalidNode ? b.add(x, other) : b.gelu(x);
        break;
      }
      case 6: {  // concat two lanes along features
        const size_t pick2 = static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
        produced = b.concat({x, live[pick2]}, 1);
        break;
      }
      case 7:
        produced = b.layer_norm(x);
        break;
      default:
        produced = b.dense(x, 8, "relu");
        break;
    }
    if (!rng.coin(0.35)) live.erase(live.begin() + static_cast<long>(pick));
    live.push_back(produced);
  }

  std::vector<NodeId> outputs;
  for (NodeId id : live) {
    if (!b.graph().node(id).is_input()) outputs.push_back(id);
    if (outputs.size() == 4) break;
  }
  return b.finish(std::move(outputs));
}

TEST(SymbolicFuzz, SpecializationMatchesTwinGraphs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = lane_graph(seed, /*batch=*/2);
    const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g);
    EXPECT_TRUE(sym.clean())
        << "seed " << seed << "\n" << sym.diagnostics.to_string();

    // Native binding against the graph itself...
    expect_specialization_matches(g, sym, {{"B", 2}}, g,
                                  "seed " + std::to_string(seed) + " B=2");
    // ...and non-native bindings against freshly built structural twins.
    for (const int64_t batch : {1, 5, 33}) {
      const Graph twin = lane_graph(seed, batch);
      expect_specialization_matches(
          g, sym, {{"B", batch}}, twin,
          "seed " + std::to_string(seed) + " B=" + std::to_string(batch));
    }
  }
}

// The twin generator for the ops lane_graph leaves out: each seed strings one
// conv, both pools, a global pool or flatten, an LSTM or GRU, an embedding, a
// batch matmul, attention, a reduce, argmax, seq-last, transpose and
// slice_rows off batch-major inputs, with seeded dims, strides, kernels and
// axes. As in lane_graph, the batch size never perturbs the rng stream.
Graph op_graph(uint64_t seed, int64_t batch) {
  Rng rng(seed);
  GraphBuilder b("ops_" + std::to_string(seed), seed * 13 + 1);
  Graph& g = b.graph();
  const auto with = [](std::vector<std::pair<std::string, int64_t>> kv) {
    AttrMap attrs;
    for (auto& [key, value] : kv) attrs.set(key, value);
    return attrs;
  };
  std::vector<NodeId> outputs;

  // Image lane: conv -> max pool -> avg pool -> global pool or flatten.
  const int64_t hw = 12 + 4 * rng.uniform_int(0, 2);
  NodeId img = b.input(Shape{batch, 2 << rng.uniform_int(0, 2), hw, hw});
  img = b.conv2d(img, 4, static_cast<int>(rng.uniform_int(1, 3)),
                 static_cast<int>(rng.uniform_int(1, 2)),
                 static_cast<int>(rng.uniform_int(0, 1)));
  img = b.max_pool2d(img, 2, static_cast<int>(rng.uniform_int(1, 2)), 0);
  img = g.add_node(OpType::kAvgPool2d, {img},
                   with({{"kernel", rng.uniform_int(1, 2)}, {"stride", 1}}));
  outputs.push_back(rng.coin() ? b.global_avg_pool(img) : b.flatten(img));

  // Sequence lane: recurrence -> attention -> batch matmul, reduce, seq-last.
  const int64_t seq = rng.uniform_int(2, 5);
  const int64_t model = 8 << rng.uniform_int(0, 1);
  NodeId x = b.input(Shape{batch, seq, 4 << rng.uniform_int(0, 2)});
  x = rng.coin() ? b.lstm(x, model) : b.gru(x, model);
  x = b.attention(x, rng.coin() ? 2 : 4);
  outputs.push_back(g.add_node(OpType::kBatchMatMul,
                               {x, b.weight(Shape{model, 4 << rng.uniform_int(0, 2)})}));
  const OpType reduce[] = {OpType::kReduceSum, OpType::kReduceMean,
                           OpType::kReduceMax};
  outputs.push_back(g.add_node(reduce[rng.uniform_int(0, 2)], {x},
                               with({{"axis", rng.uniform_int(0, 2)}})));
  const NodeId last = b.last_timestep(x);
  outputs.push_back(g.add_node(OpType::kArgMax, {last}));
  outputs.push_back(g.add_node(OpType::kTranspose2d, {last}));
  // end <= rows must hold over the whole domain B in [1, 64].
  outputs.push_back(b.slice_rows(last, 0, 1));

  // Gather lane.
  const NodeId ids = b.input(Shape{batch, seq}, "ids", DType::kInt32);
  outputs.push_back(b.embedding(ids, 16 << rng.uniform_int(0, 2), model));
  return b.finish(std::move(outputs));
}

TEST(SymbolicFuzz, SpecializationMatchesTwinOpGraphs) {
  std::set<OpType> covered;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = op_graph(seed, /*batch=*/2);
    for (const Node& n : g.nodes()) covered.insert(n.op);
    const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g);
    EXPECT_TRUE(sym.clean())
        << "seed " << seed << "\n" << sym.diagnostics.to_string();

    expect_specialization_matches(g, sym, {{"B", 2}}, g,
                                  "op seed " + std::to_string(seed) + " B=2");
    for (const int64_t batch : {1, 5, 33}) {
      const Graph twin = op_graph(seed, batch);
      expect_specialization_matches(
          g, sym, {{"B", batch}}, twin,
          "op seed " + std::to_string(seed) + " B=" + std::to_string(batch));
    }
  }
  for (const OpType op :
       {OpType::kConv2d, OpType::kMaxPool2d, OpType::kAvgPool2d,
        OpType::kGlobalAvgPool, OpType::kFlatten, OpType::kLSTM, OpType::kGRU,
        OpType::kEmbedding, OpType::kBatchMatMul, OpType::kMultiHeadAttention,
        OpType::kSliceRows, OpType::kSeqLast, OpType::kReduceSum,
        OpType::kReduceMean, OpType::kReduceMax, OpType::kArgMax,
        OpType::kTranspose2d}) {
    EXPECT_TRUE(covered.count(op)) << op_name(op) << " never generated";
  }
}

// --- inference diagnostics -----------------------------------------------------

TEST(SymbolicInference, BatchFoldingReshapeWarnsAndFallsBack) {
  GraphBuilder b("fold");
  const NodeId x = b.input(Shape{2, 8}, "x");
  const NodeId d = b.dense(x, 4);
  const NodeId r = b.reshape(d, Shape{8});  // folds the batch away
  const Graph g = b.finish({b.relu(r)});

  const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g);
  EXPECT_TRUE(sym.has("symbolic-shape-contract"))
      << sym.diagnostics.to_string();
  EXPECT_EQ(sym.diagnostics.error_count(), 0u);  // portability, not correctness
  // The fallback keeps whole-graph inference going: at the native binding
  // every shape (including downstream of the fold) still specializes exactly.
  expect_specialization_matches(g, sym, {{"B", 2}}, g, "fold");
}

TEST(SymbolicInference, MissingDomainReportsUnboundedDim) {
  GraphBuilder b("nodomain");
  const NodeId x = b.input(Shape{2, 8}, "x");
  const Graph g = b.finish({b.relu(x)});

  symbolic::SymbolicOptions options;
  options.domain = {{"T", {1, 8}}};  // non-empty, but says nothing about B
  const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g, options);
  EXPECT_TRUE(sym.has("unbounded-dim")) << sym.diagnostics.to_string();
  EXPECT_EQ(sym.diagnostics.error_count(), 0u);

  // The default domain (B in [1, 64]) keeps the same graph clean.
  EXPECT_TRUE(symbolic::infer_symbolic(g).clean());
}

// --- lint wiring -----------------------------------------------------------------

lint::LintInput input_with_subgraphs(
    const ExecutionPlan& plan, const std::vector<PlannedSubgraph>& subgraphs) {
  return lint::LintInput{
      PlanView{plan.parent(), plan.partition(), plan.placement(), subgraphs,
               plan.consumers(), plan.transfers(), plan.step_order()},
      plan.memory_plan(), nullptr};
}

ExecutionPlan cpu_plan(const Graph& graph) {
  const Partition partition = partition_phased(graph);
  const Placement placement(partition.subgraphs.size(), DeviceKind::kCpu);
  return ExecutionPlan::build(graph, partition, placement,
                              make_default_device_pair(),
                              CompileOptions::compiler_defaults());
}

TEST(SymbolicLint, ShapeContractPassFiresThroughThePlanPipeline) {
  GraphBuilder b("fold-lint");
  const NodeId x = b.input(Shape{2, 8}, "x");
  const NodeId r = b.reshape(b.dense(x, 4), Shape{8});
  const ExecutionPlan plan = cpu_plan(b.finish({b.relu(r)}));

  const VerifyResult result =
      lint::symbolic_shape_contract(lint::make_input(plan));
  EXPECT_TRUE(has_rule(result, "symbolic-shape-contract"))
      << result.to_string();
  EXPECT_EQ(result.error_count(), 0u);
}

TEST(SymbolicLint, TransferBlowupFiresOnEmbeddingOnlySubgraph) {
  // An embedding gather: zero flops but output bytes linear in B. Placed
  // across the link, the transfer outgrows the compute by construction.
  GraphBuilder b("emb-only");
  const NodeId idx = b.input(Shape{2, 4}, "idx", DType::kInt32);
  const ExecutionPlan plan = cpu_plan(b.finish({b.embedding(idx, 100, 16)}));

  const VerifyResult result =
      lint::transfer_blowup(lint::make_input(plan));
  EXPECT_TRUE(has_rule(result, "transfer-blowup")) << result.to_string();
  EXPECT_EQ(result.error_count(), 0u);
}

TEST(SymbolicLint, TransferBlowupStaysSilentWhenComputeKeepsPace) {
  // Dense compute grows with B exactly like its boundary bytes do.
  GraphBuilder b("dense-chain");
  const NodeId x = b.input(Shape{2, 16}, "x");
  const ExecutionPlan plan = cpu_plan(b.finish({b.relu(b.dense(x, 8))}));

  const VerifyResult result =
      lint::transfer_blowup(lint::make_input(plan));
  EXPECT_EQ(result.diagnostics().size(), 0u) << result.to_string();
}

TEST(SymbolicLint, MemoBitsetFallbackFiresPast64Subgraphs) {
  GraphBuilder b("bitset");
  const NodeId x = b.input(Shape{2, 16}, "x");
  const ExecutionPlan plan = cpu_plan(b.finish({b.relu(b.dense(x, 8))}));

  // Under the 64-subgraph cliff: silent.
  EXPECT_EQ(lint::memo_bitset_fallback(lint::make_input(plan))
                .diagnostics()
                .size(),
            0u);

  // Over it: the evaluator would fall off its bitset memo — must be visible.
  std::vector<PlannedSubgraph> subs = plan.subgraphs();
  ASSERT_FALSE(subs.empty());
  while (subs.size() <= 64) subs.push_back(subs.front());
  const VerifyResult result =
      lint::memo_bitset_fallback(input_with_subgraphs(plan, subs));
  EXPECT_TRUE(has_rule(result, "memo-bitset-fallback")) << result.to_string();
  EXPECT_EQ(result.error_count(), 0u);
}

TEST(SymbolicLint, NewRulesAreCataloguedAsWarnings) {
  for (const char* rule : {"symbolic-shape-contract", "unbounded-dim",
                           "transfer-blowup", "memo-bitset-fallback"}) {
    const lint::RuleInfo* info = lint::find_rule(rule);
    ASSERT_NE(info, nullptr) << rule;
    // Batch polymorphism is a portability property; engine checked mode
    // throws on errors, and batch-monomorphic graphs still execute
    // correctly — these must never block a valid plan.
    EXPECT_EQ(info->severity, Diagnostic::Severity::kWarning) << rule;
  }
}

TEST(SymbolicLint, StandardSuiteStaysErrorFreeOnBatchFoldingModel) {
  // dlrm folds the batch in reshapes — the harshest zoo case for the
  // symbolic pass. It must surface warnings, never errors (checked-mode
  // engines construct plans for it).
  const Graph g = models::build_by_name("dlrm");
  const Graph opt =
      PassManager::standard(CompileOptions::compiler_defaults()).run(g);
  const ExecutionPlan plan = cpu_plan(opt);
  const VerifyResult result = lint::LintSuite::standard().run(plan);
  EXPECT_EQ(result.error_count(), 0u) << result.to_string();
  EXPECT_TRUE(has_rule(result, "symbolic-shape-contract"))
      << result.to_string();
}

// --- crossover certification ------------------------------------------------------

// Independent re-evaluation of the analytic model for one subgraph at one
// batch — the checker's twin of the solver's inner loop, built only from the
// public pieces (specialize + shared roofline + transfer model).
struct AnalyticTimes {
  double cpu = 0;
  double gpu = 0;
};

AnalyticTimes eval_subgraph_at(const Graph& parent, const Subgraph& sg,
                               const symbolic::SymbolicShapes& shapes,
                               const symbolic::SymSubgraphCost& totals,
                               const symbolic::CrossoverOptions& options,
                               int64_t batch) {
  AnalyticTimes t;
  const SymBindings bindings = {{options.symbol, batch}};
  for (NodeId id : sg.parent_nodes) {
    const Node& n = parent.node(id);
    const NodeCostQuantities q = symbolic::specialize(
        symbolic::sym_node_cost(parent, n, shapes), bindings, n.op);
    t.cpu += node_time_from_quantities(q, options.cpu, options.compile);
    t.gpu += node_time_from_quantities(q, options.gpu, options.compile);
  }
  const auto in_bytes =
      static_cast<uint64_t>(totals.transfer_in_bytes.eval(bindings));
  const auto out_bytes =
      static_cast<uint64_t>(totals.transfer_out_bytes.eval(bindings));
  if (in_bytes > 0) t.gpu += transfer_time_seconds(in_bytes, options.link);
  if (out_bytes > 0) t.gpu += transfer_time_seconds(out_bytes, options.link);
  return t;
}

TEST(Crossover, WideDeepHasACertifiedFiniteFlip) {
  const Graph g = models::build_by_name("wide-deep");
  const Graph opt =
      PassManager::standard(CompileOptions::compiler_defaults()).run(g);
  const Partition partition = partition_phased(opt);
  const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(opt);
  ASSERT_EQ(sym.diagnostics.error_count(), 0u) << sym.diagnostics.to_string();

  const symbolic::CrossoverOptions options;
  const symbolic::CrossoverReport report =
      symbolic::analyze_crossover(opt, partition, sym, options);

  // The acceptance property: a finite batch boundary where the analytic
  // CPU-vs-GPU preference flips, inside the scanned range.
  ASSERT_TRUE(report.any_flip()) << report.to_string();
  for (const int64_t boundary : report.bucket_boundaries) {
    EXPECT_GT(boundary, report.lo);
    EXPECT_LE(boundary, report.hi);
  }
  EXPECT_TRUE(std::is_sorted(report.bucket_boundaries.begin(),
                             report.bucket_boundaries.end()));

  const auto preferred = [](double cpu, double gpu) {
    return cpu <= gpu ? DeviceKind::kCpu : DeviceKind::kGpu;
  };
  const std::vector<symbolic::SymSubgraphCost> totals =
      symbolic::sym_partition_costs(opt, partition, sym);

  for (const symbolic::SubgraphCrossover& sc : report.subgraphs) {
    // Intervals tile [lo, hi] with alternating devices.
    ASSERT_FALSE(sc.intervals.empty());
    EXPECT_EQ(sc.intervals.front().lo, report.lo);
    EXPECT_EQ(sc.intervals.back().hi, report.hi);
    for (size_t i = 0; i < sc.intervals.size(); ++i) {
      EXPECT_LE(sc.intervals[i].lo, sc.intervals[i].hi);
      if (i) {
        EXPECT_EQ(sc.intervals[i].lo, sc.intervals[i - 1].hi + 1);
        EXPECT_NE(sc.intervals[i].device, sc.intervals[i - 1].device);
      }
    }
    EXPECT_EQ(sc.boundaries.size(), sc.intervals.size() - 1);

    for (const symbolic::CrossoverBoundary& edge : sc.boundaries) {
      EXPECT_NE(edge.from, edge.to);
      // The certificate is self-consistent...
      EXPECT_EQ(preferred(edge.cpu_before, edge.gpu_before), edge.from);
      EXPECT_EQ(preferred(edge.cpu_after, edge.gpu_after), edge.to);
      // ...and matches an independent evaluation of the analytic model on
      // both sides of the boundary.
      const Subgraph& sg =
          partition.subgraphs[static_cast<size_t>(sc.subgraph)];
      const symbolic::SymSubgraphCost& total =
          totals[static_cast<size_t>(sc.subgraph)];
      const AnalyticTimes before =
          eval_subgraph_at(opt, sg, sym, total, options, edge.batch - 1);
      const AnalyticTimes after =
          eval_subgraph_at(opt, sg, sym, total, options, edge.batch);
      EXPECT_EQ(before.cpu, edge.cpu_before);
      EXPECT_EQ(before.gpu, edge.gpu_before);
      EXPECT_EQ(after.cpu, edge.cpu_after);
      EXPECT_EQ(after.gpu, edge.gpu_after);
    }
  }
}

TEST(Crossover, ReportSerializesToValidJson) {
  const Graph g = models::build_by_name("wide-deep");
  const Partition partition = partition_phased(g);
  const symbolic::SymbolicShapes sym = symbolic::infer_symbolic(g);
  const symbolic::CrossoverReport report =
      symbolic::analyze_crossover(g, partition, sym);
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(report.to_json(), &err)) << err;
  EXPECT_NE(report.to_json().find("\"bucket_boundaries\""), std::string::npos);
  // The report names the graph (the zoo builder's internal name), not the
  // CLI alias.
  EXPECT_NE(report.to_string().find("crossover " + report.model),
            std::string::npos);
}

}  // namespace
}  // namespace duet
