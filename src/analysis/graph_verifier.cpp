#include "analysis/graph_verifier.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "graph/shape_inference.hpp"

namespace duet {
namespace {

// Positional input arity contract per OpType. max < 0 means unbounded
// (kConcat). Terminals take zero inputs.
struct OpArity {
  int min = 0;
  int max = 0;
};

std::string arity_to_string(OpArity a) {
  std::ostringstream os;
  if (a.max < 0) {
    os << ">= " << a.min;
  } else if (a.min == a.max) {
    os << a.min;
  } else {
    os << a.min << ".." << a.max;
  }
  return os.str();
}

OpArity op_arity(OpType op) {
  switch (op) {
    case OpType::kInput:
    case OpType::kConstant:
      return {0, 0};
    case OpType::kAdd:
    case OpType::kSub:
    case OpType::kMul:
    case OpType::kBiasAdd:
    case OpType::kMatMul:
    case OpType::kBatchMatMul:
    case OpType::kEmbedding:
      return {2, 2};
    case OpType::kDense:
    case OpType::kConv2d:
      return {2, 3};  // optional bias
    case OpType::kBatchNorm:
    case OpType::kLayerNorm:
    case OpType::kMultiHeadAttention:
      return {3, 3};
    case OpType::kLSTM:
    case OpType::kGRU:
      return {3, 4};  // optional bias
    case OpType::kConcat:
      return {1, -1};
    case OpType::kReLU:
    case OpType::kSigmoid:
    case OpType::kTanh:
    case OpType::kGelu:
    case OpType::kAddScalar:
    case OpType::kMulScalar:
    case OpType::kIdentity:
    case OpType::kSoftmax:
    case OpType::kReduceSum:
    case OpType::kReduceMean:
    case OpType::kReduceMax:
    case OpType::kArgMax:
    case OpType::kReshape:
    case OpType::kFlatten:
    case OpType::kTranspose2d:
    case OpType::kSliceRows:
    case OpType::kSeqLast:
    case OpType::kGlobalAvgPool:
    case OpType::kMaxPool2d:
    case OpType::kAvgPool2d:
    case OpType::kElementwiseChain:
      return {1, 1};
  }
  return {0, -1};  // unknown op: accept anything, shape-infer will complain
}

}  // namespace

VerifyResult verify_graph(const Graph& graph) {
  VerifyResult result;
  const size_t n = graph.num_nodes();
  // Nodes whose edges all resolved; semantic rules only run on these, so one
  // corrupted edge yields one structural diagnostic, not a cascade.
  std::vector<bool> structurally_ok(n, true);

  for (size_t i = 0; i < n; ++i) {
    const Node& node = graph.nodes()[i];
    if (static_cast<size_t>(node.id) != i) {
      result.error("dense-ids", static_cast<NodeId>(i),
                   "node at index " + std::to_string(i) + " carries id " +
                       std::to_string(node.id));
      structurally_ok[i] = false;
      continue;
    }
    for (NodeId in : node.inputs) {
      if (in < 0 || static_cast<size_t>(in) >= n) {
        result.error("dangling-input", node.id,
                     std::string(op_name(node.op)) + " reads nonexistent node %" +
                         std::to_string(in));
        structurally_ok[i] = false;
      } else if (in >= node.id) {
        // Dense ids are topological by construction, so a forward edge is how
        // a cycle manifests after bad graph surgery.
        result.error("acyclicity", node.id,
                     "input %" + std::to_string(in) +
                         " does not precede the node (forward edge / cycle)");
        structurally_ok[i] = false;
      }
    }
    const OpArity arity = op_arity(node.op);
    const int got = static_cast<int>(node.inputs.size());
    if (got < arity.min || (arity.max >= 0 && got > arity.max)) {
      result.error("arity", node.id,
                   std::string(op_name(node.op)) + " expects " +
                       arity_to_string(arity) + " inputs, got " +
                       std::to_string(got));
      structurally_ok[i] = false;
    }
  }

  // Consumer adjacency must be the exact inverse of the input lists (with
  // multiplicity: a node reading %x twice appears twice in consumers(x)).
  for (size_t i = 0; i < n; ++i) {
    if (!structurally_ok[i]) continue;
    const Node& node = graph.nodes()[i];
    for (NodeId in : node.inputs) {
      const auto& cons = graph.consumers(in);
      const auto uses =
          std::count(node.inputs.begin(), node.inputs.end(), in);
      const auto listed = std::count(cons.begin(), cons.end(), node.id);
      if (listed != uses) {
        result.error("consumer-index", node.id,
                     "reads %" + std::to_string(in) + " " + std::to_string(uses) +
                         "x but appears " + std::to_string(listed) +
                         "x in its consumer list");
        break;
      }
    }
  }

  // Terminals: constants must carry a tensor matching their declared type;
  // pre-bound inputs likewise.
  for (size_t i = 0; i < n; ++i) {
    const Node& node = graph.nodes()[i];
    if (!node.is_constant() && !(node.is_input() && node.value.defined())) continue;
    if (!node.value.defined()) {
      result.error("terminal-value", node.id,
                   "constant \"" + node.name + "\" has no bound value");
      continue;
    }
    if (!(node.value.shape() == node.out_shape) ||
        node.value.dtype() != node.out_dtype) {
      result.error("terminal-value", node.id,
                   "bound tensor is " + node.value.shape().to_string() + " " +
                       dtype_name(node.value.dtype()) + " but node declares " +
                       node.out_shape.to_string() + " " +
                       dtype_name(node.out_dtype));
    }
  }

  // Semantic types: re-derive and compare.
  for (size_t i = 0; i < n; ++i) {
    const Node& node = graph.nodes()[i];
    if (!structurally_ok[i] || node.is_input() || node.is_constant()) continue;
    try {
      const InferredType t = infer_node_type(graph, node);
      if (!(t.shape == node.out_shape)) {
        result.error("type-consistency", node.id,
                     std::string(op_name(node.op)) + " records shape " +
                         node.out_shape.to_string() + " but inference derives " +
                         t.shape.to_string());
      }
      if (t.dtype != node.out_dtype) {
        result.error("type-consistency", node.id,
                     std::string(op_name(node.op)) + " records dtype " +
                         dtype_name(node.out_dtype) + " but inference derives " +
                         dtype_name(t.dtype));
      }
    } catch (const Error& e) {
      result.error("shape-infer", node.id, e.what());
    }
  }

  // Outputs must reference live nodes and exist at all.
  if (graph.outputs().empty()) {
    result.error("outputs", kInvalidNode, "graph has no outputs");
  }
  for (NodeId out : graph.outputs()) {
    if (out < 0 || static_cast<size_t>(out) >= n) {
      result.error("outputs", out, "output references nonexistent node");
    }
  }

  // Duplicate kInput names break ExecutionPlan's positional feed matching →
  // error; duplicates elsewhere only hurt readability → warning.
  std::map<std::string, NodeId> seen;
  for (const Node& node : graph.nodes()) {
    auto [it, inserted] = seen.emplace(node.name, node.id);
    if (inserted) continue;
    const std::string msg =
        "name \"" + node.name + "\" already used by node %" + std::to_string(it->second);
    if (node.is_input() && graph.node(it->second).is_input()) {
      result.error("unique-names", node.id, msg);
    } else {
      result.warning("unique-names", node.id, msg);
    }
  }

  result.set_artifact(graph.name());
  return result;
}

}  // namespace duet
