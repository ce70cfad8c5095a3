// Constant folding: any compute node whose operands are all constants is
// replaced by a constant carrying its result. Typical win in the model zoo:
// weight-preprocessing chains (transposes, folded batch-norm scale
// computations). The result is a deferred constant (tensor/tensor.hpp) keyed
// by the node and its operands' keys; the node is evaluated on the first
// read of its bytes.

#include <cstring>

#include "common/error.hpp"
#include "compiler/pass.hpp"
#include "compiler/rewrite.hpp"
#include "graph/fingerprint.hpp"

namespace duet {

Graph fold_constants(const Graph& g) {
  Graph out(g.name());
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  for (const Node& node : g.nodes()) {
    const size_t id = static_cast<size_t>(node.id);
    if (node.is_input() || node.is_constant()) {
      remap[id] = copy_node_into(node, out, remap);
      continue;
    }
    bool all_const = !node.inputs.empty();
    for (NodeId in : node.inputs) {
      if (!out.node(remap[static_cast<size_t>(in)]).is_constant()) {
        all_const = false;
        break;
      }
    }
    if (all_const) {
      std::vector<Tensor> inputs;
      inputs.reserve(node.inputs.size());
      for (NodeId in : node.inputs) {
        inputs.push_back(out.node(remap[static_cast<size_t>(in)]).value);
      }
      const uint64_t key = derivation_key(node, inputs);
      Tensor folded = Tensor::deferred(
          node.out_shape, node.out_dtype, key,
          [node, inputs = std::move(inputs)](Tensor& out) {
            const Tensor value = evaluate_node(node, inputs);
            DUET_CHECK(value.shape() == out.shape() && value.dtype() == out.dtype())
                << "folded " << node.name << " to " << value.shape().to_string()
                << ", declared " << out.shape().to_string();
            std::memcpy(out.raw_data(), value.raw_data(), out.byte_size());
          });
      remap[id] = out.add_constant(std::move(folded), node.name + ".folded");
    } else {
      remap[id] = copy_node_into(node, out, remap);
    }
  }
  copy_outputs(g, out, remap);
  return out;
}

}  // namespace duet
