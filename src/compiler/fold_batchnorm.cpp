// Batch-norm folding (TVM's fold_scale_axis): an inference-mode batch norm
// whose scale/shift are constants and whose producer is a convolution with
// constant weights folds into the convolution:
//
//   w'[o,c,kh,kw] = w[o,c,kh,kw] * scale[o]
//   b'[o]         = b[o] * scale[o] + shift[o]
//
// Numerically exact, removes one full feature-map round trip through memory
// per conv — the difference between our model's CPU ResNet cost and the
// paper's measured 14.9 ms is mostly this pass.
//
// w' and b' are deferred constants (tensor/tensor.hpp): the pass rewrites
// the graph and keys them by their derivation; the multiplies run on the
// first read of their bytes, which a registration never makes.

#include <cstring>

#include "common/error.hpp"
#include "compiler/pass.hpp"
#include "compiler/rewrite.hpp"
#include "graph/fingerprint.hpp"

namespace duet {
namespace {

// Derivation names of the two folded constants (derivation_key).
constexpr uint64_t kFoldedWeight = 0x424E464F4C442E57ull;  // "BNFOLD.W"
constexpr uint64_t kFoldedBias = 0x424E464F4C442E42ull;    // "BNFOLD.B"

// w'[o, ...] = w[o, ...] * scale[o], written once into the unfilled `out`.
void fold_weight(const Tensor& w, const Tensor& scale, Tensor& out) {
  const int64_t oc = w.shape().dim(0);
  const int64_t per_filter = w.numel() / oc;
  float* pw = out.data<float>();
  const float* pw_in = w.data<float>();
  const float* ps = scale.data<float>();
  for (int64_t o = 0; o < oc; ++o) {
    for (int64_t i = 0; i < per_filter; ++i) {
      pw[o * per_filter + i] = pw_in[o * per_filter + i] * ps[o];
    }
  }
}

// b'[o] = b[o] * scale[o] + shift[o], or shift when the conv has no bias.
void fold_bias(const Tensor& b, const Tensor& scale, const Tensor& shift,
               Tensor& out) {
  const int64_t oc = shift.numel();
  float* pb = out.data<float>();
  const float* ps = scale.data<float>();
  const float* pf = shift.data<float>();
  if (b.defined()) {
    const float* pob = b.data<float>();
    for (int64_t o = 0; o < oc; ++o) pb[o] = pob[o] * ps[o] + pf[o];
  } else {
    std::memcpy(pb, pf, sizeof(float) * static_cast<size_t>(oc));
  }
}

}  // namespace

Graph fold_batch_norm(const Graph& g) {
  const size_t n = g.num_nodes();

  std::vector<bool> is_output(n, false);
  for (NodeId out : g.outputs()) is_output[static_cast<size_t>(out)] = true;

  // bn node id -> producing conv id, for foldable pairs.
  std::vector<NodeId> fold_into(n, kInvalidNode);
  for (const Node& node : g.nodes()) {
    if (node.op != OpType::kBatchNorm) continue;
    const NodeId conv_id = node.inputs[0];
    const Node& conv = g.node(conv_id);
    if (conv.op != OpType::kConv2d) continue;
    if (g.consumers(conv_id).size() != 1) continue;  // conv value used elsewhere
    if (is_output[static_cast<size_t>(conv_id)]) continue;
    if (!conv.attrs.get_string_or("epilogue", "").empty()) continue;
    // Everything that gets rescaled must be constant.
    if (!g.node(conv.inputs[1]).is_constant()) continue;
    if (conv.inputs.size() > 2 && !g.node(conv.inputs[2]).is_constant()) continue;
    if (!g.node(node.inputs[1]).is_constant()) continue;
    if (!g.node(node.inputs[2]).is_constant()) continue;
    fold_into[static_cast<size_t>(node.id)] = conv_id;
  }

  // Convs consumed by a foldable BN are emitted at the BN site instead.
  std::vector<bool> conv_folded(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (fold_into[i] != kInvalidNode) {
      conv_folded[static_cast<size_t>(fold_into[i])] = true;
    }
  }

  Graph out(g.name());
  std::vector<NodeId> remap(n, kInvalidNode);
  for (const Node& node : g.nodes()) {
    const size_t id = static_cast<size_t>(node.id);
    if (conv_folded[id]) continue;

    if (fold_into[id] != kInvalidNode) {
      const Node& conv = g.node(fold_into[id]);
      const Tensor w = g.node(conv.inputs[1]).value;
      const Tensor scale = g.node(node.inputs[1]).value;
      const Tensor shift = g.node(node.inputs[2]).value;
      const Tensor b =
          conv.inputs.size() > 2 ? g.node(conv.inputs[2]).value : Tensor();
      const int64_t oc = w.shape().dim(0);

      Tensor w2 = Tensor::deferred(
          w.shape(), DType::kFloat32, derivation_key(kFoldedWeight, {w, scale}),
          [w, scale](Tensor& out) { fold_weight(w, scale, out); });
      std::vector<Tensor> bias_inputs = {scale, shift};
      if (b.defined()) bias_inputs.push_back(b);
      Tensor b2 = Tensor::deferred(
          Shape{oc}, DType::kFloat32, derivation_key(kFoldedBias, bias_inputs),
          [b, scale, shift](Tensor& out) { fold_bias(b, scale, shift, out); });

      const NodeId wn = out.add_constant(std::move(w2), conv.name + ".w.bnfold");
      const NodeId bn_bias = out.add_constant(std::move(b2), conv.name + ".b.bnfold");
      const NodeId x = remap[static_cast<size_t>(conv.inputs[0])];
      DUET_CHECK(x != kInvalidNode);
      const NodeId fused = out.add_node(OpType::kConv2d, {x, wn, bn_bias},
                                        conv.attrs, conv.name + "+bn");
      remap[static_cast<size_t>(conv.id)] = fused;
      remap[id] = fused;
      continue;
    }

    remap[id] = copy_node_into(node, out, remap);
  }
  copy_outputs(g, out, remap);
  return out;
}

}  // namespace duet
