#pragma once

// Operator vocabulary of the graph IR. Each node in the dataflow DAG carries
// an OpType plus an attribute map; shape inference, FLOP counting, kernel
// launch counting (for the GPU cost model) and single-node evaluation all
// dispatch on OpType.

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "tensor/tensor.hpp"

namespace duet {

enum class OpType : uint8_t {
  // Graph terminals.
  kInput,
  kConstant,
  // Elementwise.
  kAdd,
  kSub,
  kMul,
  kReLU,
  kSigmoid,
  kTanh,
  kGelu,
  kAddScalar,
  kMulScalar,
  kBiasAdd,
  kIdentity,
  // Dense algebra.
  kMatMul,
  kBatchMatMul,
  kDense,  // inputs: x, W, optional bias; supports fused activation epilogue
  // Convolutional.
  kConv2d,  // inputs: x, w, optional bias; attrs: stride, padding
  kMaxPool2d,
  kAvgPool2d,
  kGlobalAvgPool,
  kBatchNorm,  // inputs: x, scale, shift (inference-mode folded)
  // Sequence.
  kLSTM,  // inputs: x, w_ih, w_hh, bias; output: [batch, seq, hidden]
  kGRU,
  kEmbedding,  // inputs: indices(int32), table
  // Normalization / reduction.
  kSoftmax,
  kLayerNorm,  // inputs: x, gamma, beta
  kReduceSum,
  kReduceMean,
  kReduceMax,
  kArgMax,
  // Shape / movement.
  kConcat,   // attr: axis
  kReshape,  // attr: dims
  kFlatten,
  kTranspose2d,
  kSliceRows,  // attrs: begin, end
  kSeqLast,    // [batch, seq, f] -> [batch, f], last timestep
  // Attention block.
  kMultiHeadAttention,  // inputs: x, wqkv, wo; attr: heads
  // Produced by the fusion pass: a chain of unary elementwise ops collapsed
  // into one kernel. attr "chain" holds comma-separated op names.
  kElementwiseChain,
};

const char* op_name(OpType op);
// Inverse of op_name; throws on unknown names (used by the Relay parser).
OpType op_from_name(const std::string& name);

// Attribute value: int, float, string, or int list.
using Attr = std::variant<int64_t, double, std::string, std::vector<int64_t>>;

class AttrMap {
 public:
  void set(const std::string& key, Attr value) { attrs_[key] = std::move(value); }
  bool has(const std::string& key) const { return attrs_.count(key) > 0; }

  int64_t get_int(const std::string& key) const;
  int64_t get_int_or(const std::string& key, int64_t fallback) const;
  double get_float(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  std::string get_string_or(const std::string& key, const std::string& fallback) const;
  std::vector<int64_t> get_ints(const std::string& key) const;

  const std::map<std::string, Attr>& raw() const { return attrs_; }
  bool operator==(const AttrMap& other) const { return attrs_ == other.attrs_; }

  std::string to_string() const;

 private:
  std::map<std::string, Attr> attrs_;
};

// True for ops whose output dtype is int32 (index-producing ops).
bool op_produces_int(OpType op);

// True for terminals and the free metadata/movement ops (reshape, flatten,
// identity): no flops, no kernel launch, zero modeled time.
bool is_metadata_op(OpType op);

// True for unary elementwise ops that the fusion pass may collapse into an
// epilogue / chain.
bool is_fusible_unary(OpType op);

// True for binary elementwise ops (same-shape operands).
bool is_binary_elementwise(OpType op);

}  // namespace duet
