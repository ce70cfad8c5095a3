#include "graph/op.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace duet {
namespace {

struct OpNameEntry {
  OpType op;
  const char* name;
};

constexpr std::array kOpNames = {
    OpNameEntry{OpType::kInput, "input"},
    OpNameEntry{OpType::kConstant, "constant"},
    OpNameEntry{OpType::kAdd, "add"},
    OpNameEntry{OpType::kSub, "sub"},
    OpNameEntry{OpType::kMul, "mul"},
    OpNameEntry{OpType::kReLU, "relu"},
    OpNameEntry{OpType::kSigmoid, "sigmoid"},
    OpNameEntry{OpType::kTanh, "tanh"},
    OpNameEntry{OpType::kGelu, "gelu"},
    OpNameEntry{OpType::kAddScalar, "add_scalar"},
    OpNameEntry{OpType::kMulScalar, "mul_scalar"},
    OpNameEntry{OpType::kBiasAdd, "bias_add"},
    OpNameEntry{OpType::kIdentity, "identity"},
    OpNameEntry{OpType::kMatMul, "matmul"},
    OpNameEntry{OpType::kBatchMatMul, "batch_matmul"},
    OpNameEntry{OpType::kDense, "dense"},
    OpNameEntry{OpType::kConv2d, "conv2d"},
    OpNameEntry{OpType::kMaxPool2d, "max_pool2d"},
    OpNameEntry{OpType::kAvgPool2d, "avg_pool2d"},
    OpNameEntry{OpType::kGlobalAvgPool, "global_avg_pool"},
    OpNameEntry{OpType::kBatchNorm, "batch_norm"},
    OpNameEntry{OpType::kLSTM, "lstm"},
    OpNameEntry{OpType::kGRU, "gru"},
    OpNameEntry{OpType::kEmbedding, "embedding"},
    OpNameEntry{OpType::kSoftmax, "softmax"},
    OpNameEntry{OpType::kLayerNorm, "layer_norm"},
    OpNameEntry{OpType::kReduceSum, "reduce_sum"},
    OpNameEntry{OpType::kReduceMean, "reduce_mean"},
    OpNameEntry{OpType::kReduceMax, "reduce_max"},
    OpNameEntry{OpType::kArgMax, "argmax"},
    OpNameEntry{OpType::kConcat, "concat"},
    OpNameEntry{OpType::kReshape, "reshape"},
    OpNameEntry{OpType::kFlatten, "flatten"},
    OpNameEntry{OpType::kTranspose2d, "transpose2d"},
    OpNameEntry{OpType::kSliceRows, "slice_rows"},
    OpNameEntry{OpType::kSeqLast, "seq_last"},
    OpNameEntry{OpType::kMultiHeadAttention, "multi_head_attention"},
    OpNameEntry{OpType::kElementwiseChain, "elementwise_chain"},
};

}  // namespace

const char* op_name(OpType op) {
  for (const auto& e : kOpNames) {
    if (e.op == op) return e.name;
  }
  return "?";
}

OpType op_from_name(const std::string& name) {
  for (const auto& e : kOpNames) {
    if (name == e.name) return e.op;
  }
  DUET_THROW("unknown op name: " << name);
}

int64_t AttrMap::get_int(const std::string& key) const {
  auto it = attrs_.find(key);
  DUET_CHECK(it != attrs_.end()) << "missing int attr: " << key;
  const int64_t* v = std::get_if<int64_t>(&it->second);
  DUET_CHECK(v != nullptr) << "attr " << key << " is not int";
  return *v;
}

int64_t AttrMap::get_int_or(const std::string& key, int64_t fallback) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return fallback;
  const int64_t* v = std::get_if<int64_t>(&it->second);
  DUET_CHECK(v != nullptr) << "attr " << key << " is not int";
  return *v;
}

double AttrMap::get_float(const std::string& key) const {
  auto it = attrs_.find(key);
  DUET_CHECK(it != attrs_.end()) << "missing float attr: " << key;
  if (const double* v = std::get_if<double>(&it->second)) return *v;
  if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
    return static_cast<double>(*v);
  }
  DUET_THROW("attr " << key << " is not numeric");
}

std::string AttrMap::get_string(const std::string& key) const {
  auto it = attrs_.find(key);
  DUET_CHECK(it != attrs_.end()) << "missing string attr: " << key;
  const std::string* v = std::get_if<std::string>(&it->second);
  DUET_CHECK(v != nullptr) << "attr " << key << " is not string";
  return *v;
}

std::string AttrMap::get_string_or(const std::string& key,
                                   const std::string& fallback) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return fallback;
  const std::string* v = std::get_if<std::string>(&it->second);
  DUET_CHECK(v != nullptr) << "attr " << key << " is not string";
  return *v;
}

std::vector<int64_t> AttrMap::get_ints(const std::string& key) const {
  auto it = attrs_.find(key);
  DUET_CHECK(it != attrs_.end()) << "missing int-list attr: " << key;
  const auto* v = std::get_if<std::vector<int64_t>>(&it->second);
  DUET_CHECK(v != nullptr) << "attr " << key << " is not int list";
  return *v;
}

std::string AttrMap::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [key, value] : attrs_) {
    if (!first) os << ", ";
    first = false;
    os << key << "=";
    if (const auto* i = std::get_if<int64_t>(&value)) {
      os << *i;
    } else if (const auto* d = std::get_if<double>(&value)) {
      os << *d;
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      os << '"' << *s << '"';
    } else if (const auto* l = std::get_if<std::vector<int64_t>>(&value)) {
      os << "[";
      for (size_t j = 0; j < l->size(); ++j) {
        if (j) os << " ";
        os << (*l)[j];
      }
      os << "]";
    }
  }
  return os.str();
}

bool op_produces_int(OpType op) { return op == OpType::kArgMax; }

bool is_metadata_op(OpType op) {
  switch (op) {
    case OpType::kInput:
    case OpType::kConstant:
    case OpType::kReshape:
    case OpType::kFlatten:
    case OpType::kIdentity:
      return true;
    default:
      return false;
  }
}

bool is_fusible_unary(OpType op) {
  switch (op) {
    case OpType::kReLU:
    case OpType::kSigmoid:
    case OpType::kTanh:
    case OpType::kGelu:
    case OpType::kAddScalar:
    case OpType::kMulScalar:
    case OpType::kIdentity:
      return true;
    default:
      return false;
  }
}

bool is_binary_elementwise(OpType op) {
  switch (op) {
    case OpType::kAdd:
    case OpType::kSub:
    case OpType::kMul:
      return true;
    default:
      return false;
  }
}

}  // namespace duet
