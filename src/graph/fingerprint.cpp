#include "graph/fingerprint.hpp"

#include <cstring>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
// Domain tags of the three kinds of constant content (content_key).
constexpr uint64_t kPayloadTag = 0x5041594C4F414421ull;  // "PAYLOAD!"
constexpr uint64_t kRecipeTag = 0x5245434950452121ull;   // "RECIPE!!"
constexpr uint64_t kDerivedTag = 0x4445524956454421ull;  // "DERIVED!"

uint64_t splitmix(uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t hash_string(const std::string& s, uint64_t h) {
  h = hash_mix(h, s.size());
  return hash_bytes(s.data(), s.size(), h);
}

uint64_t hash_shape(const Shape& shape, uint64_t h) {
  h = hash_mix(h, shape.rank());
  for (size_t i = 0; i < shape.rank(); ++i) {
    h = hash_mix(h, static_cast<uint64_t>(shape.dim(i)));
  }
  return h;
}

uint64_t hash_attr(const Attr& attr, uint64_t h) {
  h = hash_mix(h, attr.index());
  switch (attr.index()) {
    case 0:
      return hash_mix(h, static_cast<uint64_t>(std::get<int64_t>(attr)));
    case 1: {
      uint64_t bits = 0;
      const double d = std::get<double>(attr);
      std::memcpy(&bits, &d, sizeof(bits));
      return hash_mix(h, bits);
    }
    case 2:
      return hash_string(std::get<std::string>(attr), h);
    default: {
      const auto& v = std::get<std::vector<int64_t>>(attr);
      h = hash_mix(h, v.size());
      for (int64_t x : v) h = hash_mix(h, static_cast<uint64_t>(x));
      return h;
    }
  }
}

// hash_bytes over a constant payload, counted: graph.fingerprint.payload_bytes
// is the number of payload bytes actually hashed (memo hits excluded).
uint64_t hash_payload(const void* data, size_t n, uint64_t seed) {
  static telemetry::Counter& bytes =
      telemetry::counter("graph.fingerprint.payload_bytes");
  bytes.add(n);
  return hash_bytes(data, n, seed);
}

// A constant's content: a lazy tensor's key, or its payload's bytes.
uint64_t hash_constant(const Tensor& t, uint64_t h, PayloadDigestMemo* digests) {
  if (!t.defined()) return hash_mix(h, 0);
  if (t.lazy()) return hash_mix(h, content_key(t));
  h = hash_mix(hash_mix(h, kPayloadTag), t.byte_size());
  return digests != nullptr ? digests->digest(t.raw_data(), t.byte_size(), h)
                            : hash_payload(t.raw_data(), t.byte_size(), h);
}

// A node's own hash: op, input ordinal (kInput only), attributes, output
// shape and dtype.
uint64_t hash_node(const Node& node, int input_ordinal) {
  uint64_t h = hash_mix(0x5343484544554554ull, static_cast<uint64_t>(node.op));
  if (node.is_input()) h = hash_mix(h, static_cast<uint64_t>(input_ordinal));
  for (const auto& [key, attr] : node.attrs.raw()) {
    h = hash_string(key, h);
    h = hash_attr(attr, h);
  }
  h = hash_shape(node.out_shape, h);
  return hash_mix(h, static_cast<uint64_t>(node.out_dtype));
}

}  // namespace

uint64_t content_key(const Tensor& t) {
  DUET_CHECK(t.defined()) << "content key of an undefined tensor";
  const uint64_t typed = hash_shape(
      t.shape(), hash_mix(0, static_cast<uint64_t>(t.dtype())));
  if (const TensorRecipe* r = t.recipe()) {
    uint32_t stddev_bits = 0;
    std::memcpy(&stddev_bits, &r->stddev, sizeof(stddev_bits));
    uint64_t h = hash_mix(kRecipeTag, r->version);
    h = hash_mix(h, r->seed);
    h = hash_mix(h, r->stream);
    h = hash_mix(h, stddev_bits);
    return hash_mix(h, typed);
  }
  if (t.lazy()) return t.derivation_key();
  return hash_bytes(t.raw_data(), t.byte_size(), hash_mix(kPayloadTag, typed));
}

uint64_t derivation_key(uint64_t derivation, const std::vector<Tensor>& inputs) {
  uint64_t h = hash_mix(hash_mix(kDerivedTag, derivation), inputs.size());
  for (const Tensor& in : inputs) h = hash_mix(h, content_key(in));
  // A deferred tensor's key must be nonzero.
  return h != 0 ? h : kDerivedTag;
}

uint64_t derivation_key(const Node& node, const std::vector<Tensor>& inputs) {
  return derivation_key(hash_node(node, -1), inputs);
}

uint64_t hash_mix(uint64_t h, uint64_t v) {
  // boost::hash_combine's 64-bit shape with a splitmix-strengthened operand:
  // order-sensitive (positional inputs matter) and avalanche-complete.
  return (h ^ (splitmix(v) + kGolden + (h << 6) + (h >> 2))) * 0x100000001B3ull;
}

uint64_t hash_bytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ hash_mix(0, n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = hash_mix(h, word);
  }
  if (i < n) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, n - i);
    h = hash_mix(h, word);
  }
  return h;
}

size_t PayloadDigestMemo::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(hash_mix(
      hash_mix(reinterpret_cast<uintptr_t>(k.data), k.n), k.seed));
}

uint64_t PayloadDigestMemo::digest(const void* data, size_t n, uint64_t seed) {
  const auto [it, inserted] = digests_.try_emplace(Key{data, n, seed}, 0);
  if (inserted) {
    it->second = hash_payload(data, n, seed);
  } else {
    ++hits_;
  }
  return it->second;
}

std::string fingerprint_hex(uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

uint64_t fingerprint_names(const Graph& graph) {
  uint64_t h = hash_mix(0x4E414D4548415348ull, graph.num_nodes());
  for (const Node& node : graph.nodes()) h = hash_string(node.name, h);
  return h;
}

GraphFingerprint fingerprint_graph(const Graph& graph,
                                   PayloadDigestMemo* digests) {
  const size_t n = graph.num_nodes();
  // Per-node canonical hashes, structural and value-inclusive. nodes_ is
  // topological by construction (inputs must pre-exist), so every input hash
  // is final before its consumer needs it.
  std::vector<uint64_t> hs(n, 0);
  std::vector<uint64_t> hv(n, 0);

  // kInput identity = ordinal in the graph signature, not name or id.
  std::vector<int> input_ordinal(n, -1);
  {
    int ord = 0;
    for (NodeId id : graph.input_ids()) {
      input_ordinal[static_cast<size_t>(id)] = ord++;
    }
  }

  for (const Node& node : graph.nodes()) {
    const size_t i = static_cast<size_t>(node.id);
    uint64_t h = hash_node(node, input_ordinal[i]);
    uint64_t v = h;
    for (NodeId in : node.inputs) {
      DUET_CHECK_GE(in, 0);
      DUET_CHECK_LT(static_cast<size_t>(in), i) << "graph is not topological";
      h = hash_mix(h, hs[static_cast<size_t>(in)]);
      v = hash_mix(v, hv[static_cast<size_t>(in)]);
    }
    if (node.is_constant()) v = hash_constant(node.value, v, digests);
    hs[i] = h;
    hv[i] = v;
  }

  // Fold every node in commutatively (a graph may carry nodes outside the
  // output cone — no DCE in framework mode — and they still become kernels),
  // then the outputs positionally: the output tuple order is semantic.
  uint64_t acc_s = 0;
  uint64_t acc_v = 0;
  for (size_t i = 0; i < n; ++i) {
    acc_s += splitmix(hs[i]);
    acc_v += splitmix(hv[i]);
  }
  GraphFingerprint fp;
  fp.structural = hash_mix(hash_mix(0, n), acc_s);
  fp.values = hash_mix(hash_mix(0, n), acc_v);
  fp.structural = hash_mix(fp.structural, graph.outputs().size());
  fp.values = hash_mix(fp.values, graph.outputs().size());
  for (NodeId out : graph.outputs()) {
    fp.structural = hash_mix(fp.structural, hs[static_cast<size_t>(out)]);
    fp.values = hash_mix(fp.values, hv[static_cast<size_t>(out)]);
  }
  return fp;
}

}  // namespace duet
