#pragma once

// Canonical content-addressed fingerprints for graphs. Two fingerprints are
// computed in one traversal:
//
//  * `structural` — topology, op types, attributes, shapes and dtypes. Node
//    names and node ids do NOT participate, so isomorphic relabelings of the
//    same computation hash identically. This keys everything whose result
//    depends only on the *shape* of the computation: modeled per-kernel
//    costs, and therefore profiling statistics.
//  * `values` — `structural` plus the content of every constant: a
//    recipe-backed constant's recipe and a deferred constant's derivation key
//    (tensor/tensor.hpp), each under its own domain tag and without reading
//    a byte, or a payload-backed constant's bytes under a third tag. This
//    keys numerically-executable artifacts (CompiledSubgraph embeds the
//    weight tensors), where two structurally identical subgraphs with
//    different weights must not share a cache entry.
//
// Hashing walks nodes in stored order (topological by construction: inputs
// must pre-exist) and memoizes a hash per node; a node's hash mixes its op,
// attrs, output shape/dtype and the hashes of its inputs *positionally*, so
// add(a, a) and add(a, b) differ. kInput nodes mix in their ordinal in
// input_ids() order — the graph's signature — instead of their name.
//
// Hashing constant payloads is the whole cost of a fingerprint of a model
// whose weights are payloads (a Relay import). A PayloadDigestMemo shared
// across the fingerprints of a model and of the subgraphs partitioned out of
// it (whose constants alias the model's buffers) hashes each payload once.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace duet {

struct GraphFingerprint {
  uint64_t structural = 0;
  uint64_t values = 0;

  bool operator==(const GraphFingerprint& o) const {
    return structural == o.structural && values == o.values;
  }
};

// Digests of constant payloads, keyed by (payload address, byte size,
// seed). The seed is the constant node's own hash; a constant has no inputs,
// so the seed is the same in a whole model and in every subgraph that
// aliases its buffer, and a hit returns exactly what hash_bytes would.
//
// The memo does not own the payloads: its owner must keep every buffer it
// has seen alive while the memo lives, or a freed address could come back
// holding different bytes. DuetEngine's constructor owns one; the model and
// its partition keep the buffers alive. Not thread-safe.
class PayloadDigestMemo {
 public:
  // hash_bytes(data, n, seed), computed at most once per (data, n, seed).
  uint64_t digest(const void* data, size_t n, uint64_t seed);

  size_t size() const { return digests_.size(); }
  uint64_t hits() const { return hits_; }

 private:
  struct Key {
    const void* data = nullptr;
    size_t n = 0;
    uint64_t seed = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  std::unordered_map<Key, uint64_t, KeyHash> digests_;
  uint64_t hits_ = 0;
};

// `digests`, when given, serves repeated payloads from the memo; the result
// is bit-identical either way.
GraphFingerprint fingerprint_graph(const Graph& graph,
                                   PayloadDigestMemo* digests = nullptr);

// Positional hash of every node name (in stored order) plus the output list.
// Names are deliberately excluded from the two fingerprints above, but a
// CompiledSubgraph embeds them (the plan matches feeds by input name), so the
// compile cache folds this in on top of `values`: renamed twins miss the
// compile cache yet still share profiling stats.
uint64_t fingerprint_names(const Graph& graph);

// Identity of a tensor's bytes: a recipe-backed tensor's recipe (generator
// version, seed, stream, stddev) with its shape and dtype under the recipe
// tag, a deferred tensor's derivation key, or a plain tensor's bytes under
// the payload tag. Reads bytes only for a plain tensor, and counts none of
// them in graph.fingerprint.payload_bytes.
uint64_t content_key(const Tensor& t);

// Key of a deferred constant: `derivation`, a hash naming what a pass
// computes, mixed under the derivation tag with the content keys of the
// tensors it is computed from, positionally.
uint64_t derivation_key(uint64_t derivation, const std::vector<Tensor>& inputs);
// The same with `node`'s op, attributes, output shape and dtype as the
// derivation: the key of evaluating `node` on constant `inputs`.
uint64_t derivation_key(const Node& node, const std::vector<Tensor>& inputs);

// 64-bit combine / bytes hash shared by the cache-key builders.
uint64_t hash_mix(uint64_t h, uint64_t v);
uint64_t hash_bytes(const void* data, size_t n, uint64_t seed = 0);

// 16-hex-digit rendering (disk-cache keys, diagnostics).
std::string fingerprint_hex(uint64_t fp);

}  // namespace duet
