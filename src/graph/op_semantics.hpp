#pragma once

// The op-semantics table: every op's output-shape contract and its flops /
// kernel-launch / byte formulas, written once as function templates over a
// context type and instantiated twice:
//
//   * ConcreteOps (below): Shape / int64_t dims, double flops, uint64_t bytes,
//     behind infer_node_type, node_flops, node_bytes, node_kernel_launches and
//     node_cost_quantities;
//   * the symbolic contexts in analysis/symbolic: SymShape / SymExpr dims and
//     costs, behind infer_symbolic and sym_node_cost.
//
// Specializing a symbolic result at a binding therefore agrees with the
// concrete result by construction, and adding an op is one arm per switch.
//
// A context `Ctx` supplies the only places the two paths differ:
//
//   using ShapeT, DimT, FlopsT, BytesT;
//   const Graph& graph() const;
//   const ShapeT& shape(const Node& t) const;     // t's already-inferred shape
//   ShapeT terminal(const Node& t);               // kInput / kConstant
//   bool ge(const DimT& a, const DimT& b) const;  // a >= b over the domain
//   bool gt(const DimT& a, const DimT& b) const;
//   bool divisible(const DimT& a, int64_t d) const;
//   // (in + 2p - k) / stride + 1 given numerator = in + 2p - k; nullopt
//   // when the extent is not expressible.
//   std::optional<DimT> pool_extent(const DimT& numerator, int64_t stride) const;
//   // A broken contract. `why()` renders the message and runs only here.
//   ShapeT fail(const Node& n, const Why& why);
//
// op_cost needs only the first three. Every cost formula is an integer
// polynomial of the dims: SymExpr costs are exact, and double flops equal
// them while the values stay below 2^53 (as they do for every zoo model).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "graph/graph.hpp"

namespace duet::op_semantics {

// Renders one part of a contract message: text, an integer, or a dim or
// shape of either instantiation.
template <typename T>
std::string str(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_convertible_v<const T&, std::string>) {
    return std::string(v);
  } else {
    return v.to_string();
  }
}

// Shape of input `i` of `n`.
template <typename Ctx>
const typename Ctx::ShapeT& input_shape(const Ctx& ctx, const Node& n, size_t i) {
  DUET_CHECK_LT(i, n.inputs.size()) << op_name(n.op) << " missing input " << i;
  return ctx.shape(ctx.graph().node(n.inputs[i]));
}

// Output shape of `n`, or ctx.fail(...) where the op's contract breaks.
template <typename Ctx>
typename Ctx::ShapeT output_shape(Ctx& ctx, const Node& n) {
  using S = typename Ctx::ShapeT;
  using D = typename Ctx::DimT;
  using Dims = std::vector<D>;
  const auto in = [&](size_t i) -> const S& { return input_shape(ctx, n, i); };
  // The message is the concatenation of `parts`, rendered only on failure.
  const auto fail = [&](const auto&... parts) {
    return ctx.fail(n, [&] { return (std::string() + ... + str(parts)); });
  };

  switch (n.op) {
    case OpType::kInput:
    case OpType::kConstant:
      return ctx.terminal(n);
    case OpType::kAdd:
    case OpType::kSub:
    case OpType::kMul: {
      const S& a = in(0);
      const S& b = in(1);
      if (a != b) return fail("operand shapes differ symbolically: ", a, " vs ", b);
      return a;
    }
    case OpType::kReLU:
    case OpType::kSigmoid:
    case OpType::kTanh:
    case OpType::kGelu:
    case OpType::kAddScalar:
    case OpType::kMulScalar:
    case OpType::kIdentity:
    case OpType::kSoftmax:
    case OpType::kElementwiseChain:
    case OpType::kLayerNorm:
    case OpType::kBatchNorm:
      return in(0);
    case OpType::kBiasAdd: {
      const S& x = in(0);
      const S& b = in(1);
      if (b.rank() != 1 || x.rank() == 0) {
        return fail("bias must be rank 1 against ranked input");
      }
      const D& features = x.dims().back();
      if (b.dim(0) != features) {
        return fail("bias width ", b.dim(0), " vs feature dim ", features);
      }
      return x;
    }
    case OpType::kMatMul: {
      const S& a = in(0);
      const S& b = in(1);
      if (a.rank() != 2 || b.rank() != 2) return fail("matmul operands must be rank 2");
      if (a.dim(1) != b.dim(0)) return fail("K mismatch: ", a.dim(1), " vs ", b.dim(0));
      return S(Dims{a.dim(0), b.dim(1)});
    }
    case OpType::kBatchMatMul: {
      const S& a = in(0);
      const S& b = in(1);
      if (a.rank() != 3) return fail("lhs must be rank 3");
      if (b.rank() != 2 && b.rank() != 3) return fail("rhs must be rank 2 or 3");
      return S(Dims{a.dim(0), a.dim(1), b.dims().back()});
    }
    case OpType::kDense: {
      const S& x = in(0);
      const S& w = in(1);
      if (x.rank() != 2 || w.rank() != 2) return fail("dense operands must be rank 2");
      if (x.dim(1) != w.dim(0)) {
        return fail("in-features mismatch: ", x.dim(1), " vs ", w.dim(0));
      }
      return S(Dims{x.dim(0), w.dim(1)});
    }
    case OpType::kConv2d: {
      const S& x = in(0);
      const S& w = in(1);
      if (x.rank() != 4 || w.rank() != 4) return fail("conv2d operands must be rank 4");
      if (x.dim(1) != w.dim(1)) {
        return fail("channel mismatch: ", x.dim(1), " vs ", w.dim(1));
      }
      const int64_t s = n.attrs.get_int_or("stride", 1);
      const int64_t p = n.attrs.get_int_or("padding", 0);
      if (s < 1) return fail("stride must be >= 1, got ", s);
      const std::optional<D> oh = ctx.pool_extent(x.dim(2) + D(2 * p) - w.dim(2), s);
      const std::optional<D> ow = ctx.pool_extent(x.dim(3) + D(2 * p) - w.dim(3), s);
      if (!oh || !ow) {
        return fail("spatial extent not divisible by stride ", s, " symbolically");
      }
      if (!ctx.gt(*oh, D(0)) || !ctx.gt(*ow, D(0))) {
        return fail("cannot prove conv output positive over domain");
      }
      return S(Dims{x.dim(0), w.dim(0), *oh, *ow});
    }
    case OpType::kMaxPool2d:
    case OpType::kAvgPool2d: {
      const S& x = in(0);
      if (x.rank() != 4) return fail("pool input must be rank 4");
      const int64_t k = n.attrs.get_int("kernel");
      const int64_t s = n.attrs.get_int_or("stride", k);
      const int64_t p = n.attrs.get_int_or("padding", 0);
      if (k < 1) return fail("kernel must be >= 1, got ", k);
      if (s < 1) return fail("stride must be >= 1, got ", s);
      const std::optional<D> oh = ctx.pool_extent(x.dim(2) + D(2 * p - k), s);
      const std::optional<D> ow = ctx.pool_extent(x.dim(3) + D(2 * p - k), s);
      if (!oh || !ow) {
        return fail("spatial extent not divisible by stride ", s, " symbolically");
      }
      return S(Dims{x.dim(0), x.dim(1), *oh, *ow});
    }
    case OpType::kGlobalAvgPool: {
      const S& x = in(0);
      if (x.rank() != 4) return fail("input must be rank 4");
      return S(Dims{x.dim(0), x.dim(1)});
    }
    case OpType::kLSTM:
    case OpType::kGRU: {
      const S& x = in(0);
      const S& whh = in(2);
      if (x.rank() != 3) return fail("rnn input must be rank 3");
      if (whh.rank() == 0) return fail("recurrent weight missing rank");
      return S(Dims{x.dim(0), x.dim(1), whh.dim(0)});
    }
    case OpType::kEmbedding: {
      const S& idx = in(0);
      const S& table = in(1);
      if (idx.rank() != 2 || table.rank() != 2) {
        return fail("embedding expects rank-2 indices and table");
      }
      return S(Dims{idx.dim(0), idx.dim(1), table.dim(1)});
    }
    case OpType::kReduceSum:
    case OpType::kReduceMean:
    case OpType::kReduceMax: {
      const S& x = in(0);
      const int64_t axis = n.attrs.get_int("axis");
      if (axis < 0 || static_cast<size_t>(axis) >= x.rank()) {
        return fail("reduce axis out of range");
      }
      Dims dims = x.dims();
      dims.erase(dims.begin() + axis);
      if (dims.empty()) dims.push_back(D(1));
      return S(std::move(dims));
    }
    case OpType::kArgMax: {
      const S& x = in(0);
      if (x.rank() == 0) return fail("argmax input must be ranked");
      Dims dims(x.dims().begin(), x.dims().end() - 1);
      if (dims.empty()) dims.push_back(D(1));
      return S(std::move(dims));
    }
    case OpType::kConcat: {
      if (n.inputs.empty()) return fail("concat needs inputs");
      const int64_t axis = n.attrs.get_int("axis");
      const S& first = in(0);
      if (axis < 0 || static_cast<size_t>(axis) >= first.rank()) {
        return fail("concat axis out of range");
      }
      D total(0);
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        const S& part = in(i);
        if (part.rank() != first.rank()) return fail("rank mismatch at input ", i);
        for (size_t d = 0; d < first.rank(); ++d) {
          if (static_cast<int64_t>(d) != axis && part.dim(d) != first.dim(d)) {
            return fail("non-axis dim mismatch at input ", i, ": ", part.dim(d),
                        " vs ", first.dim(d));
          }
        }
        total += part.dim(static_cast<size_t>(axis));
      }
      return first.with_dim(static_cast<size_t>(axis), total);
    }
    case OpType::kReshape: {
      const S& x = in(0);
      // The target dims are concrete attrs, so a symbolic numel never matches.
      S target(Shape(n.attrs.get_ints("dims")));
      if (x.numel() != target.numel()) {
        return fail("reshape to concrete dims folds symbolic numel ", x.numel());
      }
      return target;
    }
    case OpType::kFlatten: {
      const S& x = in(0);
      if (x.rank() == 0) return fail("flatten input must be ranked");
      // The product of the trailing dims, not numel / dim 0: a zero batch
      // flattens like any other.
      const S rest(Dims(x.dims().begin() + 1, x.dims().end()));
      return S(Dims{x.dim(0), rest.numel()});
    }
    case OpType::kTranspose2d: {
      const S& x = in(0);
      if (x.rank() != 2) return fail("transpose input must be rank 2");
      return S(Dims{x.dim(1), x.dim(0)});
    }
    case OpType::kSliceRows: {
      const S& x = in(0);
      if (x.rank() == 0) return fail("slice input must be ranked");
      const int64_t begin = n.attrs.get_int("begin");
      const int64_t end = n.attrs.get_int("end");
      if (!(begin >= 0 && begin < end)) return fail("bad slice bounds");
      if (!ctx.ge(x.dim(0), D(end))) {
        return fail("cannot prove end ", end, " <= rows ", x.dim(0), " over domain");
      }
      return x.with_dim(0, D(end - begin));
    }
    case OpType::kSeqLast: {
      const S& x = in(0);
      if (x.rank() != 3) return fail("seq-last input must be rank 3");
      return S(Dims{x.dim(0), x.dim(2)});
    }
    case OpType::kMultiHeadAttention: {
      const S& x = in(0);
      if (x.rank() != 3) return fail("attention input must be rank 3");
      const int64_t heads = n.attrs.get_int("heads");
      if (heads < 1) return fail("heads must be >= 1, got ", heads);
      if (!ctx.divisible(x.dim(2), heads)) {
        return fail("model dim ", x.dim(2), " not divisible by heads ", heads);
      }
      return x;
    }
  }
  return fail("unhandled op");
}

// Flops (multiply-add counted as 2), device kernel launches, and the bytes
// read from / written to memory (tensor traffic only) of one node, plus the
// two cost-model inputs that are not formulas.
template <typename Ctx>
struct OpCost {
  typename Ctx::FlopsT flops{};
  typename Ctx::DimT launches{};
  typename Ctx::BytesT read{};
  typename Ctx::BytesT written{};
  typename Ctx::DimT batch{1};  // out dim 0 (the roofline clamps it to >= 1)
  bool layout_tagged = false;   // a conv the layout pass rewrote
};

// Bytes of the tensor `t` produces.
template <typename Ctx>
typename Ctx::BytesT tensor_bytes(const Ctx& ctx, const Node& t) {
  using B = typename Ctx::BytesT;
  return static_cast<B>(ctx.shape(t).numel()) *
         static_cast<B>(static_cast<int64_t>(dtype_size(t.out_dtype)));
}

template <typename Ctx>
OpCost<Ctx> op_cost(const Ctx& ctx, const Node& n) {
  using S = typename Ctx::ShapeT;
  using D = typename Ctx::DimT;
  using F = typename Ctx::FlopsT;
  const auto in = [&](size_t i) -> const S& { return input_shape(ctx, n, i); };
  // A dim as a flop count: converted for concrete dims, referenced for
  // symbolic ones (which are already flop expressions).
  const auto f = [](const auto& d) -> decltype(auto) {
    if constexpr (std::is_same_v<std::decay_t<decltype(d)>, F>) {
      return d;
    } else {
      return static_cast<F>(d);
    }
  };

  OpCost<Ctx> c;
  for (NodeId id : n.inputs) c.read += tensor_bytes(ctx, ctx.graph().node(id));
  c.written = tensor_bytes(ctx, n);
  if (is_metadata_op(n.op)) return c;  // no flops, no launch
  c.launches = D(1);
  const S& out = ctx.shape(n);
  if (out.rank() > 0) c.batch = out.dim(0);
  c.layout_tagged = n.op == OpType::kConv2d && n.attrs.has("layout");
  const F numel_out = F(out.numel());
  switch (n.op) {
    case OpType::kEmbedding:
      // A pure gather: it reads only the selected rows, not the whole table.
      c.read = tensor_bytes(ctx, ctx.graph().node(n.inputs[0])) + c.written;
      break;
    case OpType::kMatMul:
      c.flops = F(2) * f(in(0).dim(0)) * f(in(0).dim(1)) * f(in(1).dim(1));
      break;
    case OpType::kDense:
      c.flops = F(2) * f(in(0).dim(0)) * f(in(1).dim(0)) * f(in(1).dim(1));
      break;
    case OpType::kBatchMatMul:
      c.flops = F(2) * F(in(0).numel()) * f(out.dim(2));
      break;
    case OpType::kConv2d: {
      // out elements * (2 * C * kh * kw), lowered im2col + gemm style.
      const S& w = in(1);
      c.flops = numel_out * F(2) * f(w.dim(1)) * f(w.dim(2)) * f(w.dim(3));
      c.launches = D(2);
      break;
    }
    case OpType::kLSTM:
    case OpType::kGRU: {
      const S& x = in(0);
      const D& hidden = out.dim(2);
      const bool lstm = n.op == OpType::kLSTM;
      // Per step: two GEMMs into 4H (LSTM) or 3H (GRU) gates + the gate
      // nonlinearities.
      const F per_step =
          F(2) * f(x.dim(0)) * F(lstm ? 4 : 3) * f(hidden) * f(x.dim(2) + hidden) +
          F(lstm ? 10 : 8) * f(x.dim(0)) * f(hidden);
      c.flops = per_step * f(x.dim(1));
      // Two GEMM launches + one fused pointwise launch per timestep; the
      // timestep loop cannot batch because of the recurrent dependence.
      c.launches = D(3) * x.dim(1);
      break;
    }
    case OpType::kMultiHeadAttention: {
      const S& x = in(0);
      const auto& b = f(x.dim(0));
      const auto& s = f(x.dim(1));
      const auto& m = f(x.dim(2));
      // qkv + out projections + 2 * (S x S x M) score/context matmuls.
      c.flops = F(2) * b * s * m * F(3) * m + F(2) * b * s * m * m +
                F(4) * b * s * s * m;
      c.launches = D(6);  // qkv, split, scores, softmax, context, out-proj
      break;
    }
    case OpType::kSoftmax:
    case OpType::kLayerNorm:
      c.flops = F(5) * numel_out;
      break;
    case OpType::kMaxPool2d:
    case OpType::kAvgPool2d: {
      const int64_t k = n.attrs.get_int("kernel");
      c.flops = numel_out * F(k * k);
      break;
    }
    case OpType::kGlobalAvgPool:
    case OpType::kReduceSum:
    case OpType::kReduceMean:
    case OpType::kReduceMax:
    case OpType::kArgMax:
      c.flops = F(in(0).numel());
      break;
    case OpType::kBatchNorm:
      c.flops = F(2) * numel_out;
      break;
    case OpType::kGelu:
      c.flops = F(8) * numel_out;
      break;
    case OpType::kSigmoid:
    case OpType::kTanh:
      c.flops = F(4) * numel_out;
      break;
    case OpType::kElementwiseChain: {
      const auto chain = n.attrs.get_string_or("chain", "");
      const int64_t ops = 1 + std::count(chain.begin(), chain.end(), ',');
      c.flops = F(4) * F(ops) * numel_out;
      break;
    }
    default:
      c.flops = numel_out;  // remaining elementwise / movement ops
      break;
  }
  return c;
}

// Throws the Error for a broken op contract: "<op> '<node>': <why>".
[[noreturn]] inline void throw_broken_contract(const Node& n, const std::string& why) {
  DUET_THROW(op_name(n.op) << " '" << n.name << "': " << why);
}

// The concrete instantiation: recorded shapes, plain comparisons, truncating
// pool division, and a thrown Error naming the op and node on failure.
class ConcreteOps {
 public:
  using ShapeT = Shape;
  using DimT = int64_t;
  using FlopsT = double;
  using BytesT = uint64_t;

  explicit ConcreteOps(const Graph& graph) : graph_(graph) {}

  const Graph& graph() const { return graph_; }
  const Shape& shape(const Node& t) const { return t.out_shape; }
  [[noreturn]] Shape terminal(const Node&) const {
    DUET_THROW("terminals carry explicit shapes; no inference");
  }
  bool ge(int64_t a, int64_t b) const { return a >= b; }
  bool gt(int64_t a, int64_t b) const { return a > b; }
  bool divisible(int64_t a, int64_t d) const { return a % d == 0; }
  std::optional<int64_t> pool_extent(int64_t numerator, int64_t stride) const {
    return numerator / stride + 1;
  }
  template <typename Why>
  [[noreturn]] Shape fail(const Node& n, const Why& why) const {
    throw_broken_contract(n, why());
  }

 private:
  const Graph& graph_;
};

}  // namespace duet::op_semantics
