#include "analysis/symbolic/sym_shape_inference.hpp"

#include <set>
#include <utility>

#include "common/error.hpp"
#include "graph/op_semantics.hpp"

namespace duet::symbolic {
namespace {

constexpr const char* kRuleShapeContract = "symbolic-shape-contract";
constexpr const char* kRuleUnboundedDim = "unbounded-dim";

// The symbolic context of the op-semantics table (graph/op_semantics.hpp):
// SymShape dims, comparisons provable over the domain, exact division for
// symbolic pool extents, and a warning plus fallback where a contract breaks.
class Inference {
 public:
  using ShapeT = SymShape;
  using DimT = SymExpr;

  Inference(const Graph& graph, const SymbolicOptions& options)
      : graph_(graph), options_(options) {
    result_.batch_symbol = options.batch_symbol;
    result_.domain = options.domain;
    if (result_.domain.empty() && !options.batch_symbol.empty()) {
      result_.domain[options.batch_symbol] = SymRange{1, 64};
    }
  }

  SymbolicShapes run() {
    result_.shapes.reserve(graph_.num_nodes());
    result_.dtypes.reserve(graph_.num_nodes());
    for (const Node& n : graph_.nodes()) {
      result_.dtypes.push_back(n.out_dtype);
      result_.shapes.push_back(op_semantics::output_shape(*this, n));
    }
    check_domain_coverage();
    result_.diagnostics.attribute("symbolic-inference");
    result_.diagnostics.set_artifact(graph_.name());
    return std::move(result_);
  }

  const Graph& graph() const { return graph_; }

  // The symbolic shape of `t` (already inferred: node inputs precede the
  // node in the table by construction).
  const SymShape& shape(const Node& t) const {
    DUET_CHECK(t.id >= 0 && static_cast<size_t>(t.id) < result_.shapes.size())
        << "input id out of inference order";
    return result_.shapes[static_cast<size_t>(t.id)];
  }

  SymShape terminal(const Node& n) {
    return n.is_input() ? input_shape(n) : SymShape(n.out_shape);
  }

  bool ge(const SymExpr& a, const SymExpr& b) const {
    return provably_ge(a, b, result_.domain);
  }
  bool gt(const SymExpr& a, const SymExpr& b) const {
    return provably_gt(a, b, result_.domain);
  }
  bool divisible(const SymExpr& a, int64_t d) const {
    return a.divided_by(d).has_value();
  }

  // Floor division exactly as the concrete pass when the numerator is
  // constant; exact polynomial division (or nullopt) otherwise.
  std::optional<SymExpr> pool_extent(const SymExpr& numerator,
                                     int64_t stride) const {
    if (numerator.is_constant()) {
      return SymExpr{numerator.constant_value() / stride + 1};
    }
    auto q = numerator.divided_by(stride);
    if (!q) return std::nullopt;
    return *q + SymExpr{1};
  }

  // Records a symbolic-shape-contract finding and falls back to the node's
  // recorded concrete shape so inference continues whole-graph. The fallback
  // deliberately drops symbols: downstream consumers see a constant shape,
  // which keeps specialization consistent with what the runtime would do
  // after re-tracing at a concrete batch.
  template <typename Why>
  SymShape fail(const Node& n, const Why& why) {
    result_.diagnostics.warning(kRuleShapeContract, n.id,
                                std::string(op_name(n.op)) + " '" + n.name +
                                    "': " + why());
    return SymShape(n.out_shape);
  }

 private:
  // Emits unbounded-dim once per offending symbol.
  void note_unbounded(const Node& n, const SymExpr& dim) {
    for (const std::string& sym : dim.symbols()) {
      if (result_.domain.count(sym) != 0 || !reported_unbounded_.insert(sym).second) {
        continue;
      }
      result_.diagnostics.warning(
          kRuleUnboundedDim, n.id,
          "symbol '" + sym + "' in dim " + dim.to_string() +
              " has no declared range; bounds and crossover analysis are "
              "unbounded");
    }
  }

  // After the walk: any domain symbol whose declared range saturates a
  // shape's bounds is as good as unbounded — surface it.
  void check_domain_coverage() {
    for (size_t id = 0; id < result_.shapes.size(); ++id) {
      for (const SymExpr& d : result_.shapes[id].dims()) {
        if (d.is_constant()) continue;
        const SymExpr::Interval b = d.bounds(result_.domain);
        bool missing = false;
        for (const std::string& sym : d.symbols()) {
          missing |= result_.domain.count(sym) == 0;
        }
        if (!b.bounded && !missing && reported_saturated_.insert(id).second) {
          result_.diagnostics.warning(
              kRuleUnboundedDim, static_cast<NodeId>(id),
              "dim " + d.to_string() +
                  " overflows int64 over the declared domain");
        }
      }
    }
  }

  SymShape input_shape(const Node& n) {
    SymShape s(n.out_shape);
    if (!options_.batch_symbol.empty() && options_.batch_dim < s.rank()) {
      s = s.with_dim(options_.batch_dim, SymExpr::symbol(options_.batch_symbol));
    }
    const auto it = options_.input_dims.find(n.name);
    if (it != options_.input_dims.end()) {
      for (const auto& [dim, sym] : it->second) {
        if (dim < s.rank()) s = s.with_dim(dim, SymExpr::symbol(sym));
      }
    }
    for (const SymExpr& d : s.dims()) note_unbounded(n, d);
    return s;
  }

  const Graph& graph_;
  const SymbolicOptions& options_;
  SymbolicShapes result_;
  std::set<std::string> reported_unbounded_;
  std::set<size_t> reported_saturated_;
};

}  // namespace

bool SymbolicShapes::has(const std::string& rule) const {
  for (const Diagnostic& d : diagnostics.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

SymbolicShapes infer_symbolic(const Graph& graph,
                              const SymbolicOptions& options) {
  return Inference(graph, options).run();
}

}  // namespace duet::symbolic
