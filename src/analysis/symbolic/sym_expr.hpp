#pragma once

// Symbolic dimension/cost expressions (ISSUE 7 tentpole, part 1). A SymExpr
// is a multivariate polynomial over named symbols (e.g. the batch dimension
// `B`, a sequence length `T`) with int64 coefficients — "affine plus
// product": closed under the +, -, * that shape inference and FLOP counting
// need, with exact division by a constant for the few contracts (strided
// pooling, head split) that divide. Expressions are kept in canonical form
// (sorted monomials, no zero coefficients), so structural equality IS
// semantic equality, which is what the symbolic shape-inference pass uses to
// prove dim contracts.
//
// All coefficient arithmetic is overflow-checked (a scheduler that silently
// wraps a byte count is worse than one that throws); interval bounds over a
// symbol domain saturate instead, and report unboundedness so the
// `unbounded-dim` lint rule can fire rather than a bogus number propagating.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tensor/shape.hpp"

namespace duet::symbolic {

// Concrete values for symbols ("B" -> 32). Evaluation throws on a symbol
// missing from the binding.
using SymBindings = std::map<std::string, int64_t>;

// Inclusive integer range a symbol may take.
struct SymRange {
  int64_t lo = 1;
  int64_t hi = 1;
};

// Declared ranges per symbol ("B" -> [1, 64]). Symbols absent from the
// domain are unbounded.
using SymDomain = std::map<std::string, SymRange>;

// Product of symbol powers, e.g. B*T^2. The factor list is sorted by symbol
// name with exponents >= 1; the empty monomial is the constant term.
struct Monomial {
  std::vector<std::pair<std::string, int>> factors;

  int degree_of(const std::string& symbol) const;
  int total_degree() const;
  bool operator==(const Monomial& other) const { return factors == other.factors; }
  bool operator<(const Monomial& other) const;
};

class SymExpr {
 public:
  SymExpr() = default;  // zero
  SymExpr(int64_t constant);  // NOLINT(google-explicit-constructor): dims convert
  static SymExpr symbol(const std::string& name);

  bool is_zero() const { return terms_.empty(); }
  bool is_constant() const;
  // Throws unless is_constant().
  int64_t constant_value() const;

  SymExpr operator+(const SymExpr& other) const;
  SymExpr operator-(const SymExpr& other) const;
  SymExpr operator*(const SymExpr& other) const;
  SymExpr& operator+=(const SymExpr& other);
  SymExpr& operator*=(const SymExpr& other);
  bool operator==(const SymExpr& other) const { return terms_ == other.terms_; }
  bool operator!=(const SymExpr& other) const { return !(*this == other); }

  // Exact division by a positive constant (a stride, a head count): nullopt
  // unless every coefficient divides, i.e. the quotient has integer
  // coefficients.
  std::optional<SymExpr> divided_by(int64_t divisor) const;

  // Exact value at a full binding. Throws on an unbound symbol or int64
  // overflow anywhere in the evaluation.
  int64_t eval(const SymBindings& bindings) const;

  // Interval bounds over `domain`, assuming every symbol range is
  // non-negative. `bounded` is false when a symbol has no declared range or
  // the bound saturates int64.
  struct Interval {
    int64_t lo = 0;
    int64_t hi = 0;
    bool bounded = true;
  };
  Interval bounds(const SymDomain& domain) const;

  // Highest power of `symbol` across all terms (0 when absent) — the
  // asymptotic growth order the transfer-blowup rule compares.
  int degree(const std::string& symbol) const;
  // Every symbol referenced, sorted.
  std::vector<std::string> symbols() const;

  // Canonical rendering, highest total degree first: "2*B*T + 4*B + 128".
  std::string to_string() const;

 private:
  // Canonical form: monomial -> nonzero coefficient.
  std::map<Monomial, int64_t> terms_;
};

// True when `lhs >= rhs` (resp. >) holds for every point of `domain`;
// conservative: false when the difference's bounds are unknown.
bool provably_ge(const SymExpr& lhs, const SymExpr& rhs, const SymDomain& domain);
bool provably_gt(const SymExpr& lhs, const SymExpr& rhs, const SymDomain& domain);

// A tensor shape whose dims are symbolic expressions.
class SymShape {
 public:
  SymShape() = default;
  explicit SymShape(std::vector<SymExpr> dims) : dims_(std::move(dims)) {}
  // Lifts a concrete shape (every dim a constant expression).
  explicit SymShape(const Shape& shape);

  size_t rank() const { return dims_.size(); }
  const SymExpr& dim(size_t i) const;
  const std::vector<SymExpr>& dims() const { return dims_; }

  // Product of all dims (1 for rank 0, mirroring Shape::numel).
  SymExpr numel() const;
  bool is_constant() const;

  bool operator==(const SymShape& other) const { return dims_ == other.dims_; }
  bool operator!=(const SymShape& other) const { return !(*this == other); }

  SymShape with_dim(size_t i, SymExpr value) const;

  // Exact concrete shape at a binding (throws like SymExpr::eval; also on a
  // negative dim, which would mean the binding left the declared domain).
  Shape at(const SymBindings& bindings) const;

  // "[B, 256]"
  std::string to_string() const;

 private:
  std::vector<SymExpr> dims_;
};

}  // namespace duet::symbolic
