#include "analysis/symbolic/sym_expr.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace duet::symbolic {
namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

int64_t checked_add(int64_t a, int64_t b) {
  int64_t out = 0;
  DUET_CHECK(!__builtin_add_overflow(a, b, &out))
      << "SymExpr coefficient overflow: " << a << " + " << b;
  return out;
}

int64_t checked_mul(int64_t a, int64_t b) {
  int64_t out = 0;
  DUET_CHECK(!__builtin_mul_overflow(a, b, &out))
      << "SymExpr coefficient overflow: " << a << " * " << b;
  return out;
}

// Saturating arithmetic for interval bounds: a bound past int64 is reported
// as unbounded by the caller instead of wrapping.
int64_t sat_add(int64_t a, int64_t b, bool* exact) {
  int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    *exact = false;
    return (a > 0) == (b > 0) && a < 0 ? kInt64Min : kInt64Max;
  }
  return out;
}

int64_t sat_mul(int64_t a, int64_t b, bool* exact) {
  int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    *exact = false;
    return ((a > 0) == (b > 0)) ? kInt64Max : kInt64Min;
  }
  return out;
}

Monomial merge_monomials(const Monomial& a, const Monomial& b) {
  Monomial out;
  auto ia = a.factors.begin();
  auto ib = b.factors.begin();
  while (ia != a.factors.end() || ib != b.factors.end()) {
    if (ib == b.factors.end() || (ia != a.factors.end() && ia->first < ib->first)) {
      out.factors.push_back(*ia++);
    } else if (ia == a.factors.end() || ib->first < ia->first) {
      out.factors.push_back(*ib++);
    } else {
      out.factors.emplace_back(ia->first, ia->second + ib->second);
      ++ia;
      ++ib;
    }
  }
  return out;
}

}  // namespace

int Monomial::degree_of(const std::string& symbol) const {
  for (const auto& [name, exp] : factors) {
    if (name == symbol) return exp;
  }
  return 0;
}

int Monomial::total_degree() const {
  int total = 0;
  for (const auto& [name, exp] : factors) total += exp;
  return total;
}

bool Monomial::operator<(const Monomial& other) const {
  return factors < other.factors;
}

SymExpr::SymExpr(int64_t constant) {
  if (constant != 0) terms_.emplace(Monomial{}, constant);
}

SymExpr SymExpr::symbol(const std::string& name) {
  DUET_CHECK(!name.empty()) << "symbol name must be non-empty";
  SymExpr e;
  Monomial m;
  m.factors.emplace_back(name, 1);
  e.terms_.emplace(std::move(m), 1);
  return e;
}

bool SymExpr::is_constant() const {
  return terms_.empty() ||
         (terms_.size() == 1 && terms_.begin()->first.factors.empty());
}

int64_t SymExpr::constant_value() const {
  DUET_CHECK(is_constant()) << "not a constant: " << to_string();
  return terms_.empty() ? 0 : terms_.begin()->second;
}

SymExpr SymExpr::operator+(const SymExpr& other) const {
  SymExpr out = *this;
  out += other;
  return out;
}

SymExpr& SymExpr::operator+=(const SymExpr& other) {
  for (const auto& [mono, coeff] : other.terms_) {
    const auto it = terms_.find(mono);
    if (it == terms_.end()) {
      terms_.emplace(mono, coeff);
      continue;
    }
    it->second = checked_add(it->second, coeff);
    if (it->second == 0) terms_.erase(it);
  }
  return *this;
}

SymExpr SymExpr::operator-(const SymExpr& other) const {
  SymExpr negated;
  for (const auto& [mono, coeff] : other.terms_) {
    DUET_CHECK(coeff != kInt64Min) << "SymExpr coefficient overflow on negate";
    negated.terms_.emplace(mono, -coeff);
  }
  SymExpr out = *this;
  out += negated;
  return out;
}

SymExpr SymExpr::operator*(const SymExpr& other) const {
  SymExpr out;
  for (const auto& [ma, ca] : terms_) {
    for (const auto& [mb, cb] : other.terms_) {
      const Monomial mono = merge_monomials(ma, mb);
      const int64_t coeff = checked_mul(ca, cb);
      const auto it = out.terms_.find(mono);
      if (it == out.terms_.end()) {
        out.terms_.emplace(mono, coeff);
      } else {
        it->second = checked_add(it->second, coeff);
        if (it->second == 0) out.terms_.erase(it);
      }
    }
  }
  return out;
}

SymExpr& SymExpr::operator*=(const SymExpr& other) {
  *this = *this * other;
  return *this;
}

std::optional<SymExpr> SymExpr::divided_by(int64_t divisor) const {
  DUET_CHECK_GT(divisor, 0) << "SymExpr division by a non-positive constant";
  SymExpr out;
  for (const auto& [mono, coeff] : terms_) {
    if (coeff % divisor != 0) return std::nullopt;
    out.terms_.emplace(mono, coeff / divisor);
  }
  return out;
}

int64_t SymExpr::eval(const SymBindings& bindings) const {
  int64_t total = 0;
  for (const auto& [mono, coeff] : terms_) {
    int64_t term = coeff;
    for (const auto& [name, exp] : mono.factors) {
      const auto it = bindings.find(name);
      DUET_CHECK(it != bindings.end()) << "unbound symbol " << name << " in "
                                       << to_string();
      for (int e = 0; e < exp; ++e) term = checked_mul(term, it->second);
    }
    total = checked_add(total, term);
  }
  return total;
}

SymExpr::Interval SymExpr::bounds(const SymDomain& domain) const {
  Interval out;
  bool exact = true;
  for (const auto& [mono, coeff] : terms_) {
    // Symbol ranges are non-negative, so each monomial's magnitude is
    // monotone: its range is [prod(lo), prod(hi)] scaled by the coefficient.
    int64_t mono_lo = 1;
    int64_t mono_hi = 1;
    for (const auto& [name, exp] : mono.factors) {
      const auto it = domain.find(name);
      if (it == domain.end()) {
        out.bounded = false;
        return out;
      }
      DUET_CHECK_GE(it->second.lo, 0) << "symbol " << name << " range negative";
      DUET_CHECK_LE(it->second.lo, it->second.hi)
          << "symbol " << name << " range inverted";
      for (int e = 0; e < exp; ++e) {
        mono_lo = sat_mul(mono_lo, it->second.lo, &exact);
        mono_hi = sat_mul(mono_hi, it->second.hi, &exact);
      }
    }
    const int64_t term_lo = sat_mul(coeff, coeff > 0 ? mono_lo : mono_hi, &exact);
    const int64_t term_hi = sat_mul(coeff, coeff > 0 ? mono_hi : mono_lo, &exact);
    out.lo = sat_add(out.lo, term_lo, &exact);
    out.hi = sat_add(out.hi, term_hi, &exact);
  }
  out.bounded = exact;
  return out;
}

int SymExpr::degree(const std::string& symbol) const {
  int deg = 0;
  for (const auto& [mono, coeff] : terms_) {
    deg = std::max(deg, mono.degree_of(symbol));
  }
  return deg;
}

std::vector<std::string> SymExpr::symbols() const {
  std::vector<std::string> out;
  for (const auto& [mono, coeff] : terms_) {
    for (const auto& [name, exp] : mono.factors) {
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string SymExpr::to_string() const {
  if (terms_.empty()) return "0";
  // Highest total degree first, then the canonical monomial order.
  std::vector<const std::pair<const Monomial, int64_t>*> ordered;
  ordered.reserve(terms_.size());
  for (const auto& term : terms_) ordered.push_back(&term);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto* a, const auto* b) {
                     return a->first.total_degree() > b->first.total_degree();
                   });
  std::ostringstream os;
  bool first = true;
  for (const auto* term : ordered) {
    const auto& [mono, coeff] = *term;
    if (!first) os << (coeff < 0 ? " - " : " + ");
    const int64_t magnitude = first ? coeff : (coeff < 0 ? -coeff : coeff);
    first = false;
    if (mono.factors.empty()) {
      os << magnitude;
      continue;
    }
    bool printed = false;
    if (magnitude != 1) {
      os << magnitude;
      printed = true;
    }
    for (const auto& [name, exp] : mono.factors) {
      if (printed) os << "*";
      os << name;
      if (exp > 1) os << "^" << exp;
      printed = true;
    }
  }
  return os.str();
}

bool provably_ge(const SymExpr& lhs, const SymExpr& rhs, const SymDomain& domain) {
  const SymExpr::Interval diff = (lhs - rhs).bounds(domain);
  return diff.bounded && diff.lo >= 0;
}

bool provably_gt(const SymExpr& lhs, const SymExpr& rhs, const SymDomain& domain) {
  const SymExpr::Interval diff = (lhs - rhs).bounds(domain);
  return diff.bounded && diff.lo > 0;
}

SymShape::SymShape(const Shape& shape) {
  dims_.reserve(shape.rank());
  for (int64_t d : shape.dims()) dims_.emplace_back(d);
}

const SymExpr& SymShape::dim(size_t i) const {
  DUET_CHECK_LT(i, dims_.size()) << "symbolic shape dim out of range";
  return dims_[i];
}

SymExpr SymShape::numel() const {
  SymExpr n{1};
  for (const SymExpr& d : dims_) n *= d;
  return n;
}

bool SymShape::is_constant() const {
  for (const SymExpr& d : dims_) {
    if (!d.is_constant()) return false;
  }
  return true;
}

SymShape SymShape::with_dim(size_t i, SymExpr value) const {
  DUET_CHECK_LT(i, dims_.size());
  std::vector<SymExpr> d = dims_;
  d[i] = std::move(value);
  return SymShape(std::move(d));
}

Shape SymShape::at(const SymBindings& bindings) const {
  std::vector<int64_t> dims;
  dims.reserve(dims_.size());
  for (const SymExpr& d : dims_) dims.push_back(d.eval(bindings));
  return Shape(std::move(dims));
}

std::string SymShape::to_string() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i].to_string();
  }
  os << "]";
  return os.str();
}

}  // namespace duet::symbolic
