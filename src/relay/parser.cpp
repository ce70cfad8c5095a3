// Recursive-descent parser for the textual Relay-like form (grammar in
// expr.hpp). The printer and parser are exact inverses, which the round-trip
// tests rely on.

#include <cctype>
#include <charconv>

#include "common/error.hpp"
#include "relay/relay.hpp"

namespace duet::relay {
namespace {

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    DUET_CHECK(pos_ < text_.size()) << "unexpected end of relay text";
    return text_[pos_];
  }

  void expect(char c) {
    skip_ws();
    DUET_CHECK(pos_ < text_.size() && text_[pos_] == c)
        << "expected '" << c << "' at offset " << pos_ << ", got '"
        << (pos_ < text_.size() ? text_.substr(pos_, 10) : "<eof>") << "'";
    ++pos_;
  }

  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_word(const std::string& word) {
    const std::string got = ident();
    DUET_CHECK(got == word) << "expected '" << word << "', got '" << got << "'";
  }

  std::string ident() {
    skip_ws();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == '-')) {
      ++pos_;
    }
    DUET_CHECK(pos_ > start) << "expected identifier at offset " << start;
    return text_.substr(start, pos_ - start);
  }

  std::string quoted_string() {
    expect('"');
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    DUET_CHECK(pos_ < text_.size()) << "unterminated string";
    const std::string s = text_.substr(start, pos_ - start);
    ++pos_;
    return s;
  }

  // Numeric literal text; sets *is_float when a '.' / exponent appears.
  std::string number(bool* is_float) {
    skip_ws();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool saw_float = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        saw_float = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      } else {
        break;
      }
    }
    DUET_CHECK(pos_ > start) << "expected number at offset " << start;
    *is_float = saw_float;
    return text_.substr(start, pos_ - start);
  }

  // An integer literal; a fractional or exponent literal is an error, and so
  // is one outside the int64 range.
  int64_t integer() {
    bool is_float = false;
    const std::string text = number(&is_float);
    DUET_CHECK(!is_float) << "expected an integer, got '" << text << "'";
    return to_int64(text);
  }

  static int64_t to_int64(const std::string& text) {
    const char* begin = text.data() + (text[0] == '+' ? 1 : 0);
    const char* end = text.data() + text.size();
    int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    DUET_CHECK(ec != std::errc::result_out_of_range)
        << "integer '" << text << "' is out of range";
    DUET_CHECK(ec == std::errc() && ptr == end)
        << "malformed integer '" << text << "'";
    return value;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

// Upper bound on the elements of one declared type. Constants are
// materialized at parse time, so an unchecked declaration would let one line
// of input allocate without limit. The largest paper-size zoo weight (VGG-16's
// first classifier layer) holds about 103M elements.
constexpr int64_t kMaxTypeElements = int64_t{1} << 28;

// `what` names the binding or parameter the type declares, for errors.
TensorType parse_type(Lexer& lex, const std::string& what) {
  lex.expect_word("Tensor");
  lex.expect('[');
  lex.expect('(');
  std::vector<int64_t> dims;
  int64_t elements = 1;
  if (!lex.accept(')')) {
    for (;;) {
      const int64_t dim = lex.integer();
      DUET_CHECK(dim >= 0) << "negative dimension in the type of %" << what;
      DUET_CHECK(dim == 0 || elements <= kMaxTypeElements / dim)
          << "type of %" << what << " declares more than " << kMaxTypeElements
          << " elements";
      elements *= dim;
      dims.push_back(dim);
      if (lex.accept(')')) break;
      lex.expect(',');
    }
  }
  lex.expect(',');
  const std::string dtype = lex.ident();
  lex.expect(']');
  TensorType t;
  t.shape = Shape(std::move(dims));
  if (dtype == "float32") {
    t.dtype = DType::kFloat32;
  } else if (dtype == "int32") {
    t.dtype = DType::kInt32;
  } else if (dtype == "int64") {
    t.dtype = DType::kInt64;
  } else if (dtype == "uint8") {
    t.dtype = DType::kUInt8;
  } else {
    DUET_THROW("unknown dtype in relay text: " << dtype);
  }
  return t;
}

AttrMap parse_attrs(Lexer& lex) {
  AttrMap attrs;
  if (!lex.accept('{')) return attrs;
  if (lex.accept('}')) return attrs;
  for (;;) {
    const std::string key = lex.ident();
    lex.expect('=');
    if (lex.peek() == '"') {
      attrs.set(key, lex.quoted_string());
    } else if (lex.accept('[')) {
      std::vector<int64_t> items;
      while (!lex.accept(']')) items.push_back(lex.integer());
      attrs.set(key, std::move(items));
    } else {
      bool is_float = false;
      const std::string v = lex.number(&is_float);
      if (is_float) {
        attrs.set(key, std::stod(v));
      } else {
        attrs.set(key, Lexer::to_int64(v));
      }
    }
    if (lex.accept('}')) break;
    lex.expect(',');
  }
  return attrs;
}

std::string parse_var(Lexer& lex) {
  lex.expect('%');
  return lex.ident();
}

}  // namespace

Module parse_module(const std::string& text,
                    const std::map<std::string, Tensor>* const_table) {
  Lexer lex(text);
  Module m;

  lex.expect_word("def");
  lex.expect('@');
  m.name = lex.ident();
  lex.expect('(');
  if (!lex.accept(')')) {
    for (;;) {
      Param p;
      p.var = parse_var(lex);
      lex.expect(':');
      p.type = parse_type(lex, p.var);
      m.params.push_back(std::move(p));
      if (lex.accept(')')) break;
      lex.expect(',');
    }
  }
  lex.expect('{');

  for (;;) {
    if (lex.peek() == '(') break;  // result tuple
    Binding b;
    b.var = parse_var(lex);
    lex.expect('=');
    const std::string head = lex.ident();
    if (head == "constant") {
      b.kind = Binding::Kind::kConstant;
      b.constant.type = parse_type(lex, b.var);
      b.type = b.constant.type;
      if (const_table != nullptr) {
        auto it = const_table->find(b.var);
        if (it != const_table->end()) {
          DUET_CHECK(it->second.shape() == b.constant.type.shape)
              << "const table shape mismatch for %" << b.var;
          b.constant.value = it->second;
        }
      }
      if (!b.constant.value.defined()) {
        b.constant.value = Tensor::zeros(b.constant.type.shape, b.constant.type.dtype);
      }
    } else {
      b.kind = Binding::Kind::kCall;
      b.call.op = op_from_name(head);
      lex.expect('(');
      if (!lex.accept(')')) {
        for (;;) {
          b.call.args.push_back(parse_var(lex));
          if (lex.accept(')')) break;
          lex.expect(',');
        }
      }
      b.call.attrs = parse_attrs(lex);
    }
    lex.expect(';');
    m.bindings.push_back(std::move(b));
  }

  lex.expect('(');
  for (;;) {
    m.outputs.push_back(parse_var(lex));
    if (lex.accept(')')) break;
    lex.expect(',');
  }
  lex.expect('}');

  // Every output must name a param or a binding.
  for (const VarName& out : m.outputs) {
    bool bound = m.find(out) != nullptr;
    for (const Param& p : m.params) bound |= p.var == out;
    DUET_CHECK(bound) << "output %" << out << " is unbound";
  }
  return m;
}

}  // namespace duet::relay
