#include "telemetry/chrome_trace.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace duet::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

ChromeTraceWriter::Arg ChromeTraceWriter::Arg::str(std::string key,
                                                   const std::string& value) {
  std::string quoted;
  const std::string escaped = json_escape(value);
  quoted.reserve(escaped.size() + 2);
  quoted += '"';
  quoted += escaped;
  quoted += '"';
  return {std::move(key), std::move(quoted)};
}

ChromeTraceWriter::Arg ChromeTraceWriter::Arg::integer(std::string key,
                                                       int64_t value) {
  return {std::move(key), std::to_string(value)};
}

namespace {

std::string metadata_event(const std::string& kind, int pid, int tid,
                           const std::string& name) {
  std::ostringstream os;
  os << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << json_escape(name)
     << "\"}}";
  return os.str();
}

}  // namespace

void ChromeTraceWriter::set_process_name(int pid, const std::string& name) {
  metadata_.push_back(metadata_event("process_name", pid, 0, name));
}

void ChromeTraceWriter::set_thread_name(int pid, int tid,
                                        const std::string& name) {
  metadata_.push_back(metadata_event("thread_name", pid, tid, name));
}

void ChromeTraceWriter::add_complete(const std::string& name,
                                     const std::string& cat, int pid, int tid,
                                     double ts_us, double dur_us,
                                     const std::vector<Arg>& args) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name.empty() ? "span" : name)
     << "\",\"cat\":\"" << json_escape(cat) << "\",\"ph\":\"X\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"ts\":" << json_number(ts_us)
     << ",\"dur\":" << json_number(dur_us);
  if (!args.empty()) {
    os << ",\"args\":{";
    bool first = true;
    for (const Arg& arg : args) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(arg.key) << "\":" << arg.json_value;
    }
    os << "}";
  }
  os << "}";
  events_.push_back(os.str());
}

void ChromeTraceWriter::add_flow(const std::string& name,
                                 const std::string& cat, int pid, int tid,
                                 double ts_us, uint64_t id, char phase) {
  const char ph = (phase == 's' || phase == 't' || phase == 'f') ? phase : 't';
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name.empty() ? "flow" : name)
     << "\",\"cat\":\"" << json_escape(cat) << "\",\"ph\":\"" << ph
     << "\",\"id\":" << id << ",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << json_number(ts_us);
  if (ph != 's') os << ",\"bp\":\"e\"";
  os << "}";
  events_.push_back(os.str());
}

std::string ChromeTraceWriter::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const std::string& e : metadata_) {
    if (!first) os << ",";
    first = false;
    os << e;
  }
  for (const std::string& e : events_) {
    if (!first) os << ",";
    first = false;
    os << e;
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

// --- minimal JSON validator ---------------------------------------------------

namespace {

struct JsonParser {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_string() {
    if (!consume('"')) return fail("expected string");
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos;
            if (pos >= text.size() ||
                std::isxdigit(static_cast<unsigned char>(text[pos])) == 0) {
              return fail("bad \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape character");
        }
      }
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_number() {
    const size_t start = pos;
    consume('-');
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
    if (consume('.')) {
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
        ++pos;
      }
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
        ++pos;
      }
    }
    if (pos == start) return fail("expected number");
    return true;
  }

  bool parse_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (!consume(*p)) return fail("bad literal");
    }
    return true;
  }

  bool parse_value(int depth) {
    if (depth > 256) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      skip_ws();
      if (consume('}')) return true;
      for (;;) {
        skip_ws();
        if (!parse_string()) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        if (!parse_value(depth + 1)) return false;
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      skip_ws();
      if (consume(']')) return true;
      for (;;) {
        if (!parse_value(depth + 1)) return false;
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
    }
    if (c == '"') return parse_string();
    if (c == 't') return parse_literal("true");
    if (c == 'f') return parse_literal("false");
    if (c == 'n') return parse_literal("null");
    return parse_number();
  }
};

}  // namespace

bool validate_json(const std::string& text, std::string* error) {
  JsonParser parser{text, 0, {}};
  const bool ok = parser.parse_value(0) &&
                  (parser.skip_ws(), parser.pos == text.size() ||
                                         parser.fail("trailing characters"));
  if (!ok && error != nullptr) *error = parser.error;
  return ok;
}

}  // namespace duet::telemetry
