#include "service/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/text_cursor.hpp"

namespace hidap {

namespace {

bool parse_string(TextCursor& c, std::string& out, std::string& error) {
  if (!c.consume('"')) {
    error = "expected '\"'";
    return false;
  }
  out.clear();
  while (true) {
    if (c.done()) {
      error = "unterminated string";
      return false;
    }
    const char ch = c.take();
    if (ch == '"') return true;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    const char esc = c.take();
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // Only the escaped-ASCII subset we emit ourselves: \u00XX.
        int code = -1;
        parse_number(c.rest().substr(0, 4), code, 16);
        for (int i = 0; i < 4; ++i) c.take();
        if (code < 0 || code > 0x7f) {
          error = "unsupported \\u escape (only \\u0000..\\u007f)";
          return false;
        }
        out.push_back(static_cast<char>(code));
        break;
      }
      default:
        error = "bad escape";
        return false;
    }
  }
}

bool parse_value(TextCursor& c, JsonValue& out, std::string& error) {
  c.skip_ws();
  const char ch = c.peek();
  if (ch == '"') {
    out.kind = JsonValue::Kind::String;
    return parse_string(c, out.str, error);
  }
  if (ch == '{' || ch == '[') {
    error = "nested objects/arrays are not part of the line protocol";
    return false;
  }  // one level of object nesting is handled by the caller (dotted keys)
  if (c.consume_word("true")) {
    out.kind = JsonValue::Kind::Boolean;
    out.boolean = true;
    return true;
  }
  if (c.consume_word("false")) {
    out.kind = JsonValue::Kind::Boolean;
    out.boolean = false;
    return true;
  }
  if (c.consume_word("null")) {
    out.kind = JsonValue::Kind::Null;
    return true;
  }
  // Numbers are scanned as one token and parsed whole by the shared
  // locale-free parse_number, which rejects inf/nan spellings too.
  if (ch == '-' || ascii::is_digit(ch)) {
    const std::string_view token = c.take_while(ascii::is_number_char);
    const std::errc ec = parse_number(token, out.num);
    if (ec == std::errc::result_out_of_range) {
      error = "number out of range";
      return false;
    }
    if (ec != std::errc{}) {
      error = "bad number '" + std::string(token) + "'";
      return false;
    }
    out.kind = JsonValue::Kind::Number;
    return true;
  }
  error = "expected a value";
  return false;
}

// The members of one object, the cursor just past its '{'. Keys land in
// `out` behind `prefix`. While `prefix` is empty, one nested object of
// flat values is flattened into dotted keys ({"args":{"chain":2}} =>
// "args.chain" = 2); deeper nesting falls through to parse_value's
// rejection.
bool parse_members(TextCursor& c, const std::string& prefix, JsonObject& out,
                   std::string& error) {
  if (c.consume('}')) return true;
  while (true) {
    std::string key;
    if (!parse_string(c, key, error)) return false;
    if (!c.consume(':')) {
      error = "expected ':'";
      return false;
    }
    key.insert(0, prefix);
    if (prefix.empty() && c.consume('{')) {
      if (!parse_members(c, key + ".", out, error)) return false;
    } else {
      JsonValue value;
      if (!parse_value(c, value, error)) return false;
      out[key] = std::move(value);
    }
    if (c.consume(',')) continue;
    if (c.consume('}')) return true;
    error = "expected ',' or '}'";
    return false;
  }
}

}  // namespace

bool parse_json_object(std::string_view text, JsonObject& out, std::string& error) {
  out.clear();
  TextCursor c(text);
  if (!c.consume('{')) {
    error = "expected '{'";
    return false;
  }
  if (!parse_members(c, "", out, error)) return false;
  c.skip_ws();
  if (!c.done()) {
    error = "trailing characters";
    return false;
  }
  return true;
}

std::string json_string(const JsonObject& obj, const std::string& key,
                        const std::string& fallback) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::String ? it->second.str
                                                                       : fallback;
}

double json_number(const JsonObject& obj, const std::string& key, double fallback) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::Number ? it->second.num
                                                                       : fallback;
}

bool json_bool(const JsonObject& obj, const JsonObject::key_type& key, bool fallback) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::Boolean
             ? it->second.boolean
             : fallback;
}

bool json_has(const JsonObject& obj, const std::string& key) {
  return obj.find(key) != obj.end();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

void JsonWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonWriter& JsonWriter::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::num(std::string_view k, double value) {
  key(k);
  // "%.17g" emitted "inf"/"nan" (invalid JSON) and is locale-sensitive;
  // to_chars is shortest-round-trip and locale-free. Non-finite values
  // have no JSON encoding, so they degrade to null.
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
#if defined(__cpp_lib_to_chars)
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), value);
  body_.append(buf, static_cast<std::size_t>(res.ptr - buf));
#else
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
#endif
  return *this;
}

JsonWriter& JsonWriter::num(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

}  // namespace hidap
