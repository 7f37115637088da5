#pragma once
// The one text scanner every reader is built on: the Verilog, DEF and
// Bookshelf readers and the serve-protocol JSON parser all scan a
// contiguous buffer through TextCursor, which hands out tokens as views
// into it and tracks the 1-based line. Text becomes numbers through
// parse_number only: whole-token, locale-free and range-checked.

#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace hidap {

/// ASCII character classes, independent of the global C locale.
namespace ascii {
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
/// Bytes of a decimal or scientific number literal ("-1.5e+3").
constexpr bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+';
}
}  // namespace ascii

class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  bool done() const { return pos_ >= text_.size(); }
  /// 1-based line of the next unread byte.
  int line() const { return line_; }
  /// The unread remainder of the text.
  std::string_view rest() const { return text_.substr(pos_); }

  /// The byte `ahead` positions past the cursor, or '\0' past the end
  /// (use done() to tell the end from a NUL byte in the text).
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  /// Consumes one byte; '\0' at the end.
  char take() {
    if (done()) return '\0';
    const char c = text_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  /// Consumes the longest run of bytes satisfying `pred`.
  template <typename Pred>
  std::string_view take_while(Pred pred) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && pred(text_[pos_])) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  /// take_while for a `pred` that rejects '\n' (identifier and number
  /// runs): such a run never ends a line, so it skips the per-byte line
  /// check.
  template <typename Pred>
  std::string_view take_within_line(Pred pred) {
    assert(!pred('\n'));
    const std::size_t start = pos_;
    while (pos_ < text_.size() && pred(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() { take_while(ascii::is_space); }

  /// Skips whitespace, then consumes `c` if it is next.
  bool consume(char c) { return consume_word(std::string_view(&c, 1)); }

  /// Skips whitespace, then consumes `word` (no newline in it) if the
  /// text continues with it.
  bool consume_word(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Skips whitespace, then consumes the next run of non-whitespace
  /// bytes; empty at the end of the text.
  std::string_view token() {
    skip_ws();
    return take_while([](char c) { return !ascii::is_space(c); });
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Parses all of `text` as one number of type T (an integer in `base`,
/// or a decimal/scientific literal), optionally prefixed by '+'. Sets
/// `out` and returns std::errc{} on success. Returns invalid_argument for
/// empty text, any other leading or trailing byte ("12-3", " 1", "1.5"
/// as an int) and inf/nan spellings, result_out_of_range when the value
/// does not fit T; `out` is then untouched.
template <typename T>
std::errc parse_number(std::string_view text, T& out, [[maybe_unused]] int base = 10) {
  static_assert(std::is_arithmetic_v<T>);
  if (text.starts_with('+') && !text.substr(1).starts_with('-')) text.remove_prefix(1);
  const char* const end = text.data() + text.size();
  T value{};
  std::from_chars_result res{};
  if constexpr (std::is_integral_v<T>) {
    res = std::from_chars(text.data(), end, value, base);
  } else {
#if defined(__cpp_lib_to_chars)
    res = std::from_chars(text.data(), end, value);
#else
    // Toolchains without floating-point from_chars: strtod needs a
    // terminator, follows the C locale and also reads hex floats.
    const std::string copy(text);
    char* stop = nullptr;
    errno = 0;
    value = std::strtod(copy.c_str(), &stop);
    res = {text.data() + (stop - copy.c_str()),
           errno == ERANGE ? std::errc::result_out_of_range : std::errc{}};
    if (copy.empty() || !(ascii::is_digit(copy[0]) || copy[0] == '-' || copy[0] == '.')) {
      res.ec = std::errc::invalid_argument;
    }
#endif
  }
  if (res.ec != std::errc{}) return res.ec;
  if (res.ptr != end || !std::isfinite(static_cast<double>(value))) {
    return std::errc::invalid_argument;
  }
  out = value;
  return std::errc{};
}

/// The whole file at `path`; throws HidapError{ErrorCode::IoError} when
/// it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace hidap
