#include "testkit/json_check.hpp"

namespace pdc::testkit {

namespace {

/// Recursive-descent recognizer: each rule consumes its production at
/// `pos_` or records the first violation and returns false.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  std::string check() {
    skip_space();
    if (value(0)) {
      skip_space();
      if (pos_ != text_.size()) fail("trailing data");
    }
    return error_;
  }

 private:
  // Deep enough for any body the library renders; bounds the recursion.
  static constexpr int kMaxDepth = 256;

  bool fail(const char* what) {
    error_ = std::string(what) + " at " + std::to_string(pos_);
    return false;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  [[nodiscard]] bool digit() const { return peek() >= '0' && peek() <= '9'; }
  void digits() {
    while (digit()) ++pos_;
  }
  void skip_space() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
           peek() == '\r') {
      ++pos_;
    }
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    switch (peek()) {
      case '{': return members(depth, '}');
      case '[': return members(depth, ']');
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  /// An object (close == '}') or array (close == ']') after its opener.
  bool members(int depth, char close) {
    ++pos_;
    skip_space();
    if (peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_space();
      if (close == '}') {
        if (peek() != '"') return fail("expected a member name");
        if (!string()) return false;
        skip_space();
        if (peek() != ':') return fail("expected ':'");
        ++pos_;
        skip_space();
      }
      if (!value(depth + 1)) return false;
      skip_space();
      if (peek() == close) {
        ++pos_;
        return true;
      }
      if (peek() != ',') return fail("expected ',' or a closing bracket");
      ++pos_;
    }
  }

  bool string() {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const auto ch = static_cast<unsigned char>(text_[pos_]);
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch < 0x20) return fail("raw control byte in a string");
      ++pos_;
      if (ch != '\\') continue;
      const char escape = peek();
      ++pos_;
      if (escape == 'u') {
        for (int k = 0; k < 4; ++k, ++pos_) {
          const char h = peek();
          const bool hex = (h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                           (h >= 'A' && h <= 'F');
          if (!hex) return fail("bad \\u escape");
        }
      } else if (escape == '\0' ||
                 std::string_view("\"\\/bfnrt").find(escape) ==
                     std::string_view::npos) {
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number() {
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (digit()) {
      digits();
    } else {
      return fail("expected a value");
    }
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return fail("bad fraction");
      digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return fail("bad exponent");
      digits();
    }
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string json_error(std::string_view text) {
  return JsonChecker(text).check();
}

}  // namespace pdc::testkit
