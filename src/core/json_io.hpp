// JsonOut and JsonIn: the two directions of a campaign artifact layout.
//
// Each artifact layout (the cell JSON in core/campaign.cpp, the lens
// sidecar in core/report.cpp) is written once, as a function template over
// an `io` of either type. The same function writes the file (JsonOut) and
// reads it back (JsonIn):
//
//   io.lit(s)          fixed punctuation and key text
//   io.value(x)        a number the file carries: JsonOut appends x, JsonIn
//                      parses it into x
//   io.fixed(x)        a value both sides already know (an identity field):
//                      JsonOut appends x, JsonIn requires exactly the bytes
//                      JsonOut would append for x
//   io.list(xs, sep)   "[x0<sep>x1...]" of value()s. A std::vector reads
//                      any length, a std::array exactly its own.
//
// plus the line shapes built from them (JsonFields): `key`, `field`,
// `fixed_field`, `list_field` and the inline row `entry`.
//
// Formatting: integers in base 10 (std::to_chars), doubles with %.17g
// (round-trip exact; std::to_chars' shortest form would print other
// bytes), strings quoted verbatim — callers pass only names validated to
// need no escaping.
//
// JsonIn is strict: every step consumes exactly what JsonOut would emit at
// that point or marks the text malformed, after which nothing more is
// consumed. Numbers go through std::from_chars (no whitespace, no '+'), so
// a spelling JsonOut never emits ("1.0" for 1, "007") still parses; a
// reader that must reject it re-serializes what it read and compares bytes.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

namespace aa::core {

namespace json_detail {

inline void append(std::string& out, std::string_view s) {
  out += '"';
  out += s;
  out += '"';
}

template <std::integral T>
void append(std::string& out, T v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

inline void append(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace json_detail

/// The line shapes of the artifact layouts, shared by both directions.
template <class Io>
class JsonFields {
 public:
  /// `  "k": ` — the start of one line of a top-level object.
  void key(std::string_view k) {
    self().lit("  \"");
    self().lit(k);
    self().lit("\": ");
  }
  /// `  "k": x,\n`
  template <class T>
  void field(std::string_view k, T& x) {
    key(k);
    self().value(x);
    self().lit(",\n");
  }
  template <class T>
  void fixed_field(std::string_view k, const T& x) {
    key(k);
    self().fixed(x);
    self().lit(",\n");
  }
  template <class Seq>
  void list_field(std::string_view k, Seq& xs, std::string_view sep) {
    key(k);
    self().list(xs, sep);
    self().lit(",\n");
  }
  /// `, "k": x` — one member of an inline row object.
  template <class T>
  void entry(std::string_view k, T& x) {
    self().lit(", \"");
    self().lit(k);
    self().lit("\": ");
    self().value(x);
  }

 private:
  Io& self() { return static_cast<Io&>(*this); }
};

/// Write direction: appends to a string.
class JsonOut : public JsonFields<JsonOut> {
 public:
  void lit(std::string_view s) { out_ += s; }
  template <class T>
  void value(const T& x) {
    json_detail::append(out_, x);
  }
  template <class T>
  void fixed(const T& x) {
    json_detail::append(out_, x);
  }
  template <class Seq>
  void list(const Seq& xs, std::string_view sep) {
    out_ += '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i != 0) out_ += sep;
      json_detail::append(out_, xs[i]);
    }
    out_ += ']';
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Read direction: consumes `text`, which must outlive the reader.
class JsonIn : public JsonFields<JsonIn> {
 public:
  explicit JsonIn(std::string_view text) : text_(text) {}

  /// True iff every step matched and the whole text was consumed.
  [[nodiscard]] bool done() const { return ok_ && pos_ == text_.size(); }

  void lit(std::string_view s) {
    if (!accept(s)) ok_ = false;
  }
  template <class T>
  void value(T& x) {
    static_assert(std::is_arithmetic_v<T> && !std::is_const_v<T>,
                  "JsonIn::value parses a number into a mutable field");
    if (!ok_) return;
    const char* begin = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, text_.data() + text_.size(), x);
    if (ec != std::errc{}) {
      ok_ = false;
      return;
    }
    pos_ += static_cast<std::size_t>(end - begin);
  }
  template <class T>
  void fixed(const T& x) {
    expected_.clear();
    json_detail::append(expected_, x);
    lit(expected_);
  }
  template <class Seq>
  void list(Seq& xs, std::string_view sep) {
    lit("[");
    if constexpr (requires { xs.clear(); }) {
      xs.clear();
      if (accept("]")) return;
      do {
        value(xs.emplace_back());
      } while (ok_ && accept(sep));
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) lit(sep);
        value(xs[i]);
      }
    }
    lit("]");
  }

 private:
  /// Consume `s` if it comes next; reports whether it did.
  bool accept(std::string_view s) {
    if (!ok_ || text_.substr(pos_, s.size()) != s) return false;
    pos_ += s.size();
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string expected_;  ///< fixed()'s scratch
};

}  // namespace aa::core
