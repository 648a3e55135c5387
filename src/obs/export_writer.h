// The append-only writer every exporter serialises through.
//
// Exports are large (a long cluster replay writes hundreds of megabytes of
// time series), so the writer keeps per-field cost to a copy: string runs
// that need no JSON escaping go out in one append, numbers are formatted by
// std::to_chars straight into the buffer, and bytes reach the std::ostream
// in chunks of at most kChunk. A whole export is never buffered: memory
// stays at one chunk however long the run was. Every export ends with
// flush(), which hands over the last partial chunk.
//
// Formats, each the one the exporters have always printed:
//  - number(): shortest round-trip decimal (std::to_chars), e.g. 0.1,
//    3e+05, -0, so an export parses back to the exact value;
//  - fixed(): shortest round-trip plain decimal (chars_format::fixed), e.g.
//    300000, for Chrome-trace and journal timestamps;
//  - integer(): what operator<< prints on a default-formatted stream;
//  - escaped(): a JSON string body with `"`, `\`, \n, \r, \t escaped by
//    name and every other byte below 0x20 as \u00xx; bytes >= 0x20 (0x7f
//    and UTF-8 included) pass through.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

namespace vs::obs {

class ExportWriter {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit ExportWriter(std::ostream& out);

  ExportWriter& raw(std::string_view s);
  ExportWriter& raw(char c) {
    if (len_ == kChunk) flush();
    buf_[len_++] = c;
    return *this;
  }
  ExportWriter& escaped(std::string_view s);
  ExportWriter& number(double v) {
    return format([v](char* first, char* last) {
      return std::to_chars(first, last, v);
    });
  }
  ExportWriter& fixed(double v) {
    return format([v](char* first, char* last) {
      return std::to_chars(first, last, v, std::chars_format::fixed);
    });
  }
  template <std::integral T>
  ExportWriter& integer(T v) {
    return format([v](char* first, char* last) {
      return std::to_chars(first, last, v);
    });
  }

  /// Writes the buffered bytes to the stream; every export ends with it.
  /// The destructor writes nothing, so a stream set to throw on failure
  /// throws here, not from a destructor. Failures show in the stream state.
  void flush();

 private:
  /// Formats into the free tail of the buffer; when the tail is too small,
  /// flushes and formats again into the empty chunk.
  template <typename Fmt>
  ExportWriter& format(Fmt fmt) {
    auto [ptr, ec] = fmt(buf_.get() + len_, buf_.get() + kChunk);
    if (ec != std::errc{}) {
      flush();
      ptr = fmt(buf_.get(), buf_.get() + kChunk).ptr;
    }
    len_ = static_cast<std::size_t>(ptr - buf_.get());
    return *this;
  }

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

/// Appends `s` to `out` with ExportWriter::escaped's JSON escaping, for
/// keys an exporter builds once and writes many times.
void append_escaped(std::string& out, std::string_view s);

}  // namespace vs::obs
