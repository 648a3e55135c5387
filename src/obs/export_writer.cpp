#include "obs/export_writer.h"

#include <ostream>

namespace vs::obs {
namespace {

constexpr bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Hands `s` to `emit` as runs that need no escaping, each followed by the
/// escape sequence of the byte that ended it.
template <typename Emit>
void escape(std::string_view s, Emit emit) {
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    emit(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': emit("\\\""); break;
      case '\\': emit("\\\\"); break;
      case '\n': emit("\\n"); break;
      case '\r': emit("\\r"); break;
      case '\t': emit("\\t"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                          kHex[c & 0xf]};
        emit(std::string_view(u, sizeof u));
      }
    }
  }
  emit(s.substr(run));
}

}  // namespace

ExportWriter::ExportWriter(std::ostream& out)
    : out_(out), buf_(new char[kChunk]) {}

void ExportWriter::flush() {
  if (len_ == 0) return;
  out_.write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

ExportWriter& ExportWriter::raw(std::string_view s) {
  if (s.size() > kChunk - len_) {
    flush();
    if (s.size() >= kChunk) {
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return *this;
    }
  }
  s.copy(buf_.get() + len_, s.size());
  len_ += s.size();
  return *this;
}

ExportWriter& ExportWriter::escaped(std::string_view s) {
  escape(s, [this](std::string_view part) { raw(part); });
  return *this;
}

void append_escaped(std::string& out, std::string_view s) {
  escape(s, [&out](std::string_view part) { out += part; });
}

}  // namespace vs::obs
