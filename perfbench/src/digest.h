// FNV-1a digest over a canonical byte stream of simulated results. Doubles
// are hashed by bit pattern, so the digest changes whenever any simulated
// value does.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace perfbench {

class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
