#pragma once
// Content hashing for the artifact cache: 64-bit FNV-1a over raw bytes
// plus a small builder for mixing typed fields (option structs, id
// lists) into one key. Stability matters only within a process -- keys
// index an in-memory cache, never a persisted file -- but the function
// is the textbook FNV-1a, so keys are reproducible across runs too.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hidap {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = kFnv1aOffset) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline std::uint64_t hash_bytes(std::string_view bytes) {
  return fnv1a64(bytes.data(), bytes.size());
}

/// Accumulates typed fields into one FNV-1a stream. Each value is fed
/// as its fixed-width little representation, and strings are
/// length-prefixed so ("ab","c") never collides with ("a","bc").
class HashBuilder {
 public:
  explicit HashBuilder(std::uint64_t salt = 0) { u64(salt); }

  HashBuilder& bytes(const void* data, std::size_t size) {
    h_ = fnv1a64(data, size, h_);
    return *this;
  }
  HashBuilder& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  HashBuilder& i32(std::int32_t v) { return i64(v); }
  /// Bit pattern, not value: -0.0 and 0.0 hash differently, NaNs by payload.
  HashBuilder& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  HashBuilder& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

}  // namespace hidap
