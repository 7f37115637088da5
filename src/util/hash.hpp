#pragma once
// Content hashing for the artifact cache: 64-bit FNV-1a over raw bytes
// plus a small builder for mixing typed fields (option structs, id
// lists) into one key, and XXH64 for bulk text (a whole netlist), which
// it reads a 32-byte stripe at a time instead of byte by byte.
// Stability matters only within a process -- keys index an in-memory
// cache, never a persisted file -- but both functions are the textbook
// ones, so keys are reproducible across runs too.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

namespace detail {
inline constexpr std::uint64_t kXxh64Prime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxh64Prime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxh64Prime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxh64Prime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxh64Prime5 = 0x27D4EB2F165667C5ull;

/// Little-endian load of N (4 or 8) bytes.
template <typename T>
T load_le(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxh64Prime2, 31) * kXxh64Prime1;
}

inline std::uint64_t xxh64_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh64_round(0, acc)) * kXxh64Prime1 + kXxh64Prime4;
}
}  // namespace detail

/// XXH64 (xxHash, 64-bit variant) of `size` bytes: four accumulators over
/// 32-byte stripes, then the 8/4/1-byte tail and the final avalanche.
inline std::uint64_t xxh64(const void* data, std::size_t size, std::uint64_t seed = 0) {
  using namespace detail;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h;
  if (size >= 32) {
    std::uint64_t v1 = seed + kXxh64Prime1 + kXxh64Prime2;
    std::uint64_t v2 = seed + kXxh64Prime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxh64Prime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh64_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh64_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh64_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh64_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh64_merge(h, v1);
    h = xxh64_merge(h, v2);
    h = xxh64_merge(h, v3);
    h = xxh64_merge(h, v4);
  } else {
    h = seed + kXxh64Prime5;
  }
  h += size;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xxh64_round(0, load_le<std::uint64_t>(p)), 27) * kXxh64Prime1 +
        kXxh64Prime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kXxh64Prime1), 23) * kXxh64Prime2 +
        kXxh64Prime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kXxh64Prime5), 11) * kXxh64Prime1;
  h ^= h >> 33;
  h *= kXxh64Prime2;
  h ^= h >> 29;
  h *= kXxh64Prime3;
  h ^= h >> 32;
  return h;
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
