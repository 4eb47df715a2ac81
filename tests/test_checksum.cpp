#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/checksum.h"

using namespace dgflow;

// Reference XXH64 values at seed 0. Each input is copied into a heap buffer
// of exactly its length, so an over-read in any tail branch is caught by
// AddressSanitizer. The 63-byte input runs one full 32-byte stripe and then
// every tail branch: three 8-byte words, one 4-byte word and three bytes.
TEST(Checksum, MatchesXXH64ReferenceVectors)
{
  const struct
  {
    std::string input;
    std::uint64_t digest;
  } vectors[] = {
    {"", 0xef46db3751d8e999ull},
    {"a", 0xd24ec4f1a98c6e5bull},
    {"as", 0x1c330fb2d66be179ull},
    {"asd", 0x631c37ce72a97393ull},
    {"asdf", 0x415872f599cea71eull},
    {"abc", 0x44bc2cf5ad770999ull},
    {"Call me Ishmael. Some years ago--never mind how long precisely-",
     0x02a2e85470d6fd96ull},
  };
  ASSERT_EQ(vectors[6].input.size(), 63u);
  for (const auto &v : vectors)
  {
    const std::size_t n = v.input.size();
    const std::unique_ptr<char[]> buffer(new char[n]);
    std::memcpy(buffer.get(), v.input.data(), n);
    EXPECT_EQ(xxh64(buffer.get(), n), v.digest)
      << "input \"" << v.input << "\" (" << n << " bytes)";
  }
}
