#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/aligned_vector.h"

using namespace dgflow;

TEST(AlignedVector, AlignmentIs64Bytes)
{
  AlignedVector<double> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  v.resize(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}

TEST(AlignedVector, ResizePreservesAndInitializes)
{
  AlignedVector<int> v(3, 7);
  EXPECT_EQ(v.size(), 3u);
  for (const int x : v)
    EXPECT_EQ(x, 7);
  v.resize(6, 9);
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[2], 7);
  EXPECT_EQ(v[3], 9);
  EXPECT_EQ(v[5], 9);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 7);
}

TEST(AlignedVector, PushBackGrows)
{
  AlignedVector<double> v;
  for (int i = 0; i < 1000; ++i)
    v.push_back(i * 0.5);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(v[i], i * 0.5);
}

TEST(AlignedVector, CopyAndMove)
{
  AlignedVector<double> a(10);
  std::iota(a.begin(), a.end(), 0.);
  AlignedVector<double> b(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[7], 7.);
  AlignedVector<double> c(std::move(b));
  EXPECT_EQ(c[7], 7.);
  EXPECT_EQ(b.size(), 0u); // NOLINT: moved-from is well-defined empty here
  b = a;
  a.fill(-1.);
  EXPECT_EQ(b[3], 3.);
  c = std::move(b);
  EXPECT_EQ(c[3], 3.);
  // copies of an empty vector: its data pointer is null
  const AlignedVector<double> empty;
  AlignedVector<double> d(empty);
  EXPECT_TRUE(d.empty());
  c = empty;
  EXPECT_TRUE(c.empty());
}

TEST(AlignedVector, FillAndClear)
{
  AlignedVector<float> v(17);
  v.fill(2.5f);
  for (const float x : v)
    EXPECT_EQ(x, 2.5f);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.memory_consumption(), 0u);
}

// (2^61 + 1) * 8 bytes wraps to 8 in 64 bits: the resize must fail instead
// of handing out an 8-byte buffer that claims 2^61 + 1 elements.
TEST(AlignedVector, ResizeWhoseByteCountOverflowsThrows)
{
  AlignedVector<double> v(3, 1.5);
  EXPECT_THROW(v.resize_without_init((std::size_t(1) << 61) + 1),
               std::bad_array_new_length);
  EXPECT_EQ(v.size(), 3u) << "a failed resize leaves the vector untouched";
  EXPECT_EQ(v.memory_consumption(), 3 * sizeof(double));
  EXPECT_EQ(v[2], 1.5);
}
