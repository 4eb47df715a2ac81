#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/vector.h"

using namespace dgflow;

template <typename Number>
class VectorTest : public ::testing::Test
{};

using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(VectorTest, Precisions);

TYPED_TEST(VectorTest, ReinitZeroes)
{
  Vector<TypeParam> v(5);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(v(i), TypeParam(0));
}

TYPED_TEST(VectorTest, Blas1Operations)
{
  using N = TypeParam;
  const std::size_t n = 100;
  Vector<N> x(n), y(n), z(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    x(i) = N(i % 7) - N(3);
    y(i) = N(0.5) * N(i % 5);
  }
  z.equ(N(2), x);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(z(i), 2 * x(i));

  z.add(N(3), y);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(z(i), 2 * x(i) + 3 * y(i));

  z.sadd(N(0.5), N(1), x);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(z(i), N(0.5) * (2 * x(i) + 3 * y(i)) + x(i));

  z.equ(N(1), x, N(-1), y);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(z(i), x(i) - y(i));
}

TYPED_TEST(VectorTest, DotAndNorms)
{
  using N = TypeParam;
  Vector<N> x(3), y(3);
  x(0) = 1;
  x(1) = 2;
  x(2) = -2;
  y(0) = 3;
  y(1) = -1;
  y(2) = 0.5;
  EXPECT_FLOAT_EQ(x.dot(y), N(3 - 2 - 1));
  EXPECT_FLOAT_EQ(x.l2_norm(), N(3));
  EXPECT_FLOAT_EQ(x.linfty_norm(), N(2));
  EXPECT_FLOAT_EQ(x.norm_sqr(), N(9));
}

TYPED_TEST(VectorTest, LinftyNormPropagatesNaN)
{
  using N = TypeParam;
  const N nan = std::numeric_limits<N>::quiet_NaN();
  // a leading NaN must survive the finite entries after it, an inner one
  // must not be skipped in favour of the largest finite magnitude
  Vector<N> leading(3);
  leading(0) = nan;
  EXPECT_TRUE(std::isnan(leading.linfty_norm()));
  Vector<N> inner(4);
  inner(0) = 1;
  inner(1) = nan;
  inner(2) = -3;
  inner(3) = 2;
  EXPECT_TRUE(std::isnan(inner.linfty_norm()));
}

TYPED_TEST(VectorTest, ScalePointwise)
{
  using N = TypeParam;
  Vector<N> x(4), d(4);
  for (int i = 0; i < 4; ++i)
  {
    x(i) = N(i + 1);
    d(i) = N(2);
  }
  x.scale_pointwise(d);
  for (int i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(x(i), N(2 * (i + 1)));
}

TEST(VectorMixedPrecision, CopyAndConvert)
{
  Vector<double> xd(10);
  for (std::size_t i = 0; i < 10; ++i)
    xd(i) = 1.0 + 1e-3 * double(i);
  Vector<float> xf;
  xf.copy_and_convert(xd);
  ASSERT_EQ(xf.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_FLOAT_EQ(xf(i), float(xd(i)));
  Vector<double> back;
  back.copy_and_convert(xf);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(back(i), xd(i), 1e-7);
}

TEST(VectorMixedPrecision, FloatDotAccumulatesInDouble)
{
  // large vector of small values: float accumulation would lose digits
  const std::size_t n = 1 << 20;
  Vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x(i) = 1e-3f;
  const float sum = x.dot(x);
  EXPECT_NEAR(sum, float(n) * 1e-6f, 1e-2);
}
