#include <gtest/gtest.h>

#include <cmath>

#include "fem/quadrature.h"

using namespace dgflow;

namespace
{
double integrate_monomial(const Quadrature1D &q, const unsigned int p)
{
  double s = 0;
  for (unsigned int i = 0; i < q.size(); ++i)
    s += q.weights[i] * std::pow(q.points[i], double(p));
  return s;
}
} // namespace

class GaussQuadrature : public ::testing::TestWithParam<unsigned int>
{};

TEST_P(GaussQuadrature, ExactForDegree2nMinus1)
{
  const unsigned int n = GetParam();
  const Quadrature1D q = gauss_quadrature(n);
  for (unsigned int p = 0; p <= 2 * n - 1; ++p)
    EXPECT_NEAR(integrate_monomial(q, p), 1. / (p + 1), 1e-13)
      << "n=" << n << " p=" << p;
}

TEST_P(GaussQuadrature, PointsInInteriorAndAscending)
{
  const unsigned int n = GetParam();
  const Quadrature1D q = gauss_quadrature(n);
  ASSERT_EQ(q.size(), n);
  for (unsigned int i = 0; i < n; ++i)
  {
    EXPECT_GT(q.points[i], 0.);
    EXPECT_LT(q.points[i], 1.);
    if (i > 0)
    {
      EXPECT_GT(q.points[i], q.points[i - 1]);
    }
  }
}

TEST_P(GaussQuadrature, SymmetricAboutMidpoint)
{
  const unsigned int n = GetParam();
  const Quadrature1D q = gauss_quadrature(n);
  for (unsigned int i = 0; i < n; ++i)
  {
    EXPECT_NEAR(q.points[i] + q.points[n - 1 - i], 1., 1e-14);
    EXPECT_NEAR(q.weights[i], q.weights[n - 1 - i], 1e-14);
  }
}

TEST_P(GaussQuadrature, WeightsSumToOne)
{
  const Quadrature1D q = gauss_quadrature(GetParam());
  double s = 0;
  for (const double w : q.weights)
    s += w;
  EXPECT_NEAR(s, 1., 1e-14);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, GaussQuadrature,
                         ::testing::Range(1u, 13u));

class GaussLobattoQuadrature : public ::testing::TestWithParam<unsigned int>
{};

TEST_P(GaussLobattoQuadrature, ExactForDegree2nMinus3)
{
  const unsigned int n = GetParam();
  const Quadrature1D q = gauss_lobatto_quadrature(n);
  for (unsigned int p = 0; p <= 2 * n - 3; ++p)
    EXPECT_NEAR(integrate_monomial(q, p), 1. / (p + 1), 1e-12)
      << "n=" << n << " p=" << p;
}

TEST_P(GaussLobattoQuadrature, IncludesEndpoints)
{
  const Quadrature1D q = gauss_lobatto_quadrature(GetParam());
  EXPECT_DOUBLE_EQ(q.points.front(), 0.);
  EXPECT_DOUBLE_EQ(q.points.back(), 1.);
}

TEST_P(GaussLobattoQuadrature, AscendingSymmetricPositiveWeights)
{
  const unsigned int n = GetParam();
  const Quadrature1D q = gauss_lobatto_quadrature(n);
  for (unsigned int i = 0; i < n; ++i)
  {
    if (i > 0)
    {
      EXPECT_GT(q.points[i], q.points[i - 1]);
    }
    EXPECT_GT(q.weights[i], 0.);
    EXPECT_NEAR(q.points[i] + q.points[n - 1 - i], 1., 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, GaussLobattoQuadrature,
                         ::testing::Range(2u, 13u));

TEST(QuadratureGoldenValues, TwoAndThreePointGauss)
{
  // classical values mapped from [-1,1] to [0,1]
  const Quadrature1D q2 = gauss_quadrature(2);
  EXPECT_NEAR(q2.points[0], 0.5 - 0.5 / std::sqrt(3.), 1e-15);
  EXPECT_NEAR(q2.points[1], 0.5 + 0.5 / std::sqrt(3.), 1e-15);
  EXPECT_NEAR(q2.weights[0], 0.5, 1e-15);

  const Quadrature1D q3 = gauss_quadrature(3);
  EXPECT_NEAR(q3.points[0], 0.5 - 0.5 * std::sqrt(0.6), 1e-15);
  EXPECT_NEAR(q3.points[1], 0.5, 1e-15);
  EXPECT_NEAR(q3.weights[1], 4. / 9., 1e-14);
  EXPECT_NEAR(q3.weights[0], 5. / 18., 1e-14);
}

TEST(QuadratureGoldenValues, ThreePointGaussLobatto)
{
  const Quadrature1D q3 = gauss_lobatto_quadrature(3);
  EXPECT_NEAR(q3.points[1], 0.5, 1e-15);
  EXPECT_NEAR(q3.weights[0], 1. / 6., 1e-14);
  EXPECT_NEAR(q3.weights[1], 4. / 6., 1e-14);
}
