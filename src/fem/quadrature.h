#pragma once

// 1D quadrature rules on the reference interval [0,1]: Gauss (used for all
// cell/face integrals) and Gauss-Lobatto (used for geometry support points).
// 3D rules are tensor products formed on the fly by the kernels.

#include <cmath>
#include <vector>

#include "common/exceptions.h"

namespace dgflow
{
struct Quadrature1D
{
  std::vector<double> points;  ///< in [0,1]
  std::vector<double> weights; ///< sum to 1

  unsigned int size() const { return points.size(); }
};

namespace internal
{
/// Evaluates the Legendre polynomial P_n and its derivative at x in [-1,1].
inline void legendre(const unsigned int n, const double x, double &p,
                     double &dp)
{
  double p0 = 1., p1 = x;
  if (n == 0)
  {
    p = 1.;
    dp = 0.;
    return;
  }
  for (unsigned int j = 2; j <= n; ++j)
  {
    const double p2 = ((2. * j - 1.) * x * p1 - (j - 1.) * p0) / j;
    p0 = p1;
    p1 = p2;
  }
  p = p1;
  dp = n * (x * p1 - p0) / (x * x - 1.);
}
} // namespace internal

/// Gauss-Legendre rule with @p n points, exact for polynomials of degree
/// 2n-1.
inline Quadrature1D gauss_quadrature(const unsigned int n)
{
  DGFLOW_ASSERT(n >= 1, "need at least one point");
  Quadrature1D q;
  q.points.resize(n);
  q.weights.resize(n);
  for (unsigned int i = 0; i < (n + 1) / 2; ++i)
  {
    // Chebyshev initial guess, Newton iteration on P_n.
    double x = std::cos(M_PI * (i + 0.75) / (n + 0.5));
    double p, dp;
    for (unsigned int it = 0; it < 100; ++it)
    {
      internal::legendre(n, x, p, dp);
      const double dx = -p / dp;
      x += dx;
      if (std::abs(dx) < 1e-16)
        break;
    }
    internal::legendre(n, x, p, dp);
    const double w = 2. / ((1. - x * x) * dp * dp);
    // map [-1,1] -> [0,1]; cos ordering gives descending x, store ascending
    q.points[n - 1 - i] = 0.5 * (x + 1.);
    q.weights[n - 1 - i] = 0.5 * w;
    q.points[i] = 0.5 * (1. - x);
    q.weights[i] = 0.5 * w;
  }
  return q;
}

/// Gauss-Lobatto rule with @p n >= 2 points including both endpoints, exact
/// for polynomials of degree 2n-3.
inline Quadrature1D gauss_lobatto_quadrature(const unsigned int n)
{
  DGFLOW_ASSERT(n >= 2, "Gauss-Lobatto needs at least two points");
  Quadrature1D q;
  q.points.resize(n);
  q.weights.resize(n);
  q.points[0] = 0.;
  q.points[n - 1] = 1.;
  q.weights[0] = q.weights[n - 1] = 1. / (n * (n - 1.));
  // Interior points: roots of P'_{n-1}; Newton with derivative via the
  // relation for d/dx P'_{n-1}.
  for (unsigned int i = 1; i + 1 < n; ++i)
  {
    double x = std::cos(M_PI * (n - 1. - i) / (n - 1.)); // good initial guess
    for (unsigned int it = 0; it < 100; ++it)
    {
      double p, dp;
      internal::legendre(n - 1, x, p, dp);
      // f = dp = P'_{n-1}(x); f' from Legendre ODE:
      // (1-x^2) P'' - 2 x P' + n(n-1) P = 0 with n-1 -> degree
      const double ddp =
        (2. * x * dp - (n - 1.) * n * p) / (1. - x * x);
      const double dx = -dp / ddp;
      x += dx;
      if (std::abs(dx) < 1e-15)
        break;
    }
    double p, dp;
    internal::legendre(n - 1, x, p, dp);
    q.points[i] = 0.5 * (x + 1.);
    q.weights[i] = 1. / (n * (n - 1.) * p * p) * 2. * 0.5;
  }
  // normalize weights on [0,1] (reference weights sum to 2 on [-1,1])
  double sum = 0;
  for (const double w : q.weights)
    sum += w;
  // endpoints were set on [0,1] scale already via 1/(n(n-1)) of total 2 ->
  // rescale everything so the weights sum to 1 exactly.
  for (double &w : q.weights)
    w /= sum;
  return q;
}

} // namespace dgflow
