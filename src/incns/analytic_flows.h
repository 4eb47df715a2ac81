#pragma once

// Analytic solutions of the incompressible Navier-Stokes equations used for
// solver validation: the three-dimensional unsteady Ethier-Steinman (Beltrami)
// flow and plane Poiseuille channel flow. Poiseuille also validates the
// laminar-resistance model underlying the lung outlet boundary conditions.

#include <cmath>

#include "common/tensor.h"

namespace dgflow
{
/// Exact unsteady NS solution (Ethier & Steinman 1994) with parameters a, d;
/// decays like exp(-nu d^2 t).
struct EthierSteinman
{
  double a = M_PI / 4.;
  double d = M_PI / 2.;
  double nu = 1.;

  Tensor1<double> velocity(const Point &p, const double t) const
  {
    const double e = std::exp(-nu * d * d * t);
    const double x = p[0], y = p[1], z = p[2];
    return Tensor1<double>(
      -a * (std::exp(a * x) * std::sin(a * y + d * z) +
            std::exp(a * z) * std::cos(a * x + d * y)) * e,
      -a * (std::exp(a * y) * std::sin(a * z + d * x) +
            std::exp(a * x) * std::cos(a * y + d * z)) * e,
      -a * (std::exp(a * z) * std::sin(a * x + d * y) +
            std::exp(a * y) * std::cos(a * z + d * x)) * e);
  }

  double pressure(const Point &p, const double t) const
  {
    const double e2 = std::exp(-2. * nu * d * d * t);
    const double x = p[0], y = p[1], z = p[2];
    return -0.5 * a * a *
           (std::exp(2 * a * x) + std::exp(2 * a * y) + std::exp(2 * a * z) +
            2. * std::sin(a * x + d * y) * std::cos(a * z + d * x) *
              std::exp(a * (y + z)) +
            2. * std::sin(a * y + d * z) * std::cos(a * x + d * y) *
              std::exp(a * (z + x)) +
            2. * std::sin(a * z + d * x) * std::cos(a * y + d * z) *
              std::exp(a * (x + y))) *
           e2;
  }

  /// Velocity gradient du_i/dx_j (for Neumann data on open boundaries).
  Tensor2<double> velocity_gradient(const Point &p, const double t) const
  {
    // finite differences are sufficient for boundary data of tests
    Tensor2<double> g;
    const double h = 1e-6;
    for (unsigned int j = 0; j < dim; ++j)
    {
      Point pp = p, pm = p;
      pp[j] += h;
      pm[j] -= h;
      const auto up = velocity(pp, t), um = velocity(pm, t);
      for (unsigned int i = 0; i < dim; ++i)
        g[i][j] = (up[i] - um[i]) / (2 * h);
    }
    return g;
  }
};

/// Plane Poiseuille flow between y = 0 and y = 1 driven by a pressure drop
/// G over unit length: u_x = G/(2 nu) y (1-y).
struct PoiseuilleChannel
{
  double G = 1.;  ///< pressure gradient (p_in - p_out over unit length)
  double nu = 1.;

  Tensor1<double> velocity(const Point &p) const
  {
    return Tensor1<double>(0.5 * G / nu * p[1] * (1. - p[1]), 0., 0.);
  }

  double pressure(const Point &p) const { return G * (1. - p[0]); }

  /// Volume flux through a unit-width cross section.
  double flux() const { return G / (12. * nu); }
};

} // namespace dgflow
