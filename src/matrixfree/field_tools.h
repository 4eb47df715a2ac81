#pragma once

// Helpers to set and measure fields on DG spaces: point functions at the
// quadrature points of an evaluator, nodal interpolation on the collocated
// Gauss lattice, L2 errors/norms against analytic functions, and integrals.
// Used by the operators' boundary data, tests, examples and benchmark
// drivers.

#include <functional>

#include "matrixfree/fe_evaluation.h"

namespace dgflow
{
/// f(x) -> scalar, evaluated at physical points.
using ScalarFunction = std::function<double(const Point &)>;
/// f(x) -> 3-vector.
using VectorFunction = std::function<Tensor1<double>(const Point &)>;

/// Values of the point function fn (double or Tensor1<double>) at the
/// quadrature point q of phi, lane by lane.
template <typename Eval, typename Fn>
typename Eval::value_type point_values(const Eval &phi, const unsigned int q,
                                       const Fn &fn)
{
  using Number = typename Eval::VA::value_type;
  const auto xq = phi.quadrature_point(q);
  typename Eval::value_type v;
  for (unsigned int l = 0; l < Eval::n_lanes; ++l)
  {
    const auto y = fn(Point(xq[0][l], xq[1][l], xq[2][l]));
    if constexpr (Eval::n_components == 1)
      v[l] = Number(y);
    else
      for (unsigned int c = 0; c < dim; ++c)
        v[c][l] = Number(y[c]);
  }
  return v;
}

/// Nodal interpolation of @p f onto the (collocated) space: requires the
/// quadrature to coincide with the basis nodes.
template <typename Number>
void interpolate(const MatrixFree<Number> &mf, const unsigned int space,
                 const unsigned int quad, const ScalarFunction &f,
                 Vector<Number> &vec)
{
  DGFLOW_ASSERT(mf.shape_info(space, quad).collocation,
                "interpolation requires the collocated quadrature");
  vec.reinit(mf.n_dofs(space, 1), true);
  FEEvaluation<Number, 1> phi(mf, space, quad);
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
      phi.begin_dof_values()[q] = point_values(phi, q, f);
    phi.set_dof_values(vec);
  }
}

template <typename Number>
void interpolate_vector(const MatrixFree<Number> &mf, const unsigned int space,
                        const unsigned int quad, const VectorFunction &f,
                        Vector<Number> &vec)
{
  DGFLOW_ASSERT(mf.shape_info(space, quad).collocation,
                "interpolation requires the collocated quadrature");
  vec.reinit(mf.n_dofs(space, 3), true);
  FEEvaluation<Number, 3> phi(mf, space, quad);
  const unsigned int npc = phi.dofs_per_component;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const Tensor1<VectorizedArray<Number>> v = point_values(phi, q, f);
      for (unsigned int c = 0; c < dim; ++c)
        phi.begin_dof_values()[c * npc + q] = v[c];
    }
    phi.set_dof_values(vec);
  }
}

/// L2 norm of (u_h - f) over the domain.
template <typename Number>
double l2_error(const MatrixFree<Number> &mf, const unsigned int space,
                const unsigned int quad, const Vector<Number> &vec,
                const ScalarFunction &f)
{
  FEEvaluation<Number, 1> phi(mf, space, quad);
  double err = 0;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    phi.read_dof_values(vec);
    phi.evaluate(true, false);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const auto xq = phi.quadrature_point(q);
      const auto uh = phi.get_value(q);
      const auto jxw = phi.JxW(q);
      for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
      {
        const double d =
          double(uh[l]) - f(Point(xq[0][l], xq[1][l], xq[2][l]));
        err += d * d * double(jxw[l]);
      }
    }
  }
  return std::sqrt(err);
}

template <typename Number>
double l2_error_vector(const MatrixFree<Number> &mf, const unsigned int space,
                       const unsigned int quad, const Vector<Number> &vec,
                       const VectorFunction &f)
{
  FEEvaluation<Number, 3> phi(mf, space, quad);
  double err = 0;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    phi.read_dof_values(vec);
    phi.evaluate(true, false);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const auto xq = phi.quadrature_point(q);
      const auto uh = phi.get_value(q);
      const auto jxw = phi.JxW(q);
      for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
      {
        const auto fv = f(Point(xq[0][l], xq[1][l], xq[2][l]));
        for (unsigned int c = 0; c < dim; ++c)
        {
          const double d = double(uh[c][l]) - fv[c];
          err += d * d * double(jxw[l]);
        }
      }
    }
  }
  return std::sqrt(err);
}

/// Kinetic energy 0.5 * integral |u|^2 of a 3-component field.
template <typename Number>
double kinetic_energy(const MatrixFree<Number> &mf, const unsigned int space,
                      const unsigned int quad, const Vector<Number> &u)
{
  FEEvaluation<Number, 3> phi(mf, space, quad);
  double energy = 0;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    phi.read_dof_values(u);
    phi.evaluate(true, false);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const auto v = phi.get_value(q);
      const auto e = dot(v, v) * phi.JxW(q);
      for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
        energy += 0.5 * double(e[l]);
    }
  }
  return energy;
}

/// Total measure of the computational domain (sum of JxW).
template <typename Number>
double domain_volume(const MatrixFree<Number> &mf, const unsigned int quad = 0)
{
  double vol = 0;
  const auto &metric = mf.cell_metric(quad);
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    const auto &batch = mf.cell_batch(b);
    for (unsigned int q = 0; q < metric.n_q; ++q)
      for (unsigned int l = 0; l < batch.n_filled; ++l)
        vol += double(metric.jxw(b, q)[l]);
  }
  return vol;
}

} // namespace dgflow
