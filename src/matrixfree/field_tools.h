#pragma once

// Helpers to set and measure fields on DG spaces: point functions at the
// quadrature points of an evaluator, nodal interpolation on the collocated
// Gauss lattice, L2 errors/norms against analytic functions, and integrals.
// Used by the operators' boundary data, tests, examples and benchmark
// drivers.

#include <functional>
#include <type_traits>

#include "matrixfree/fe_evaluation.h"

namespace dgflow
{
/// f(x) -> scalar, evaluated at physical points.
using ScalarFunction = std::function<double(const Point &)>;
/// f(x) -> 3-vector.
using VectorFunction = std::function<Tensor1<double>(const Point &)>;

/// The physical point of lane @p l at the quadrature point q of phi.
template <typename Eval>
Point lane_point(const Eval &phi, const unsigned int q, const unsigned int l)
{
  const auto xq = phi.quadrature_point(q);
  return Point(xq[0][l], xq[1][l], xq[2][l]);
}

/// Values of the point function fn (double or Tensor1<double>) at the
/// quadrature point q of phi, lane by lane.
template <typename Eval, typename Fn>
typename Eval::value_type point_values(const Eval &phi, const unsigned int q,
                                       const Fn &fn)
{
  using Number = typename Eval::VA::value_type;
  typename Eval::value_type v;
  for (unsigned int l = 0; l < Eval::n_lanes; ++l)
  {
    const auto y = fn(lane_point(phi, q, l));
    if constexpr (Eval::n_components == 1)
      v[l] = Number(y);
    else
      for (unsigned int c = 0; c < dim; ++c)
        v[c][l] = Number(y[c]);
  }
  return v;
}

/// Nodal interpolation of the point function @p f (ScalarFunction or
/// VectorFunction) onto the @p n_components-component (collocated) space:
/// requires the quadrature to coincide with the basis nodes.
template <int n_components, typename Number, typename Fn>
void interpolate_components(const MatrixFree<Number> &mf,
                            const unsigned int space, const unsigned int quad,
                            const Fn &f, Vector<Number> &vec)
{
  DGFLOW_ASSERT(mf.shape_info(space, quad).collocation,
                "interpolation requires the collocated quadrature");
  vec.reinit(mf.n_dofs(space, n_components), true);
  FEEvaluation<Number, n_components> phi(mf, space, quad);
  const unsigned int npc = phi.dofs_per_component;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const auto v = point_values(phi, q, f);
      if constexpr (n_components == 1)
        phi.begin_dof_values()[q] = v;
      else
        for (unsigned int c = 0; c < dim; ++c)
          phi.begin_dof_values()[c * npc + q] = v[c];
    }
    phi.set_dof_values(vec);
  }
}

template <typename Number>
void interpolate(const MatrixFree<Number> &mf, const unsigned int space,
                 const unsigned int quad, const ScalarFunction &f,
                 Vector<Number> &vec)
{
  interpolate_components<1>(mf, space, quad, f, vec);
}

template <typename Number>
void interpolate_vector(const MatrixFree<Number> &mf, const unsigned int space,
                        const unsigned int quad, const VectorFunction &f,
                        Vector<Number> &vec)
{
  interpolate_components<3>(mf, space, quad, f, vec);
}

/// The one serial quadrature sum of the field functionals: over the cell
/// batches, their quadrature points and their filled lanes, in that order,
/// term(phi, q, l, sum) adds lane l's terms at point q to sum. Unless
/// @p vec is null, phi holds its values, or its gradients if @p gradients.
/// The sum stays serial: the functionals run off the time step, and a
/// pooled sum would round differently.
template <int n_components, typename Number, typename Term>
double quadrature_sum(const MatrixFree<Number> &mf, const unsigned int space,
                      const unsigned int quad,
                      const std::type_identity_t<Vector<Number>> *vec,
                      const bool gradients, const Term &term)
{
  FEEvaluation<Number, n_components> phi(mf, space, quad);
  double sum = 0;
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    if (vec)
    {
      phi.read_dof_values(*vec);
      phi.evaluate(!gradients, gradients);
    }
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
      for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
        term(phi, q, l, sum);
  }
  return sum;
}

/// L2 norm of (u_h - f) over the domain.
template <typename Number>
double l2_error(const MatrixFree<Number> &mf, const unsigned int space,
                const unsigned int quad, const Vector<Number> &vec,
                const ScalarFunction &f)
{
  return std::sqrt(quadrature_sum<1>(
    mf, space, quad, &vec, false,
    [&f](const auto &phi, const unsigned int q, const unsigned int l,
         double &err) {
      const double d = double(phi.get_value(q)[l]) - f(lane_point(phi, q, l));
      err += d * d * double(phi.JxW(q)[l]);
    }));
}

template <typename Number>
double l2_error_vector(const MatrixFree<Number> &mf, const unsigned int space,
                       const unsigned int quad, const Vector<Number> &vec,
                       const VectorFunction &f)
{
  return std::sqrt(quadrature_sum<3>(
    mf, space, quad, &vec, false,
    [&f](const auto &phi, const unsigned int q, const unsigned int l,
         double &err) {
      const auto uh = phi.get_value(q);
      const auto fv = f(lane_point(phi, q, l));
      for (unsigned int c = 0; c < dim; ++c)
      {
        const double d = double(uh[c][l]) - fv[c];
        err += d * d * double(phi.JxW(q)[l]);
      }
    }));
}

/// Kinetic energy 0.5 * integral |u|^2 of a 3-component field.
template <typename Number>
double kinetic_energy(const MatrixFree<Number> &mf, const unsigned int space,
                      const unsigned int quad, const Vector<Number> &u)
{
  return quadrature_sum<3>(
    mf, space, quad, &u, false,
    [](const auto &phi, const unsigned int q, const unsigned int l,
       double &energy) {
      const auto v = phi.get_value(q);
      const auto e = dot(v, v) * phi.JxW(q);
      energy += 0.5 * double(e[l]);
    });
}

/// Total measure of the computational domain (sum of JxW).
template <typename Number>
double domain_volume(const MatrixFree<Number> &mf, const unsigned int quad = 0)
{
  return quadrature_sum<1>(
    mf, 0, quad, nullptr, false,
    [](const auto &phi, const unsigned int q, const unsigned int l,
       double &vol) { vol += double(phi.JxW(q)[l]); });
}

} // namespace dgflow
