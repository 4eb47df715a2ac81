#pragma once

// Explicit convective operator C(U) of the dual splitting scheme (Eq. 1 of
// the paper): divergence form nabla.(u (x) u) discretized with the local
// Lax-Friedrichs flux, evaluated with over-integration (k+2 quadrature
// points per direction) to curb aliasing in under-resolved turbulent flows.
//
// The operator is nonlinear and explicit in time, so it only has the
// time-dependent apply entry point of the interface documented in
// operators/README.md (no vmult: there is no linear homogeneous action).
// apply runs the operator's integrals through apply_weak_form on the shared
// cell_face_loop, so it runs on the worker pool, bitwise equal at any pool
// width.

#include <algorithm>

#include "instrumentation/profiler.h"
#include "matrixfree/operator_diagonal.h"
#include "operators/boundary.h"

namespace dgflow
{
template <typename Number>
class ConvectiveOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int quad, const FlowBoundaryMap &bc)
  {
    mf_ = &mf;
    space_ = u_space;
    quad_ = quad;
    bc_ = &bc;
  }

  /// dst = weak form of nabla.(u (x) u) tested with v, at time t (boundary
  /// data evaluated at t).
  void apply(VectorType &dst, const VectorType &src, const double t) const
  {
    dst.reinit(mf_->n_dofs(space_, 3), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("convective");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("convective", std::max(src.size(), dst.size()));

    apply_weak_form<3>(*mf_, space_, quad_, *this, dst, src,
                       velocity_data(*bc_, t), NoRangeHook(), NoRangeHook());
  }

  /// The weak form, as the integrals apply_weak_form runs.
  template <typename CellEval>
  void cell_integral(CellEval &phi) const
  {
    phi.evaluate(true, false);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const Tensor1<VA> u = phi.get_value(q);
      Tensor2<VA> flux;
      for (unsigned int i = 0; i < dim; ++i)
        for (unsigned int j = 0; j < dim; ++j)
          flux[i][j] = -u[i] * u[j];
      phi.submit_gradient(flux, q);
    }
    phi.integrate(false, true);
  }

  template <typename FaceEval>
  void face_integral(FaceEval &phi_m, FaceEval &phi_p) const
  {
    phi_m.evaluate(true, false);
    phi_p.evaluate(true, false);
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const Tensor1<VA> um = phi_m.get_value(q);
      const Tensor1<VA> up = phi_p.get_value(q);
      const Tensor1<VA> n = phi_m.get_normal_vector(q);
      const Tensor1<VA> flux = numerical_flux(um, up, n);
      phi_m.submit_value(flux, q);
      phi_p.submit_value(-flux, q);
    }
    phi_m.integrate(true, false);
    phi_p.integrate(true, false);
  }

  /// Every boundary face carries a flux.
  bool has_boundary_integral(const unsigned int) const { return true; }

  /// Velocity Dirichlet faces take the mirror value u+ = 2 g - u from the
  /// data binder g; pressure faces the one-sided flux with backflow
  /// stabilization.
  template <typename FaceEval, typename Data>
  void boundary_integral(FaceEval &phi_m, const Data &g) const
  {
    const FlowBoundary &bdata = bc_->at(phi_m.boundary_id());
    phi_m.evaluate(true, false);
    const auto g_q = g(phi_m);
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const Tensor1<VA> um = phi_m.get_value(q);
      const Tensor1<VA> n = phi_m.get_normal_vector(q);
      Tensor1<VA> flux;
      if (bdata.kind == FlowBoundary::Kind::velocity_dirichlet)
        flux = numerical_flux(um, Number(2) * g_q(q) - um, n);
      else
      {
        // pressure (open) boundary: u+ = u- plus backflow stabilization -
        // the plain one-sided flux carries no dissipation and incoming
        // momentum at locally reversed flow drives an energy instability
        // (Gravemeier/Bazilevs; used by ExaDG's outflow boundaries):
        // subtract min(u.n, 0) u so no momentum flux enters the domain.
        const VA un = dot(um, n);
        const VA un_in = bdata.backflow_stabilization
                           ? min(un, VA(Number(0)))
                           : VA(Number(0));
        for (unsigned int c = 0; c < dim; ++c)
          flux[c] = um[c] * (un - un_in);
      }
      phi_m.submit_value(flux, q);
    }
    phi_m.integrate(true, false);
  }

  /// Local Lax-Friedrichs flux of the divergence-form convective term.
  static Tensor1<VA> numerical_flux(const Tensor1<VA> &um,
                                    const Tensor1<VA> &up,
                                    const Tensor1<VA> &n)
  {
    const VA un_m = dot(um, n), un_p = dot(up, n);
    const VA lambda = Number(2) * max(abs(un_m), abs(un_p));
    Tensor1<VA> flux;
    for (unsigned int i = 0; i < dim; ++i)
      flux[i] = Number(0.5) * (um[i] * un_m + up[i] * un_p) +
                Number(0.5) * lambda * (um[i] - up[i]);
    return flux;
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
};

} // namespace dgflow
