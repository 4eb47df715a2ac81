#pragma once

// Explicit convective operator C(U) of the dual splitting scheme (Eq. 1 of
// the paper): divergence form nabla.(u (x) u) discretized with the local
// Lax-Friedrichs flux, evaluated with over-integration (k+2 quadrature
// points per direction) to curb aliasing in under-resolved turbulent flows.
//
// The operator is nonlinear and explicit in time, so it only has the
// time-dependent apply entry point of the interface documented in
// operators/README.md (no vmult: there is no linear homogeneous action).
// apply hands cell, inner-face and boundary kernels to the shared
// cell_face_loop, so it runs on the worker pool, bitwise equal at any pool
// width.

#include <algorithm>
#include <functional>

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"
#include "matrixfree/field_tools.h"
#include "operators/boundary.h"

namespace dgflow
{
/// Time-dependent vector-valued boundary function.
using VectorFunctionT =
  std::function<Tensor1<double>(const Point &, double)>;
/// Time-dependent scalar boundary function.
using ScalarFunctionT = std::function<double(const Point &, double)>;

/// Per-boundary-id data of the flow solver: either a velocity Dirichlet
/// boundary (walls, inlets; pressure sees a Neumann condition there) or a
/// pressure boundary (outlets; velocity sees a Neumann condition).
struct FlowBoundary
{
  enum class Kind
  {
    velocity_dirichlet,
    pressure
  };
  Kind kind = Kind::velocity_dirichlet;
  /// g_u (velocity_dirichlet); empty = zero data (a no-slip wall), which
  /// no reader evaluates
  VectorFunctionT velocity;
  ScalarFunctionT pressure; ///< g_p (pressure boundaries)
  /// suppress incoming momentum flux at locally reversed flow on pressure
  /// boundaries (energy-stable outflow; disable for analytic test flows
  /// with genuine inflow through the open boundary)
  bool backflow_stabilization = true;
};

using FlowBoundaryMap = std::map<unsigned int, FlowBoundary>;

/// BoundaryMap views of a FlowBoundaryMap for the scalar operators.
inline BoundaryMap velocity_bc_view(const FlowBoundaryMap &bcs)
{
  BoundaryMap bc;
  for (const auto &[id, b] : bcs)
    bc.set(id, b.kind == FlowBoundary::Kind::velocity_dirichlet
                 ? BoundaryType::dirichlet
                 : BoundaryType::neumann);
  return bc;
}

inline BoundaryMap pressure_bc_view(const FlowBoundaryMap &bcs)
{
  BoundaryMap bc;
  for (const auto &[id, b] : bcs)
    bc.set(id, b.kind == FlowBoundary::Kind::pressure
                 ? BoundaryType::dirichlet
                 : BoundaryType::neumann);
  return bc;
}

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

    const auto make_kernels = [&, this](auto &dst_v) {
      auto phi =
        std::make_shared<FEEvaluation<Number, 3>>(*mf_, space_, quad_);
      auto phi_m = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, true);
      auto phi_p = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, false);

      const auto cell = [phi, &dst_v, &src](const unsigned int b) {
        phi->reinit(b);
        phi->read_dof_values(src);
        phi->evaluate(true, false);
        for (unsigned int q = 0; q < phi->n_q_points; ++q)
        {
          const Tensor1<VA> u = phi->get_value(q);
          Tensor2<VA> flux;
          for (unsigned int i = 0; i < dim; ++i)
            for (unsigned int j = 0; j < dim; ++j)
              flux[i][j] = -u[i] * u[j];
          phi->submit_gradient(flux, q);
        }
        phi->integrate(false, true);
        phi->distribute_local_to_global(dst_v);
      };

      const auto inner = [phi_m, phi_p, &dst_v, &src](const unsigned int b) {
        phi_m->reinit(b);
        phi_p->reinit(b);
        phi_m->read_dof_values(src);
        phi_p->read_dof_values(src);
        phi_m->evaluate(true, false);
        phi_p->evaluate(true, false);
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const Tensor1<VA> um = phi_m->get_value(q);
          const Tensor1<VA> up = phi_p->get_value(q);
          const Tensor1<VA> n = phi_m->get_normal_vector(q);
          const Tensor1<VA> flux = numerical_flux(um, up, n);
          phi_m->submit_value(flux, q);
          phi_p->submit_value(-flux, q);
        }
        phi_m->integrate(true, false);
        phi_p->integrate(true, false);
        phi_m->distribute_local_to_global(dst_v);
        phi_p->distribute_local_to_global(dst_v);
      };

      const auto boundary = [phi_m, &dst_v, &src, t,
                             this](const unsigned int b) {
        phi_m->reinit(b);
        const FlowBoundary &bdata = bc_->at(phi_m->boundary_id());
        phi_m->read_dof_values(src);
        phi_m->evaluate(true, false);
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const Tensor1<VA> um = phi_m->get_value(q);
          const Tensor1<VA> n = phi_m->get_normal_vector(q);
          Tensor1<VA> flux;
          if (bdata.kind == FlowBoundary::Kind::velocity_dirichlet)
          {
            Tensor1<VA> g; // zero unless the boundary has data
            if (bdata.velocity)
              g = point_values(*phi_m, q, [&](const Point &x) {
                return bdata.velocity(x, t);
              });
            // mirror: u+ = 2g - u-
            flux = numerical_flux(um, Number(2) * g - um, n);
          }
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
          phi_m->submit_value(flux, q);
        }
        phi_m->integrate(true, false);
        phi_m->distribute_local_to_global(dst_v);
      };

      return LoopKernels{cell, inner, boundary};
    };

    const unsigned int block = 3 * mf_->dofs_per_cell(space_);
    cell_face_loop(*mf_, dst, src, block, block, make_kernels, NoRangeHook(),
                   NoRangeHook());
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
