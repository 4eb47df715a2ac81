#pragma once

// Vector-valued Helmholtz operator of the viscous step (Eq. 4 of the paper):
// (gamma0/dt) M + nu * A_SIP applied componentwise, matrix-free, with
// velocity Dirichlet (mirror ghost) and Neumann (do-nothing) boundaries.
// With mass_factor = 0 this is the pure viscous operator V(U).
//
// Evaluation interface per operators/README.md (contract v2): hooked
// vmult(dst, src, pre, post) for the homogeneous action; inhomogeneous
// boundary data enters via add_boundary_rhs (the operator itself is
// time-independent). The weak form is written once, as cell/face/boundary
// integrals for any component count: vmult applies them to the three
// velocity components, compute_diagonal probes the scalar form with unit
// vectors, add_boundary_rhs evaluates the boundary integral at zero DoF
// values with the Dirichlet data.

#include <algorithm>

#include "instrumentation/profiler.h"
#include "matrixfree/operator_diagonal.h"
#include "operators/boundary.h"

namespace dgflow
{
template <typename Number>
class HelmholtzOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int quad, const FlowBoundaryMap &bc,
              const Number viscosity)
  {
    mf_ = &mf;
    space_ = u_space;
    quad_ = quad;
    bc_ = &bc;
    nu_ = viscosity;
  }

  /// Sets the mass shift gamma0/dt (0 = pure viscous operator).
  void set_mass_factor(const Number m) { mass_factor_ = m; }
  Number mass_factor() const { return mass_factor_; }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, 3); }

  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("helmholtz");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("helmholtz", std::max(src.size(), dst.size()));

    apply_weak_form<3>(*mf_, space_, quad_, *this, dst, src, ZeroData(),
                       std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  /// The weak form, defined once for any component count (the components
  /// decouple): vmult applies it through apply_weak_form, compute_diagonal
  /// probes the scalar instantiation with unit vectors and add_boundary_rhs
  /// takes the data terms from boundary_integral
  /// (matrixfree/operator_diagonal.h).
  template <typename CellEval>
  void cell_integral(CellEval &phi) const
  {
    phi.evaluate(true, true);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      if (mass_factor_ != Number(0))
        phi.submit_value(mass_factor_ * phi.get_value(q), q);
      phi.submit_gradient(nu_ * phi.get_gradient(q), q);
    }
    phi.integrate(mass_factor_ != Number(0), true);
  }

  template <typename FaceEval>
  void face_integral(FaceEval &phi_m, FaceEval &phi_p) const
  {
    phi_m.evaluate(true, true);
    phi_p.evaluate(true, true);
    const VA sigma = phi_m.penalty_parameter();
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const auto jump = phi_m.get_value(q) - phi_p.get_value(q);
      const auto avg_dn = Number(0.5) * (phi_m.get_normal_derivative(q) -
                                         phi_p.get_normal_derivative(q));
      const auto flux = nu_ * (sigma * jump - avg_dn);
      const auto w = nu_ * Number(-0.5) * jump;
      phi_m.submit_value(flux, q);
      phi_p.submit_value(-flux, q);
      phi_m.submit_normal_derivative(w, q);
      phi_p.submit_normal_derivative(-w, q);
    }
    phi_m.integrate(true, true);
    phi_p.integrate(true, true);
  }

  /// Velocity Dirichlet faces (mirror ghost); pressure boundaries are
  /// natural (do-nothing) and have no boundary integral.
  bool has_boundary_integral(const unsigned int boundary_id) const
  {
    return bc_->at(boundary_id).kind == FlowBoundary::Kind::velocity_dirichlet;
  }

  /// Velocity Dirichlet faces with the data binder g (ZeroData for the
  /// homogeneous action): mirror ghost u+ = 2 g - u.
  template <typename FaceEval, typename Data>
  void boundary_integral(FaceEval &phi_m, const Data &g) const
  {
    phi_m.evaluate(true, true);
    const VA sigma = phi_m.penalty_parameter();
    const auto g_q = g(phi_m);
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const auto u = phi_m.get_value(q) - g_q(q);
      const auto dn = phi_m.get_normal_derivative(q);
      phi_m.submit_value(nu_ * (Number(2) * sigma * u - dn), q);
      phi_m.submit_normal_derivative(-nu_ * u, q);
    }
    phi_m.integrate(true, true);
  }

  /// Adds the inhomogeneous boundary contributions to @p rhs: Dirichlet data
  /// g_u and (optional, analytic tests) Neumann data dg/dn at time @p t. An
  /// empty g_u is zero data and adds nothing; with no data at all (the
  /// lung's no-slip walls) the pass is skipped.
  void add_boundary_rhs(VectorType &rhs, const double t,
                        const VectorFunctionT &neumann_data = {}) const
  {
    const bool has_dirichlet_data =
      std::any_of(bc_->begin(), bc_->end(), [](const auto &id_bc) {
        return id_bc.second.kind == FlowBoundary::Kind::velocity_dirichlet &&
               id_bc.second.velocity;
      });
    if (!has_dirichlet_data && !neumann_data)
      return;
    const auto nu_h = [t, &neumann_data, this](const auto &phi) {
      return [&phi, &neumann_data, t, this](const unsigned int q) {
        return nu_ * point_values(phi, q, [&](const Point &x) {
                 return neumann_data(x, t);
               });
      };
    };
    add_data_terms<3>(*mf_, space_, quad_, *this, rhs, [&] {
      return DataTerms{std::optional<ZeroData>(),
                       std::optional(velocity_data(*bc_, t)),
                       neumann_data ? std::optional(nu_h) : std::nullopt};
    });
  }

  /// Operator diagonal (viscous Jacobi preconditioner): the scalar form
  /// probed on the velocity space, copied into the three component blocks
  /// of each cell.
  void compute_diagonal(VectorType &diag) const
  {
    VectorType scalar;
    probe_diagonal<1>(*mf_, space_, quad_, *this, scalar);
    diag.reinit(n_dofs(), true);
    const std::size_t npc = mf_->dofs_per_cell(space_);
    for (std::size_t cell = 0; cell < mf_->n_cells(); ++cell)
      for (unsigned int c = 0; c < dim; ++c)
        std::copy(scalar.data() + cell * npc, scalar.data() + (cell + 1) * npc,
                  diag.data() + (dim * cell + c) * npc);
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
  Number nu_ = Number(1);
  Number mass_factor_ = Number(0);
};

} // namespace dgflow
