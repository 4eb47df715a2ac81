#pragma once

// Symmetric interior penalty (SIP) DG Laplacian, evaluated matrix-free
// (Eq. (7) of the paper): cell loop for the grad-grad term and face loops
// for consistency, adjoint-consistency and penalty terms. This operator is
// the left-hand side of the pressure Poisson equation (2) and the workhorse
// of the multigrid smoother benchmarks (Figs. 6-10).
//
// Evaluation interface per operators/README.md (contract v2): hooked
// vmult(dst, src, pre, post) for the homogeneous action, driven by the
// shared cell_face_loop; inhomogeneous data enters via assemble_rhs.

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"
#include "matrixfree/field_tools.h"
#include "operators/boundary.h"

namespace dgflow
{
template <typename Number>
class LaplaceOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  LaplaceOperator() = default;

  void reinit(const MatrixFree<Number> &mf, const unsigned int space,
              const unsigned int quad, BoundaryMap bc)
  {
    mf_ = &mf;
    space_ = space;
    quad_ = quad;
    bc_ = std::move(bc);
  }

  const MatrixFree<Number> &matrix_free() const { return *mf_; }
  unsigned int space() const { return space_; }
  unsigned int quad() const { return quad_; }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, 1); }

  void initialize_vector(VectorType &v) const { v.reinit(n_dofs()); }

  /// Templated on the vector type (vector-space concept): a serial Vector
  /// runs the classic cell/inner-face/boundary-face loops; a
  /// vmpi::DistributedVector runs this rank's batch ranges with the ghost
  /// exchange overlapped behind the owned-cell loop. dst comes back
  /// owned-only (both sides of a cut face evaluate the full flux and keep
  /// their own side, so no compress is needed); src is left ghosted.
  ///
  /// Contract v2 hooks: pre/post are per-cell-batch DoF-range callbacks
  /// executed by cell_face_loop before the batch's src entries are first
  /// read and after its dst entries are last written (loop_hooks.h); the
  /// defaults compile the scheduling away.
  template <typename VectorType2, typename PreFn = NoRangeHook,
            typename PostFn = NoRangeHook>
  void vmult(VectorType2 &dst, const VectorType2 &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    if constexpr (is_distributed_vector_v<VectorType2>)
      dst.reinit_like(src, true);
    else
      dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("laplace");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("laplace", std::max(src.size(), dst.size()));
    DGFLOW_PROF_GAUGE("laplace_bytes_per_dof",
                      mf_->estimated_vmult_bytes_per_dof(space_, quad_));

    // kernel factory: one evaluator set (with private scratch) per kernel
    // set the loop driver requests — one for the serial sweep, one per
    // thread chunk for the parallel sweep
    const auto make_kernels = [&, this](auto &dst_v) {
      auto phi =
        std::make_shared<FEEvaluation<Number, 1>>(*mf_, space_, quad_);
      auto phi_m = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, space_, quad_, true);
      auto phi_p = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, space_, quad_, false);

      const auto cell = [phi, &dst_v, &src](const unsigned int b) {
        phi->reinit(b);
        phi->read_dof_values(src);
        phi->evaluate(false, true);
        for (unsigned int q = 0; q < phi->n_q_points; ++q)
          phi->submit_gradient(phi->get_gradient(q), q);
        phi->integrate(false, true);
        phi->distribute_local_to_global(dst_v);
      };

      const auto inner = [phi_m, phi_p, &dst_v, &src](const unsigned int b) {
        phi_m->reinit(b);
        phi_p->reinit(b);
        phi_m->read_dof_values(src);
        phi_p->read_dof_values(src);
        phi_m->evaluate(true, true);
        phi_p->evaluate(true, true);
        const VA sigma = phi_m->penalty_parameter();
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const VA jump = phi_m->get_value(q) - phi_p->get_value(q);
          // normal derivative w.r.t. the minus normal on both sides
          const VA avg_dn = Number(0.5) * (phi_m->get_normal_derivative(q) -
                                           phi_p->get_normal_derivative(q));
          const VA flux = sigma * jump - avg_dn;
          phi_m->submit_value(flux, q);
          phi_p->submit_value(-flux, q);
          // -[u] {grad v . n}: each side tests with its own outward normal
          const VA w = Number(-0.5) * jump;
          phi_m->submit_normal_derivative(w, q);
          phi_p->submit_normal_derivative(-w, q);
        }
        phi_m->integrate(true, true);
        phi_p->integrate(true, true);
        phi_m->distribute_local_to_global(dst_v);
        phi_p->distribute_local_to_global(dst_v);
      };

      const auto boundary = [phi_m, &dst_v, &src, this](const unsigned int b) {
        phi_m->reinit(b);
        const BoundaryType type = bc_.type_of(phi_m->boundary_id());
        if (type == BoundaryType::neumann)
          return; // homogeneous operator: no contribution
        phi_m->read_dof_values(src);
        phi_m->evaluate(true, true);
        const VA sigma = phi_m->penalty_parameter();
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const VA u = phi_m->get_value(q);
          const VA dn = phi_m->get_normal_derivative(q);
          // mirror ghost: u+ = -u => jump = 2u, {dn} = dn
          phi_m->submit_value(Number(2) * sigma * u - dn, q);
          phi_m->submit_normal_derivative(-u, q);
        }
        phi_m->integrate(true, true);
        phi_m->distribute_local_to_global(dst_v);
      };

      return LoopKernels{cell, inner, boundary};
    };

    const unsigned int block = mf_->dofs_per_cell(space_);
    cell_face_loop(*mf_, dst, src, block, block, make_kernels,
                   std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  /// Assembles the right-hand side for -laplace(u) = f with Dirichlet data
  /// g_d and Neumann data g_n (normal derivative).
  void assemble_rhs(VectorType &rhs, const ScalarFunction &f,
                    const ScalarFunction &g_d = {},
                    const ScalarFunction &g_n = {}) const
  {
    rhs.reinit(n_dofs());

    if (f)
    {
      FEEvaluation<Number, 1> phi(*mf_, space_, quad_);
      for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
      {
        phi.reinit(b);
        for (unsigned int q = 0; q < phi.n_q_points; ++q)
        {
          const auto xq = phi.quadrature_point(q);
          VA fv;
          for (unsigned int l = 0; l < VA::width; ++l)
            fv[l] = Number(f(Point(xq[0][l], xq[1][l], xq[2][l])));
          phi.submit_value(fv, q);
        }
        phi.integrate(true, false);
        phi.distribute_local_to_global(rhs);
      }
    }

    FEFaceEvaluation<Number, 1> phi_m(*mf_, space_, quad_, true);
    for (unsigned int b = mf_->n_inner_face_batches();
         b < mf_->n_face_batches(); ++b)
    {
      phi_m.reinit(b);
      const BoundaryType type = bc_.type_of(phi_m.boundary_id());
      if (type == BoundaryType::dirichlet && !g_d)
        continue;
      if (type == BoundaryType::neumann && !g_n)
        continue;
      const VA sigma = phi_m.penalty_parameter();
      for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
      {
        const auto xq = phi_m.quadrature_point(q);
        VA g;
        for (unsigned int l = 0; l < VA::width; ++l)
        {
          const Point x(xq[0][l], xq[1][l], xq[2][l]);
          g[l] = Number(type == BoundaryType::dirichlet ? g_d(x) : g_n(x));
        }
        if (type == BoundaryType::dirichlet)
        {
          phi_m.submit_value(Number(2) * sigma * g, q);
          phi_m.submit_normal_derivative(-g, q);
        }
        else
        {
          phi_m.submit_value(g, q);
          phi_m.submit_normal_derivative(VA(Number(0)), q);
        }
      }
      phi_m.integrate(true, true);
      phi_m.distribute_local_to_global(rhs);
    }
  }

  /// Matrix-free computation of the operator diagonal (for the point-Jacobi
  /// preconditioner inside the Chebyshev smoother).
  void compute_diagonal(VectorType &diag) const
  {
    diag.reinit(n_dofs());
    const unsigned int npc = mf_->dofs_per_cell(space_);
    diag_buffer_.resize(npc);

    // cell term
    {
      FEEvaluation<Number, 1> phi(*mf_, space_, quad_);
      for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
      {
        phi.reinit(b);
        for (unsigned int i = 0; i < npc; ++i)
        {
          for (unsigned int j = 0; j < npc; ++j)
            phi.begin_dof_values()[j] = VA(Number(i == j ? 1 : 0));
          phi.evaluate(false, true);
          for (unsigned int q = 0; q < phi.n_q_points; ++q)
            phi.submit_gradient(phi.get_gradient(q), q);
          phi.integrate(false, true);
          diag_buffer_[i] = phi.begin_dof_values()[i];
        }
        for (unsigned int j = 0; j < npc; ++j)
          phi.begin_dof_values()[j] = diag_buffer_[j];
        phi.distribute_local_to_global(diag);
      }
    }

    // face terms: same-side coupling only contributes to the diagonal
    FEFaceEvaluation<Number, 1> phi(*mf_, space_, quad_, true);
    FEFaceEvaluation<Number, 1> phi_outer(*mf_, space_, quad_, false);
    for (unsigned int b = 0; b < mf_->n_face_batches(); ++b)
    {
      const bool interior = b < mf_->n_inner_face_batches();
      unsigned int type = 2; // 2 = skip
      if (interior)
        type = 0;
      else
      {
        phi.reinit(b);
        if (bc_.type_of(phi.boundary_id()) == BoundaryType::dirichlet)
          type = 1;
      }
      if (type == 2)
        continue;

      for (unsigned int side = 0; side < (interior ? 2u : 1u); ++side)
      {
        auto &eval = side == 0 ? phi : phi_outer;
        eval.reinit(b);
        const VA sigma = eval.penalty_parameter();
        for (unsigned int i = 0; i < npc; ++i)
        {
          for (unsigned int j = 0; j < npc; ++j)
            eval.begin_dof_values()[j] = VA(Number(i == j ? 1 : 0));
          eval.evaluate(true, true);
          for (unsigned int q = 0; q < eval.n_q_points; ++q)
          {
            const VA u = eval.get_value(q);
            // dn w.r.t. this side's outward normal
            const VA dn = eval.get_normal_derivative(q);
            if (interior)
            {
              // same-side part of the interior kernel: sigma*u*v
              // - 0.5 dn u v - 0.5 u dn v
              eval.submit_value(sigma * u - Number(0.5) * dn, q);
              eval.submit_normal_derivative(Number(-0.5) * u, q);
            }
            else
            {
              eval.submit_value(Number(2) * sigma * u - dn, q);
              eval.submit_normal_derivative(-u, q);
            }
          }
          eval.integrate(true, true);
          diag_buffer_[i] = eval.begin_dof_values()[i];
        }
        for (unsigned int j = 0; j < npc; ++j)
          eval.begin_dof_values()[j] = diag_buffer_[j];
        eval.distribute_local_to_global(diag);
      }
    }
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  BoundaryMap bc_;
  mutable AlignedVector<VA> diag_buffer_;
};

} // namespace dgflow
