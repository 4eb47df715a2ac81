#pragma once

// Divergence and continuity penalty operator A_pen of the paper (Eq. 5,
// Section 2.3): weakly enforces the pointwise divergence-free constraint and
// normal-velocity continuity after the projection, giving the L2-conforming
// DG space the robustness of H(div)-conforming discretizations. The penalty
// step solves (M + dt * A_pen) u = M u_hat with CG preconditioned by the
// inverse mass operator; the penalty parameters follow Fehn et al. (2018):
// tau_D = zeta * ||u||_e * h_e / (k+1), tau_C = zeta * ||u||_f.
//
// Evaluation interface per operators/README.md (contract v2): hooked
// vmult(dst, src, pre, post) (the operator depends on time only through
// update(), not on boundary data; boundary faces carry no penalty term,
// so the boundary callback of the shared loop is a no-op).

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"
#include "operators/convective_operator.h"

namespace dgflow
{
template <typename Number>
class PenaltyOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int quad, const Number zeta = Number(1))
  {
    mf_ = &mf;
    space_ = u_space;
    quad_ = quad;
    zeta_ = zeta;
    tau_div_.resize(mf.n_cell_batches());
    tau_cont_.resize(mf.n_face_batches());
  }

  /// Recomputes the penalty parameters from the current velocity field and
  /// sets the time step scaling. The velocity scale is floored at
  /// floor_factor * h/dt: the penalty must not vanish at startup from rest,
  /// where it is the only mechanism damping the spurious pressure-projection
  /// modes of the L2-conforming splitting (Fehn et al. 2017).
  void update(const VectorType &u, const Number dt,
              const Number floor_factor = Number(0.05))
  {
    dt_ = dt;
    const unsigned int degree = mf_->degree(space_);

    FEEvaluation<Number, 3> phi(*mf_, space_, quad_);
    std::vector<Number> cell_norm(mf_->n_cells());
    for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
    {
      phi.reinit(b);
      phi.read_dof_values(u);
      phi.evaluate(true, false);
      VA norm_sq(Number(0)), vol(Number(0));
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        const Tensor1<VA> v = phi.get_value(q);
        const VA jxw = phi.JxW(q);
        norm_sq += dot(v, v) * jxw;
        vol += jxw;
      }
      const VA h = mf_->cell_width()[b];
      const VA u_norm =
        sqrt(norm_sq / vol) + floor_factor * h / (dt > Number(0) ? dt : Number(1));
      tau_div_[b] = zeta_ * u_norm * h * Number(1. / (degree + 1));
      const auto &batch = mf_->cell_batch(b);
      for (unsigned int l = 0; l < batch.n_filled; ++l)
        cell_norm[batch.cells[l]] = u_norm[l];
    }

    // face parameter: average of the adjacent cells' velocity scales
    for (unsigned int b = 0; b < mf_->n_face_batches(); ++b)
    {
      const auto &fb = mf_->face_batch(b);
      VA tau(Number(0));
      for (unsigned int l = 0; l < MatrixFree<Number>::n_lanes; ++l)
      {
        Number t = cell_norm[fb.cells_m[l]];
        if (fb.interior)
          t = Number(0.5) * (t + cell_norm[fb.cells_p[l]]);
        tau[l] = zeta_ * t;
      }
      tau_cont_[b] = tau;
    }
  }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, 3); }

  /// dst = (M + dt A_pen) src
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("penalty_op");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("penalty_op", std::max(src.size(), dst.size()));

    const auto make_kernels = [&, this](auto &dst_v) {
      auto phi =
        std::make_shared<FEEvaluation<Number, 3>>(*mf_, space_, quad_);
      auto phi_m = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, true);
      auto phi_p = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, false);

      const auto cell = [phi, &dst_v, &src, this](const unsigned int b) {
        phi->reinit(b);
        phi->read_dof_values(src);
        phi->evaluate(true, true);
        for (unsigned int q = 0; q < phi->n_q_points; ++q)
        {
          phi->submit_value(phi->get_value(q), q);
          phi->submit_divergence(dt_ * tau_div_[b] * phi->get_divergence(q),
                                 q);
        }
        phi->integrate(true, true);
        phi->distribute_local_to_global(dst_v);
      };

      const auto inner = [phi_m, phi_p, &dst_v, &src,
                          this](const unsigned int b) {
        phi_m->reinit(b);
        phi_p->reinit(b);
        phi_m->read_dof_values(src);
        phi_p->read_dof_values(src);
        phi_m->evaluate(true, false);
        phi_p->evaluate(true, false);
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const Tensor1<VA> n = phi_m->get_normal_vector(q);
          const VA jump_n =
            dot(phi_m->get_value(q) - phi_p->get_value(q), n);
          const VA w = dt_ * tau_cont_[b] * jump_n;
          // each side tests with its own outward normal
          phi_m->submit_value(w * phi_m->get_normal_vector(q), q);
          phi_p->submit_value(w * phi_p->get_normal_vector(q), q);
        }
        phi_m->integrate(true, false);
        phi_p->integrate(true, false);
        phi_m->distribute_local_to_global(dst_v);
        phi_p->distribute_local_to_global(dst_v);
      };

      // no boundary penalty term, but the loop still drives the hook schedule
      const auto boundary = [](const unsigned int) {};

      return LoopKernels{cell, inner, boundary};
    };

    const unsigned int block = 3 * mf_->dofs_per_cell(space_);
    cell_face_loop(*mf_, dst, src, block, block, make_kernels,
                   std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  Number zeta_ = Number(1);
  Number dt_ = Number(0);
  AlignedVector<VA> tau_div_;
  AlignedVector<VA> tau_cont_;
};

} // namespace dgflow
