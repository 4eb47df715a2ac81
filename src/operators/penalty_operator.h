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
// so it has no boundary integral).

#include "instrumentation/profiler.h"
#include "matrixfree/operator_diagonal.h"

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
    cell_norm_.assign(mf.n_cells(), Number(0));
  }

  /// Recomputes the penalty parameters from the current velocity field and
  /// sets the time step scaling. The velocity scale is floored at
  /// floor_factor * h/dt: the penalty must not vanish at startup from rest,
  /// where it is the only mechanism damping the spurious pressure-projection
  /// modes of the L2-conforming splitting (Fehn et al. 2017). Both loops run
  /// on the pool over batch ranges: each cell batch writes its own entries,
  /// each face batch its own parameter.
  void update(const VectorType &u, const Number dt,
              const Number floor_factor = Number(0.05))
  {
    dt_ = dt;
    const unsigned int degree = mf_->degree(space_);
    auto &pool = concurrency::ThreadPool::instance();

    const std::size_t n_cell_batches = mf_->n_cell_batches();
    pool.run_ranges(
      n_cell_batches, pool.n_chunks_for(n_cell_batches, 8),
      [&](unsigned int, const std::size_t b0, const std::size_t b1) {
        FEEvaluation<Number, 3> phi(*mf_, space_, quad_);
        for (std::size_t b = b0; b < b1; ++b)
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
          const VA u_norm = sqrt(norm_sq / vol) +
                            floor_factor * h /
                              (dt > Number(0) ? dt : Number(1));
          tau_div_[b] = zeta_ * u_norm * h * Number(1. / (degree + 1));
          const auto &batch = mf_->cell_batch(b);
          for (unsigned int l = 0; l < batch.n_filled; ++l)
            cell_norm_[batch.cells[l]] = u_norm[l];
        }
      });

    // face parameter: average of the adjacent cells' velocity scales
    const std::size_t n_face_batches = mf_->n_face_batches();
    pool.run_ranges(
      n_face_batches, pool.n_chunks_for(n_face_batches, 64),
      [&](unsigned int, const std::size_t b0, const std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b)
        {
          const auto &fb = mf_->face_batch(b);
          VA tau(Number(0));
          for (unsigned int l = 0; l < MatrixFree<Number>::n_lanes; ++l)
          {
            Number t = cell_norm_[fb.cells_m[l]];
            if (fb.interior)
              t = Number(0.5) * (t + cell_norm_[fb.cells_p[l]]);
            tau[l] = zeta_ * t;
          }
          tau_cont_[b] = tau;
        }
      });
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

    apply_weak_form<3>(*mf_, space_, quad_, *this, dst, src, ZeroData(),
                       std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  /// The weak form, as the integrals apply_weak_form runs: the mass term
  /// and the divergence penalty on the cells, the normal-continuity
  /// penalty on the interior faces.
  template <typename CellEval>
  void cell_integral(CellEval &phi) const
  {
    const VA tau = tau_div_[phi.cell_batch()];
    phi.evaluate(true, true);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      phi.submit_value(phi.get_value(q), q);
      phi.submit_divergence(dt_ * tau * phi.get_divergence(q), q);
    }
    phi.integrate(true, true);
  }

  template <typename FaceEval>
  void face_integral(FaceEval &phi_m, FaceEval &phi_p) const
  {
    const VA tau = tau_cont_[phi_m.face_batch()];
    phi_m.evaluate(true, false);
    phi_p.evaluate(true, false);
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const Tensor1<VA> n = phi_m.get_normal_vector(q);
      const VA jump_n = dot(phi_m.get_value(q) - phi_p.get_value(q), n);
      const VA w = dt_ * tau * jump_n;
      // each side tests with its own outward normal
      phi_m.submit_value(w * phi_m.get_normal_vector(q), q);
      phi_p.submit_value(w * phi_p.get_normal_vector(q), q);
    }
    phi_m.integrate(true, false);
    phi_p.integrate(true, false);
  }

  /// No boundary penalty term; the faces still drive the hook schedule.
  bool has_boundary_integral(const unsigned int) const { return false; }

  template <typename FaceEval, typename Data>
  void boundary_integral(FaceEval &, const Data &) const
  {}

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  Number zeta_ = Number(1);
  Number dt_ = Number(0);
  AlignedVector<VA> tau_div_;
  AlignedVector<VA> tau_cont_;
  std::vector<Number> cell_norm_; ///< velocity scale per cell (update())
};

} // namespace dgflow
