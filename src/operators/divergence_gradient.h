#pragma once

// The mixed-space coupling operators of the splitting scheme: velocity
// divergence D(U) tested with pressure functions and pressure gradient G(P)
// tested with velocity functions, both with central fluxes (paper Section
// 2.3). With homogeneous boundary data the two are negative adjoints of
// each other, which the test suite verifies.
//
// Both operators follow the unified evaluation interface documented in
// operators/README.md (contract v2): hooked vmult(dst, src, pre, post) for
// the homogeneous action, apply for the time-dependent action with
// inhomogeneous boundary data. The spaces differ between src and dst, so
// the pre hooks tile the src space's cell blocks and the post hooks the
// dst space's.

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"
#include "operators/convective_operator.h"

namespace dgflow
{
template <typename Number>
class DivergenceOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int p_space, const unsigned int quad,
              const FlowBoundaryMap &bc)
  {
    mf_ = &mf;
    u_space_ = u_space;
    p_space_ = p_space;
    quad_ = quad;
    bc_ = &bc;
  }

  /// dst (pressure space) = weak divergence of src (velocity space) with
  /// inhomogeneous velocity boundary data g_u evaluated at time @p t.
  void apply(VectorType &dst, const VectorType &src, const double t) const
  {
    dst.reinit(mf_->n_dofs(p_space_, 1), true);
    dst = Number(0);
    apply_add(dst, src, t, true, NoRangeHook(), NoRangeHook());
  }

  /// Homogeneous action (boundary data zeroed).
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(mf_->n_dofs(p_space_, 1), true);
    dst = Number(0);
    apply_add(dst, src, 0., false, std::forward<PreFn>(pre),
              std::forward<PostFn>(post));
  }

private:
  template <typename PreFn, typename PostFn>
  void apply_add(VectorType &dst, const VectorType &src, const double t,
                 const bool use_boundary_values, PreFn &&pre,
                 PostFn &&post) const
  {
    DGFLOW_PROF_SCOPE("divergence");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("divergence", std::max(src.size(), dst.size()));

    const auto make_kernels = [&, this](auto &dst_v) {
      auto u = std::make_shared<FEEvaluation<Number, 3>>(*mf_, u_space_, quad_);
      auto q_test =
        std::make_shared<FEEvaluation<Number, 1>>(*mf_, p_space_, quad_);
      auto u_m = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, u_space_, quad_, true);
      auto u_p = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, u_space_, quad_, false);
      auto q_m = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, p_space_, quad_, true);
      auto q_p = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, p_space_, quad_, false);

      const auto cell = [u, q_test, &dst_v, &src](const unsigned int b) {
        u->reinit(b);
        q_test->reinit(b);
        u->read_dof_values(src);
        u->evaluate(true, false);
        for (unsigned int q = 0; q < u->n_q_points; ++q)
          q_test->submit_gradient(-u->get_value(q), q);
        q_test->integrate(false, true);
        q_test->distribute_local_to_global(dst_v);
      };

      const auto inner = [u_m, u_p, q_m, q_p, &dst_v,
                          &src](const unsigned int b) {
        u_m->reinit(b);
        u_p->reinit(b);
        q_m->reinit(b);
        q_p->reinit(b);
        u_m->read_dof_values(src);
        u_p->read_dof_values(src);
        u_m->evaluate(true, false);
        u_p->evaluate(true, false);
        for (unsigned int q = 0; q < u_m->n_q_points; ++q)
        {
          const Tensor1<VA> n = u_m->get_normal_vector(q);
          const VA flux =
            Number(0.5) * dot(u_m->get_value(q) + u_p->get_value(q), n);
          q_m->submit_value(flux, q);
          q_p->submit_value(-flux, q);
        }
        q_m->integrate(true, false);
        q_p->integrate(true, false);
        q_m->distribute_local_to_global(dst_v);
        q_p->distribute_local_to_global(dst_v);
      };

      const auto boundary = [u_m, q_m, &dst_v, &src, t, use_boundary_values,
                             this](const unsigned int b) {
        u_m->reinit(b);
        q_m->reinit(b);
        const FlowBoundary &bdata = bc_->at(u_m->boundary_id());
        u_m->read_dof_values(src);
        u_m->evaluate(true, false);
        for (unsigned int q = 0; q < u_m->n_q_points; ++q)
        {
          const Tensor1<VA> n = u_m->get_normal_vector(q);
          Tensor1<VA> uhat = u_m->get_value(q);
          if (bdata.kind == FlowBoundary::Kind::velocity_dirichlet)
          {
            // ghost mirroring u+ = 2g - u- gives the central flux {u} = g
            if (use_boundary_values)
              uhat = ConvectiveOperator<Number>::evaluate_vector(
                bdata.velocity, *u_m, q, t);
            else
              uhat = Tensor1<VA>();
          }
          q_m->submit_value(dot(uhat, n), q);
        }
        q_m->integrate(true, false);
        q_m->distribute_local_to_global(dst_v);
      };

      return LoopKernels{cell, inner, boundary};
    };

    cell_face_loop(*mf_, dst, src, mf_->dofs_per_cell(p_space_),
                   3 * mf_->dofs_per_cell(u_space_), make_kernels,
                   std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int u_space_ = 0, p_space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
};

template <typename Number>
class GradientOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int p_space, const unsigned int quad,
              const FlowBoundaryMap &bc)
  {
    mf_ = &mf;
    u_space_ = u_space;
    p_space_ = p_space;
    quad_ = quad;
    bc_ = &bc;
  }

  /// dst (velocity space) = weak pressure gradient of src (pressure space)
  /// with inhomogeneous pressure boundary data g_p evaluated at time @p t.
  void apply(VectorType &dst, const VectorType &src, const double t) const
  {
    dst.reinit(mf_->n_dofs(u_space_, 3), true);
    dst = Number(0);
    apply_add(dst, src, t, true, NoRangeHook(), NoRangeHook());
  }

  /// Homogeneous action (boundary data zeroed).
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(mf_->n_dofs(u_space_, 3), true);
    dst = Number(0);
    apply_add(dst, src, 0., false, std::forward<PreFn>(pre),
              std::forward<PostFn>(post));
  }

private:
  template <typename PreFn, typename PostFn>
  void apply_add(VectorType &dst, const VectorType &src, const double t,
                 const bool use_boundary_values, PreFn &&pre,
                 PostFn &&post) const
  {
    DGFLOW_PROF_SCOPE("gradient");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("gradient", std::max(src.size(), dst.size()));

    const auto make_kernels = [&, this](auto &dst_v) {
      auto p = std::make_shared<FEEvaluation<Number, 1>>(*mf_, p_space_, quad_);
      auto v_test =
        std::make_shared<FEEvaluation<Number, 3>>(*mf_, u_space_, quad_);
      auto p_m = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, p_space_, quad_, true);
      auto p_p = std::make_shared<FEFaceEvaluation<Number, 1>>(
        *mf_, p_space_, quad_, false);
      auto v_m = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, u_space_, quad_, true);
      auto v_p = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, u_space_, quad_, false);

      const auto cell = [p, v_test, &dst_v, &src](const unsigned int b) {
        p->reinit(b);
        v_test->reinit(b);
        p->read_dof_values(src);
        p->evaluate(true, false);
        for (unsigned int q = 0; q < p->n_q_points; ++q)
          v_test->submit_divergence(-p->get_value(q), q);
        v_test->integrate(false, true);
        v_test->distribute_local_to_global(dst_v);
      };

      const auto inner = [p_m, p_p, v_m, v_p, &dst_v,
                          &src](const unsigned int b) {
        p_m->reinit(b);
        p_p->reinit(b);
        v_m->reinit(b);
        v_p->reinit(b);
        p_m->read_dof_values(src);
        p_p->read_dof_values(src);
        p_m->evaluate(true, false);
        p_p->evaluate(true, false);
        for (unsigned int q = 0; q < p_m->n_q_points; ++q)
        {
          const VA phat =
            Number(0.5) * (p_m->get_value(q) + p_p->get_value(q));
          // {p} [v].n: each side tests with its own outward normal
          v_m->submit_value(phat * v_m->get_normal_vector(q), q);
          v_p->submit_value(phat * v_p->get_normal_vector(q), q);
        }
        v_m->integrate(true, false);
        v_p->integrate(true, false);
        v_m->distribute_local_to_global(dst_v);
        v_p->distribute_local_to_global(dst_v);
      };

      const auto boundary = [p_m, v_m, &dst_v, &src, t, use_boundary_values,
                             this](const unsigned int b) {
        p_m->reinit(b);
        v_m->reinit(b);
        const FlowBoundary &bdata = bc_->at(p_m->boundary_id());
        p_m->read_dof_values(src);
        p_m->evaluate(true, false);
        for (unsigned int q = 0; q < p_m->n_q_points; ++q)
        {
          VA phat = p_m->get_value(q);
          if (bdata.kind == FlowBoundary::Kind::pressure)
          {
            // ghost mirroring p+ = 2g - p- gives the central flux {p} = g
            if (use_boundary_values)
            {
              const auto xq = p_m->quadrature_point(q);
              VA g;
              for (unsigned int l = 0; l < VA::width; ++l)
                g[l] = Number(
                  bdata.pressure(Point(xq[0][l], xq[1][l], xq[2][l]), t));
              phat = g;
            }
            else
              phat = VA(Number(0));
          }
          v_m->submit_value(phat * v_m->get_normal_vector(q), q);
        }
        v_m->integrate(true, false);
        v_m->distribute_local_to_global(dst_v);
      };

      return LoopKernels{cell, inner, boundary};
    };

    cell_face_loop(*mf_, dst, src, 3 * mf_->dofs_per_cell(u_space_),
                   mf_->dofs_per_cell(p_space_), make_kernels,
                   std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int u_space_ = 0, p_space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
};

} // namespace dgflow
