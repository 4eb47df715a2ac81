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
// inhomogeneous boundary data. Each writes only its mixed weak form, as
// integrals on trial and test evaluators, and both entry points run them
// through apply_weak_form with a data binder (ZeroData or the flow binders
// of operators/boundary.h). The spaces differ between src and dst, so the
// pre hooks tile the src space's cell blocks and the post hooks the dst
// space's.

#include "instrumentation/profiler.h"
#include "matrixfree/operator_diagonal.h"
#include "operators/boundary.h"

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
    DGFLOW_PROF_SCOPE("divergence");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("divergence", std::max(src.size(), dst.size()));
    apply_weak_form<1>(*mf_, p_space_, quad_, *this, dst, src,
                       velocity_data(*bc_, t), NoRangeHook(), NoRangeHook(),
                       TrialSpace<3>{u_space_});
  }

  /// Homogeneous action (boundary data zeroed).
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(mf_->n_dofs(p_space_, 1), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("divergence");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("divergence", std::max(src.size(), dst.size()));
    apply_weak_form<1>(*mf_, p_space_, quad_, *this, dst, src, ZeroData(),
                       std::forward<PreFn>(pre), std::forward<PostFn>(post),
                       TrialSpace<3>{u_space_});
  }

  /// The weak form, as the integrals apply_weak_form runs: velocity trial
  /// evaluators u, pressure test evaluators q.
  template <typename TrialEval, typename TestEval>
  void cell_integral(TrialEval &u, TestEval &q_test) const
  {
    u.evaluate(true, false);
    for (unsigned int q = 0; q < u.n_q_points; ++q)
      q_test.submit_gradient(-u.get_value(q), q);
    q_test.integrate(false, true);
  }

  template <typename TrialFace, typename TestFace>
  void face_integral(TrialFace &u_m, TrialFace &u_p, TestFace &q_m,
                     TestFace &q_p) const
  {
    u_m.evaluate(true, false);
    u_p.evaluate(true, false);
    for (unsigned int q = 0; q < u_m.n_q_points; ++q)
    {
      const Tensor1<VA> n = u_m.get_normal_vector(q);
      const VA flux = Number(0.5) * dot(u_m.get_value(q) + u_p.get_value(q), n);
      q_m.submit_value(flux, q);
      q_p.submit_value(-flux, q);
    }
    q_m.integrate(true, false);
    q_p.integrate(true, false);
  }

  /// Every boundary face carries a flux.
  bool has_boundary_integral(const unsigned int) const { return true; }

  /// Velocity Dirichlet faces: the mirror u+ = 2g - u- gives the central
  /// flux {u} = g from the data binder g; pressure faces: u+ = u-.
  template <typename TrialFace, typename TestFace, typename Data>
  void boundary_integral(TrialFace &u_m, TestFace &q_m, const Data &g) const
  {
    const FlowBoundary &bdata = bc_->at(u_m.boundary_id());
    u_m.evaluate(true, false);
    const auto g_q = g(u_m);
    for (unsigned int q = 0; q < u_m.n_q_points; ++q)
    {
      const Tensor1<VA> n = u_m.get_normal_vector(q);
      const Tensor1<VA> uhat =
        bdata.kind == FlowBoundary::Kind::velocity_dirichlet ? g_q(q)
                                                             : u_m.get_value(q);
      q_m.submit_value(dot(uhat, n), q);
    }
    q_m.integrate(true, false);
  }

private:
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
    DGFLOW_PROF_SCOPE("gradient");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("gradient", std::max(src.size(), dst.size()));
    apply_weak_form<3>(*mf_, u_space_, quad_, *this, dst, src,
                       pressure_data(*bc_, t), NoRangeHook(), NoRangeHook(),
                       TrialSpace<1>{p_space_});
  }

  /// Homogeneous action (boundary data zeroed).
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(mf_->n_dofs(u_space_, 3), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("gradient");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("gradient", std::max(src.size(), dst.size()));
    apply_weak_form<3>(*mf_, u_space_, quad_, *this, dst, src, ZeroData(),
                       std::forward<PreFn>(pre), std::forward<PostFn>(post),
                       TrialSpace<1>{p_space_});
  }

  /// The weak form, as the integrals apply_weak_form runs: pressure trial
  /// evaluators p, velocity test evaluators v.
  template <typename TrialEval, typename TestEval>
  void cell_integral(TrialEval &p, TestEval &v_test) const
  {
    p.evaluate(true, false);
    for (unsigned int q = 0; q < p.n_q_points; ++q)
      v_test.submit_divergence(-p.get_value(q), q);
    v_test.integrate(false, true);
  }

  template <typename TrialFace, typename TestFace>
  void face_integral(TrialFace &p_m, TrialFace &p_p, TestFace &v_m,
                     TestFace &v_p) const
  {
    p_m.evaluate(true, false);
    p_p.evaluate(true, false);
    for (unsigned int q = 0; q < p_m.n_q_points; ++q)
    {
      const VA phat = Number(0.5) * (p_m.get_value(q) + p_p.get_value(q));
      // {p} [v].n: each side tests with its own outward normal
      v_m.submit_value(phat * v_m.get_normal_vector(q), q);
      v_p.submit_value(phat * v_p.get_normal_vector(q), q);
    }
    v_m.integrate(true, false);
    v_p.integrate(true, false);
  }

  /// Every boundary face carries a flux.
  bool has_boundary_integral(const unsigned int) const { return true; }

  /// Pressure faces: the mirror p+ = 2g - p- gives the central flux {p} = g
  /// from the data binder g; velocity Dirichlet faces: p+ = p-.
  template <typename TrialFace, typename TestFace, typename Data>
  void boundary_integral(TrialFace &p_m, TestFace &v_m, const Data &g) const
  {
    const FlowBoundary &bdata = bc_->at(p_m.boundary_id());
    p_m.evaluate(true, false);
    const auto g_q = g(p_m);
    for (unsigned int q = 0; q < p_m.n_q_points; ++q)
    {
      const VA phat = bdata.kind == FlowBoundary::Kind::pressure
                        ? g_q(q)
                        : p_m.get_value(q);
      v_m.submit_value(phat * v_m.get_normal_vector(q), q);
    }
    v_m.integrate(true, false);
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int u_space_ = 0, p_space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
};

} // namespace dgflow
