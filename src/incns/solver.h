#pragma once

// The incompressible Navier-Stokes solver: high-order dual splitting scheme
// (paper Eqs. 1-5) with mixed-order DG spaces (velocity degree k, pressure
// degree k-1), adaptive CFL time stepping (Eq. 6), hybrid-multigrid
// preconditioned CG for the pressure Poisson equation and inverse-mass /
// Jacobi preconditioned CG for the projection, viscous and penalty steps.
// Initial guesses of all solves are extrapolated from previous time steps,
// enabling the relaxed solver tolerances used for the application runs
// (Section 5.3).
//
// Resilience: the pressure solve runs on a RecoveringSolver fallback ladder
// (hybrid-multigrid CG, then Jacobi CG with relaxed control); a failed or
// non-finite substep rejects the whole time step — an attempt computes the
// new velocity and pressure in scratch vectors and commits them (by swaps)
// only when every substep succeeded, so a rejected attempt leaves the BDF
// state untouched; dt is halved and the step retried a bounded number of
// times. serialize()/deserialize() write and restore the full
// time-integration state as checkpoint records for an exact (bit-for-bit)
// resume; when and where those records reach disk is decided by the
// application that owns the run (LungApplication's generation ring).

#include <atomic>
#include <limits>

#include "common/timer.h"
#include "instrumentation/profiler.h"
#include "instrumentation/solve_stats.h"
#include "matrixfree/field_tools.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/boundary.h"
#include "operators/convective_operator.h"
#include "operators/divergence_gradient.h"
#include "operators/helmholtz_operator.h"
#include "operators/laplace_operator.h"
#include "operators/mass_operator.h"
#include "operators/penalty_operator.h"
#include "resilience/checkpoint.h"
#include "resilience/recovering_solver.h"
#include "timeint/bdf.h"

namespace dgflow
{
template <typename Number = double>
class INSSolver
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  struct Parameters
  {
    unsigned int degree = 3;        ///< velocity degree k (pressure k-1)
    double viscosity = 1.7e-5;      ///< kinematic viscosity
    double cfl = 0.4;
    double fixed_dt = 0.;           ///< > 0 disables the CFL controller
    double max_dt = 1e30;
    /// relative tolerance of the pressure, viscous and penalty solves
    double rel_tol = 1e-6;
    /// include the extrapolated rotational term -nu curl(omega).n in the
    /// consistent pressure Neumann condition. Required for full temporal
    /// accuracy in viscosity-dominated flows; for convection-dominated
    /// application runs on coarse meshes the second-derivative feedback can
    /// destabilize the explicit extrapolation (cf. Fehn et al. 2017) and
    /// the term may be dropped at O(dt) boundary-local cost.
    bool rotational_pressure_bc = true;
    unsigned int geometry_degree = 2;
    /// optional analytic velocity Neumann data on pressure boundaries
    VectorFunctionT velocity_neumann_data;
    /// bounded time-step rejection: a failed or non-finite substep rolls
    /// the BDF state back, halves dt and retries at most this many times
    unsigned int max_step_rejections = 5;
    /// deterministic fault hook (testing): when set and returning true for
    /// (step, attempt), a NaN is injected into the intermediate velocity
    /// after the convective step, exercising rejection/rollback end-to-end
    std::function<bool(unsigned long step, unsigned int attempt)>
      inject_substep_fault;
  };

  /// Per-step record: one SolveStats per implicit substep (produced by the
  /// instrumented solve_cg), plus the step's time, dt and wall time.
  struct StepInfo
  {
    double time = 0;     ///< time after the step
    double dt = 0;       ///< dt actually taken (halved on rejections)
    double wall_time = 0;
    SolveStats pressure; ///< pressure Poisson solve
    SolveStats viscous;  ///< viscous Helmholtz solve
    SolveStats penalty;  ///< divergence/continuity penalty solve
    /// number of rejected attempts before this step succeeded
    unsigned int rejections = 0;
    bool success = true;
    /// which substep failed on the last rejected attempt (diagnostics)
    std::string failed_stage;
  };

  /// SIP penalty safety factor of the flow solver's operators and pressure
  /// multigrid (MatrixFree::AdditionalData::penalty_safety): the textbook
  /// penalty is not coercive on the sheared lung junction cells.
  static constexpr double penalty_safety = 4.;

  void setup(const Mesh &mesh, const Geometry &geometry, FlowBoundaryMap bc,
             const Parameters &prm)
  {
    prm_ = prm;
    bc_ = std::move(bc);
    DGFLOW_ASSERT(prm.degree >= 2, "velocity degree must be at least 2");
    const unsigned int k = prm.degree;

    bool has_pressure_boundary = false;
    for (const auto &[id, b] : bc_)
      has_pressure_boundary |= (b.kind == FlowBoundary::Kind::pressure);
    DGFLOW_ASSERT(has_pressure_boundary,
                  "need at least one pressure (outflow) boundary; the pure "
                  "Dirichlet case with a pressure nullspace is not supported");

    typename MatrixFree<Number>::AdditionalData data;
    data.degrees = {k, k - 1};
    data.basis_types = {BasisType::lagrange_gauss, BasisType::lagrange_gauss};
    data.n_q_points_1d = {k + 1, k, k + 2};
    data.geometry_degree = prm.geometry_degree;
    data.penalty_safety = penalty_safety;
    mf_.reinit(mesh, geometry, data);

    convective_.reinit(mf_, u_space, quad_over, bc_);
    divergence_.reinit(mf_, u_space, p_space, quad_u, bc_);
    gradient_.reinit(mf_, u_space, p_space, quad_u, bc_);
    helmholtz_.reinit(mf_, u_space, quad_u, bc_, Number(prm.viscosity));
    penalty_.reinit(mf_, u_space, quad_u);
    mass_u_.reinit(mf_, u_space, quad_u);
    laplace_.reinit(mf_, p_space, quad_p, pressure_bc_view(bc_));

    typename HybridMultigrid<float>::Options mg_opts;
    mg_opts.geometry_degree = prm.geometry_degree;
    mg_opts.penalty_safety = penalty_safety;
    pressure_mg_.setup(mesh, geometry, k - 1, pressure_bc_view(bc_), mg_opts);
    {
      // Jacobi fallback for meshes whose worst cells defeat the smoother
      VectorType diag_p;
      laplace_.compute_diagonal(diag_p);
      pressure_jacobi_.reinit(diag_p);
    }

    // pressure fallback ladder: the fast hybrid-multigrid CG is demoted
    // permanently if it fails (a diverging V-cycle on a pathological mesh
    // stays broken); the robust Jacobi CG with relaxed control backs it up
    pressure_solver_.clear();
    pressure_solver_.add_rung(
      "mg_cg",
      [this](VectorType &x, const VectorType &b) {
        SolverControl control;
        control.max_iterations = 1000;
        control.rel_tol = prm_.rel_tol;
        return solve_cg(laplace_, x, b, pressure_mg_, control, cg_p_);
      },
      /*demote_on_failure=*/true);
    pressure_solver_.add_rung(
      "jacobi_cg", [this](VectorType &x, const VectorType &b) {
        SolverControl control;
        control.max_iterations = 100000;
        control.rel_tol = prm_.rel_tol;
        // Jacobi CG converges slowly and its residual is not monotone;
        // give the plateau detector a generous window
        control.stagnation_window = 5000;
        return solve_cg(laplace_, x, b, pressure_jacobi_, control, cg_p_);
      });

    // viscous diagonal is affine in the mass factor: precompute both parts
    helmholtz_.set_mass_factor(Number(0));
    helmholtz_.compute_diagonal(diag_viscous_);
    inverse_mass_.reinit(mass_u_);

    u_.reinit(mf_.n_dofs(u_space, 3));
    u_old_.reinit(u_.size());
    p_.reinit(mf_.n_dofs(p_space, 1));
    p_old_.reinit(p_.size());
    conv_.reinit(u_.size());
    conv_old_.reinit(u_.size());
    time_ = 0;
    dt_prev_ = 0;
    step_count_ = 0;
  }

  /// Sets initial velocity (and optional pressure) by nodal interpolation.
  void set_initial_condition(const VectorFunction &u0,
                             const ScalarFunction &p0 = {})
  {
    interpolate_vector(mf_, u_space, quad_u, u0, u_);
    if (p0)
      interpolate(mf_, p_space, quad_p, p0, p_);
    u_old_ = u_;
    p_old_ = p_;
  }

  double time() const { return time_; }
  const VectorType &velocity() const { return u_; }
  const VectorType &pressure() const { return p_; }
  const MatrixFree<Number> &matrix_free() const { return mf_; }

  static constexpr unsigned int u_space = 0, p_space = 1;
  static constexpr unsigned int quad_u = 0, quad_p = 1, quad_over = 2;

  /// CFL-admissible time step from the current velocity field (Eq. 6). The
  /// minimum of h/|u| is reduced over ranges of cell batches on the pool; a
  /// min is exact, so dt does not depend on the split.
  double compute_time_step() const
  {
    if (prm_.fixed_dt > 0)
      return prm_.fixed_dt;
    constexpr std::size_t batches_per_chunk = 8;
    std::atomic<double> min_h_over_u{1e300};
    auto &pool = concurrency::ThreadPool::instance();
    const std::size_t n_batches = mf_.n_cell_batches();
    pool.run_ranges(
      n_batches, pool.n_chunks_for(n_batches, batches_per_chunk),
      [&](unsigned int, const std::size_t b0, const std::size_t b1) {
        FEEvaluation<Number, 3> phi(mf_, u_space, quad_u);
        double chunk_min = 1e300;
        for (std::size_t b = b0; b < b1; ++b)
        {
          phi.reinit(b);
          phi.read_dof_values(u_);
          // collocated: dof values are the point values
          VA max_u(Number(0));
          for (unsigned int q = 0; q < phi.n_q_points; ++q)
          {
            Tensor1<VA> v;
            for (unsigned int c = 0; c < dim; ++c)
              v[c] = phi.begin_dof_values()[c * phi.dofs_per_component + q];
            max_u = max(max_u, sqrt(dot(v, v)));
          }
          const VA h = mf_.cell_width()[b];
          for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
          {
            const double hu =
              double(h[l]) / std::max(1e-12, double(max_u[l]));
            chunk_min = std::min(chunk_min, hu);
          }
        }
        concurrency::atomic_min(min_h_over_u, chunk_min);
      });
    const TimeStepControl control(prm_.cfl, prm_.degree);
    return std::min(prm_.max_dt,
                    control.next(min_h_over_u.load(), dt_prev_));
  }

  /// Advances one time step of the dual splitting scheme. A failed substep
  /// (diverged solve, exhausted pressure ladder or non-finite state) rejects
  /// the attempt, which has not touched the BDF state: dt is halved and the
  /// step is retried, at most Parameters::max_step_rejections times before
  /// the (recoverable) exception of the final rejection propagates.
  StepInfo advance()
  {
    DGFLOW_PROF_SCOPE("ins_step");
    DGFLOW_PROF_COUNT("ins_steps", 1);
    Timer total;
    double dt = compute_time_step();
    DGFLOW_ASSERT(dt > 0, "vanishing time step");

    StepInfo info;
    for (unsigned int attempt = 0;; ++attempt)
    {
      info = try_step(dt, attempt);
      info.rejections = attempt;
      if (info.success)
        break;
      DGFLOW_PROF_COUNT("ins_step_rejections", 1);
      DGFLOW_ASSERT(attempt < prm_.max_step_rejections,
                    "time step at t = "
                      << time_ << " rejected " << (attempt + 1)
                      << " times (last failure: " << info.failed_stage
                      << "); giving up at dt = " << dt);
      dt *= 0.5;
    }
    info.wall_time = total.seconds();
    return info;
  }

private:
  /// One attempt at a step of size dt. Returns info.success == false (with
  /// failed_stage set) instead of throwing/aborting on solver failure, so
  /// advance() can retry with a smaller dt. u^{n+1} and p^{n+1} stay in
  /// work_u_ and work_p_ until the final commit; before it, the attempt
  /// writes only scratch state (conv_ and vort_ are recomputed from u^n by
  /// every attempt).
  StepInfo try_step(const double dt, const unsigned int attempt)
  {
    StepInfo info;
    const double t_new = time_ + dt;
    const BDFCoefficients bdf =
      step_count_ == 0 ? BDFCoefficients::bdf1()
                       : BDFCoefficients::bdf2(dt / dt_prev_);

    // (1) explicit convective step
    {
      DGFLOW_PROF_SCOPE("convective_step");
      convective_.apply(conv_, u_, time_);
      // w = M^{-1} (-beta0 C(u^n) - beta1 C(u^{n-1}))
      rhs_u_.reinit(u_.size(), true);
      rhs_u_.equ(Number(-bdf.beta[0]), conv_);
      if (step_count_ > 0)
        rhs_u_.add(Number(-bdf.beta[1]), conv_old_);
      mass_u_.apply_inverse(work_u_, rhs_u_);
      // u_hat = (alpha0 u^n + alpha1 u^{n-1} + dt w) / gamma0
      u_hat_.reinit(u_.size(), true);
      u_hat_.equ(Number(bdf.alpha[0] / bdf.gamma0), u_);
      if (step_count_ > 0)
        u_hat_.add(Number(bdf.alpha[1] / bdf.gamma0), u_old_);
      u_hat_.add(Number(dt / bdf.gamma0), work_u_);
    }

    if (prm_.inject_substep_fault &&
        prm_.inject_substep_fault(step_count_, attempt))
      u_hat_[0] = std::numeric_limits<Number>::quiet_NaN();

    // (2) pressure Poisson equation
    {
      DGFLOW_PROF_SCOPE("pressure");
      if (prm_.rotational_pressure_bc)
        compute_vorticity(vort_, u_);
      divergence_.apply(rhs_p_, u_hat_, t_new);
      rhs_p_.scale(Number(-bdf.gamma0 / dt));
      add_pressure_boundary_rhs(rhs_p_, t_new, bdf);

      // extrapolated initial guess, solved in place into p^{n+1}
      work_p_.reinit(p_.size(), true);
      work_p_.equ(Number(bdf.beta[0]), p_);
      if (step_count_ > 0)
        work_p_.add(Number(bdf.beta[1]), p_old_);

      // a non-finite right-hand side is the convective step's fault, not the
      // pressure solvers': reject the step before it can demote the
      // multigrid rung of the fallback ladder
      if (!std::isfinite(double(rhs_p_.l2_norm())))
      {
        info.success = false;
        info.failed_stage = "pressure_rhs_non_finite";
        return info;
      }

      const SolveStats result = pressure_solver_.solve(work_p_, rhs_p_);
      info.pressure = result;
      DGFLOW_PROF_COUNT("ins_pressure_iterations", result.iterations);
      if (!result.converged)
      {
        info.success = false;
        info.failed_stage =
          std::string("pressure (") + to_string(result.failure) +
          ", ladder rung: " + pressure_solver_.last_rung() + ")";
        return info;
      }
    }

    // (3) projection
    {
      DGFLOW_PROF_SCOPE("projection");
      gradient_.apply(rhs_u_, work_p_, t_new);
      mass_u_.apply_inverse(work_u_, rhs_u_);
      u_hat_.add(Number(-dt / bdf.gamma0), work_u_);
    }

    // (4) viscous step
    {
      DGFLOW_PROF_SCOPE("viscous");
      const Number mass_factor = Number(bdf.gamma0 / dt);
      helmholtz_.set_mass_factor(mass_factor);
      mass_u_.vmult(rhs_u_, u_hat_);
      rhs_u_.scale(mass_factor);
      helmholtz_.add_boundary_rhs(rhs_u_, t_new, prm_.velocity_neumann_data);

      update_viscous_diagonal(mass_factor);
      viscous_jacobi_.reinit(diag_combined_);
      work_u_ = u_hat_; // initial guess
      SolverControl control;
      control.max_iterations = 1000;
      control.rel_tol = prm_.rel_tol;
      const auto result = solve_cg(helmholtz_, work_u_, rhs_u_,
                                   viscous_jacobi_, control, cg_u_);
      info.viscous = result;
      DGFLOW_PROF_COUNT("ins_viscous_iterations", result.iterations);
      if (!result.converged)
      {
        info.success = false;
        info.failed_stage =
          std::string("viscous (") + to_string(result.failure) + ")";
        return info;
      }
    }

    // (5) divergence/continuity penalty step
    {
      DGFLOW_PROF_SCOPE("penalty");
      penalty_.update(work_u_, Number(dt));
      mass_u_.vmult(rhs_u_, work_u_);
      // work_u_ is the initial guess and is solved in place into u^{n+1}
      SolverControl control;
      control.max_iterations = 1000;
      control.rel_tol = prm_.rel_tol;
      const auto result =
        solve_cg(penalty_, work_u_, rhs_u_, inverse_mass_, control, cg_u_);
      info.penalty = result;
      DGFLOW_PROF_COUNT("ins_penalty_iterations", result.iterations);
      if (!result.converged)
      {
        info.success = false;
        info.failed_stage =
          std::string("penalty (") + to_string(result.failure) + ")";
        return info;
      }
    }

    if (!std::isfinite(double(work_u_.l2_norm())) ||
        !std::isfinite(double(work_p_.l2_norm())))
    {
      info.success = false;
      info.failed_stage = "non_finite_state";
      return info;
    }

    // commit: u^{n+1}, p^{n+1} become current, u^n, p^n the old level (the
    // scratch vectors take the dead n-1 level)
    u_old_.swap(u_);
    u_.swap(work_u_);
    p_old_.swap(p_);
    p_.swap(work_p_);
    conv_old_.swap(conv_);
    vort_old_.swap(vort_);
    dt_prev_ = dt;
    time_ = t_new;
    ++step_count_;
    info.time = time_;
    info.dt = dt;
    return info;
  }

public:
  /// Writes the complete time-integration state (bit-for-bit) into an open
  /// checkpoint writer. setup() and set_initial_condition() configuration is
  /// not stored: a restart re-runs the deterministic setup, then deserializes.
  void serialize(resilience::CheckpointWriter &writer) const
  {
    writer.write_u64(step_count_);
    writer.write_double(time_);
    writer.write_double(dt_prev_);
    writer.write_vector(u_);
    writer.write_vector(u_old_);
    writer.write_vector(p_);
    writer.write_vector(p_old_);
    writer.write_vector(conv_);
    writer.write_vector(conv_old_);
    writer.write_vector(vort_);
    writer.write_vector(vort_old_);
  }

  /// Restores the state written by serialize(). Must be called on a solver
  /// that has been setup() with the same mesh/parameters; vector sizes are
  /// validated against the discretization.
  void deserialize(resilience::CheckpointReader &reader)
  {
    step_count_ = reader.read_u64();
    time_ = reader.read_double();
    dt_prev_ = reader.read_double();
    reader.read_vector(u_);
    reader.read_vector(u_old_);
    reader.read_vector(p_);
    reader.read_vector(p_old_);
    reader.read_vector(conv_);
    reader.read_vector(conv_old_);
    reader.read_vector(vort_);
    reader.read_vector(vort_old_);
    DGFLOW_ASSERT(u_.size() == mf_.n_dofs(u_space, 3),
                  "checkpoint velocity size "
                    << u_.size() << " does not match the discretization ("
                    << mf_.n_dofs(u_space, 3)
                    << " dofs): mesh or degree changed between runs");
    DGFLOW_ASSERT(p_.size() == mf_.n_dofs(p_space, 1),
                  "checkpoint pressure size "
                    << p_.size() << " does not match the discretization ("
                    << mf_.n_dofs(p_space, 1) << " dofs)");
  }

  /// The pressure fallback ladder (recovery counters for diagnostics/tests).
  const resilience::RecoveringSolver<Number> &pressure_solver() const
  {
    return pressure_solver_;
  }

  /// Volume flux through all boundary faces with the given id (outward
  /// positive).
  double boundary_flux(const unsigned int boundary_id) const
  {
    FEFaceEvaluation<Number, 3> phi(mf_, u_space, quad_u, true);
    double flux = 0;
    for (unsigned int b = mf_.n_inner_face_batches(); b < mf_.n_face_batches();
         ++b)
    {
      phi.reinit(b);
      if (phi.boundary_id() != boundary_id)
        continue;
      phi.read_dof_values(u_);
      phi.evaluate(true, false);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        const VA un = dot(phi.get_value(q), phi.get_normal_vector(q));
        const VA jxw = phi.JxW(q);
        for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
          flux += double(un[l]) * double(jxw[l]);
      }
    }
    return flux;
  }

  /// L2 norm of the velocity divergence (diagnostic for the penalty step).
  double divergence_l2() const
  {
    return std::sqrt(quadrature_sum<3>(
      mf_, u_space, quad_u, &u_, true,
      [](const auto &phi, const unsigned int q, const unsigned int l,
         double &err) {
        const VA d = phi.get_divergence(q);
        err += double(d[l]) * double(d[l]) * double(phi.JxW(q)[l]);
      }));
  }

private:
  /// diag_combined_ = diagonal of the Helmholtz operator at @p mass_factor
  void update_viscous_diagonal(const Number mass_factor)
  {
    diag_combined_.reinit(diag_viscous_.size(), true);
    Number *DGFLOW_RESTRICT d = diag_combined_.data();
    const Number *DGFLOW_RESTRICT dm = inverse_mass_.mass_diagonal().data();
    const Number *DGFLOW_RESTRICT dv = diag_viscous_.data();
    concurrency::ThreadPool::instance().parallel_for(
      diag_combined_.size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = mass_factor * dm[i] + dv[i];
      });
  }

  /// Projects the vorticity curl(u) onto the velocity space (collocated
  /// nodal evaluation), used by the consistent pressure Neumann condition.
  void compute_vorticity(VectorType &w, const VectorType &u) const
  {
    w.reinit(mf_.n_dofs(u_space, 3), true);
    const auto make_cell = [&u, this](VectorType &w_v) {
      auto phi =
        std::make_shared<FEEvaluation<Number, 3>>(mf_, u_space, quad_u);
      return [phi, &w_v, &u](const unsigned int b) {
        const unsigned int npc = phi->dofs_per_component;
        phi->reinit(b);
        phi->read_dof_values(u);
        phi->evaluate(false, true);
        for (unsigned int q = 0; q < phi->n_q_points; ++q)
        {
          const Tensor2<VA> g = phi->get_gradient(q);
          phi->begin_dof_values()[0 * npc + q] = g[2][1] - g[1][2];
          phi->begin_dof_values()[1 * npc + q] = g[0][2] - g[2][0];
          phi->begin_dof_values()[2 * npc + q] = g[1][0] - g[0][1];
        }
        phi->set_dof_values(w_v);
      };
    };
    const unsigned int block = 3 * mf_.dofs_per_cell(u_space);
    cell_only_loop(mf_, w, u, block, block, make_cell, NoRangeHook(),
                   NoRangeHook());
  }

  /// Pressure boundary contributions of Eq. (2): inhomogeneous Dirichlet
  /// data g_p on pressure boundaries, through the Laplacian's own boundary
  /// integral, and the consistent Neumann data
  /// h = -(dg_u/dt + extrapolated [(u.grad)u + nu curl(curl u)]).n on
  /// velocity boundaries (Karniadakis et al. 1991 / Fehn et al. 2017).
  void add_pressure_boundary_rhs(VectorType &rhs, const double t_new,
                                 const BDFCoefficients &bdf)
  {
    // The consistent Neumann condition dp/dn = -(du_g/dt + (u.grad)u +
    // nu curl(omega)).n interacts with the divergence term D(u_hat) whose
    // wall trace is replaced by g(t^{n+1}): the BDF combination
    // (alpha_i g - gamma0 g(t^{n+1}))/dt reproduces -du_g/dt.n to the
    // scheme's order, and the convective flux cancels against the
    // convective part of u_hat. What remains to be supplied explicitly is
    // only the extrapolated rotational term -nu curl(omega).n, and only
    // with Parameters::rotational_pressure_bc. Per chunk, two velocity
    // face evaluators read the vorticity of steps n and n-1.
    const bool have_old = step_count_ > 0 && bdf.beta[1] != 0.;
    const Number nu = Number(prm_.viscosity);
    const auto rotational = [&, this] {
      auto w_now = std::make_shared<FEFaceEvaluation<Number, 3>>(
        mf_, u_space, quad_p, true);
      auto w_prev = std::make_shared<FEFaceEvaluation<Number, 3>>(
        mf_, u_space, quad_p, true);
      return [w_now, w_prev, &have_old, &nu, &bdf, this](const auto &phi) {
        w_now->reinit(phi.face_batch());
        w_now->read_dof_values(vort_);
        w_now->evaluate(false, true);
        if (have_old)
        {
          w_prev->reinit(phi.face_batch());
          w_prev->read_dof_values(vort_old_);
          w_prev->evaluate(false, true);
        }
        return [&w_now = *w_now, &w_prev = *w_prev, &have_old, &nu, &bdf,
                &phi](const unsigned int q) {
          const auto viscous_curl = [&](const FEFaceEvaluation<Number, 3> &w) {
            const Tensor2<VA> wg = w.get_gradient(q);
            return Tensor1<VA>(nu * (wg[2][1] - wg[1][2]),
                               nu * (wg[0][2] - wg[2][0]),
                               nu * (wg[1][0] - wg[0][1]));
          };
          Tensor1<VA> h = Number(bdf.beta[0]) * viscous_curl(w_now);
          if (have_old)
            h += Number(bdf.beta[1]) * viscous_curl(w_prev);
          return -dot(h, phi.get_normal_vector(q));
        };
      };
    };
    add_data_terms<1>(mf_, p_space, quad_p, laplace_, rhs, [&] {
      return DataTerms{std::optional<ZeroData>(),
                       std::optional(pressure_data(bc_, t_new)),
                       prm_.rotational_pressure_bc ? std::optional(rotational())
                                                   : std::nullopt};
    });
  }

  Parameters prm_;
  FlowBoundaryMap bc_;
  MatrixFree<Number> mf_;

  ConvectiveOperator<Number> convective_;
  DivergenceOperator<Number> divergence_;
  GradientOperator<Number> gradient_;
  HelmholtzOperator<Number> helmholtz_;
  PenaltyOperator<Number> penalty_;
  MassOperator<Number, 3> mass_u_;
  InverseMassPreconditioner<Number> inverse_mass_; ///< of the penalty step
  LaplaceOperator<Number> laplace_;
  HybridMultigrid<float> pressure_mg_;
  PreconditionJacobi<Number> pressure_jacobi_;
  PreconditionJacobi<Number> viscous_jacobi_;

  VectorType u_, u_old_, p_, p_old_;
  VectorType conv_, conv_old_;
  VectorType vort_, vort_old_;
  VectorType u_hat_, rhs_u_, rhs_p_, work_u_, work_p_;
  VectorType diag_viscous_, diag_combined_;

  // resident Krylov vectors: nothing solution-sized is allocated inside
  // advance() once the first step has sized them
  CGWorkspace<VectorType> cg_u_; ///< viscous and penalty solves
  CGWorkspace<VectorType> cg_p_; ///< both pressure ladder rungs

  resilience::RecoveringSolver<Number> pressure_solver_;

  double time_ = 0, dt_prev_ = 0;
  unsigned long step_count_ = 0;
};

} // namespace dgflow
