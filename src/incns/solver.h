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
// times. The full time-integration state can be checkpointed to a
// versioned, checksummed binary file and restored for an exact
// (bit-for-bit) resume.

#include <limits>

#include "common/timer.h"
#include "instrumentation/profiler.h"
#include "instrumentation/solve_stats.h"
#include "matrixfree/field_tools.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/convective_operator.h"
#include "operators/divergence_gradient.h"
#include "operators/helmholtz_operator.h"
#include "operators/laplace_operator.h"
#include "operators/mass_operator.h"
#include "operators/penalty_operator.h"
#include "resilience/checkpoint.h"
#include "resilience/ckpt_scheduler.h"
#include "resilience/ckpt_store.h"
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
    double rel_tol_pressure = 1e-6;
    double rel_tol_viscous = 1e-6;
    double rel_tol_projection = 1e-6; ///< penalty step tolerance
    double penalty_zeta = 1.;
    /// SIP penalty safety factor of all operators (see MatrixFree)
    double penalty_safety = 4.;
    /// velocity-scale floor of the penalty parameters in units of h/dt
    /// (damps the spurious projection modes at startup/low flow)
    double penalty_floor = 0.05;
    /// include the extrapolated rotational term -nu curl(omega).n in the
    /// consistent pressure Neumann condition. Required for full temporal
    /// accuracy in viscosity-dominated flows; for convection-dominated
    /// application runs on coarse meshes the second-derivative feedback can
    /// destabilize the explicit extrapolation (cf. Fehn et al. 2017) and
    /// the term may be dropped at O(dt) boundary-local cost.
    bool rotational_pressure_bc = true;
    unsigned int geometry_degree = 2;
    typename HybridMultigrid<float>::Options multigrid;
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
    /// distributed failure detection: when set, advance() opens every time
    /// step with an agreement boundary (resilience/distributed_recovery.h),
    /// so a rank lost during the previous step unwinds all survivors at the
    /// same step instead of hanging them in the next exchange; nullptr (the
    /// default) keeps serial time stepping unchanged
    RecoveryHooks *recovery = nullptr;
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
    data.penalty_safety = prm.penalty_safety;
    mf_.reinit(mesh, geometry, data);

    convective_.reinit(mf_, u_space, quad_over, bc_);
    divergence_.reinit(mf_, u_space, p_space, quad_u, bc_);
    gradient_.reinit(mf_, u_space, p_space, quad_u, bc_);
    helmholtz_.reinit(mf_, u_space, quad_u, bc_, Number(prm.viscosity));
    penalty_.reinit(mf_, u_space, quad_u, Number(prm.penalty_zeta));
    mass_u_.reinit(mf_, u_space, quad_u);
    laplace_.reinit(mf_, p_space, quad_p, pressure_bc_view(bc_));

    auto mg_opts = prm.multigrid;
    mg_opts.geometry_degree = prm.geometry_degree;
    mg_opts.penalty_safety = prm.penalty_safety;
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
        control.rel_tol = prm_.rel_tol_pressure;
        return solve_cg(laplace_, x, b, pressure_mg_, control, cg_p_);
      },
      /*demote_on_failure=*/true);
    pressure_solver_.add_rung(
      "jacobi_cg", [this](VectorType &x, const VectorType &b) {
        SolverControl control;
        control.max_iterations = 100000;
        control.rel_tol = prm_.rel_tol_pressure;
        // Jacobi CG converges slowly and its residual is not monotone;
        // give the plateau detector a generous window
        control.stagnation_window = 5000;
        return solve_cg(laplace_, x, b, pressure_jacobi_, control, cg_p_);
      });

    // viscous diagonal is affine in the mass factor: precompute both parts
    helmholtz_.set_mass_factor(Number(0));
    helmholtz_.compute_diagonal(diag_viscous_);
    diag_mass_.reinit(mf_.n_dofs(u_space, 3));
    {
      VectorType ones(mf_.n_dofs(u_space, 3));
      ones = Number(1);
      mass_u_.vmult(diag_mass_, ones);
    }

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

  /// CFL-admissible time step from the current velocity field (Eq. 6).
  double compute_time_step() const
  {
    if (prm_.fixed_dt > 0)
      return prm_.fixed_dt;
    double min_h_over_u = 1e300;
    FEEvaluation<Number, 3> phi(mf_, u_space, quad_u);
    for (unsigned int b = 0; b < mf_.n_cell_batches(); ++b)
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
        min_h_over_u = std::min(min_h_over_u, hu);
      }
    }
    const TimeStepControl control(prm_.cfl, prm_.degree);
    return std::min(prm_.max_dt, control.next(min_h_over_u, dt_prev_));
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
    if (prm_.recovery)
      prm_.recovery->at_iteration_boundary(true);
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
    maybe_checkpoint();
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
      control.rel_tol = prm_.rel_tol_viscous;
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
      penalty_.update(work_u_, Number(dt), Number(prm_.penalty_floor));
      mass_u_.vmult(rhs_u_, work_u_);
      // work_u_ is the initial guess and is solved in place into u^{n+1}
      SolverControl control;
      control.max_iterations = 1000;
      control.rel_tol = prm_.rel_tol_projection;
      InverseMassPreconditioner precond{&mass_u_};
      const auto result =
        solve_cg(penalty_, work_u_, rhs_u_, precond, control, cg_u_);
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

  /// Convenience wrapper: atomically writes a standalone checkpoint file.
  void save_checkpoint(const std::string &path) const
  {
    resilience::CheckpointWriter writer(path);
    serialize(writer);
    writer.close();
  }

  /// Convenience wrapper: validates and restores a standalone checkpoint.
  void load_checkpoint(const std::string &path)
  {
    resilience::CheckpointReader reader(path);
    deserialize(reader);
  }

  /// Attaches asynchronous multi-generation checkpointing: advance() then
  /// snapshots the solver state whenever @p scheduler says a checkpoint is
  /// due (every successful step when @p scheduler is null — the cadence
  /// tests use) and hands the encoded image to @p checkpointer 's
  /// background writer, so the solve never blocks on disk. Both pointers
  /// are borrowed and must outlive the solver's stepping; pass nullptr to
  /// detach.
  void set_checkpointing(resilience::AsyncCheckpointer *checkpointer,
                         resilience::CheckpointScheduler *scheduler = nullptr)
  {
    checkpointer_ = checkpointer;
    ckpt_scheduler_ = scheduler;
    ckpt_clock_.restart();
  }

  /// Takes a checkpoint if one is attached and due. A failed checkpoint
  /// *write* must never kill a healthy solve: failures surface only in
  /// last_checkpoint_error() / the ckpt_write_failures counter, and the
  /// previous committed generation remains the restart point.
  void maybe_checkpoint()
  {
    if (checkpointer_ == nullptr)
      return;
    const double now = ckpt_clock_.seconds();
    if (ckpt_scheduler_ != nullptr && !ckpt_scheduler_->should_checkpoint(now))
    {
      ckpt_scheduler_->observe(now);
      return;
    }
    checkpoint_now();
  }

  /// Unconditionally snapshots and submits one checkpoint generation. The
  /// measured cost is the solver-visible stall only — serialize + encode +
  /// any back-pressure wait — which is exactly the δ the scheduler's Daly
  /// formula wants; the disk write happens on the background thread.
  void checkpoint_now()
  {
    DGFLOW_ASSERT(checkpointer_ != nullptr, "no AsyncCheckpointer attached");
    Timer stall;
    try
    {
      resilience::CheckpointWriter writer("state.ckpt"); // encode-only: no disk
      serialize(writer);
      std::vector<resilience::AsyncCheckpointer::NamedImage> images;
      images.push_back({"state.ckpt", writer.encode()});
      checkpointer_->submit(std::move(images));
      DGFLOW_PROF_COUNT("ckpt_writes", 1);
    }
    catch (const resilience::CheckpointError &e)
    {
      last_checkpoint_error_ = e.what();
      DGFLOW_PROF_COUNT("ckpt_write_failures", 1);
    }
    // background write failures land in the checkpointer's status; mirror
    // the most recent one so diagnostics need only ask the solver
    const auto status = checkpointer_->status();
    if (status.failed > 0)
      last_checkpoint_error_ = status.last_error;
    const double cost = stall.seconds();
    DGFLOW_PROF_GAUGE("ckpt_stall_seconds", cost);
    if (ckpt_scheduler_ != nullptr)
    {
      ckpt_scheduler_->record_checkpoint_cost(cost);
      ckpt_scheduler_->checkpoint_taken(ckpt_clock_.seconds());
    }
  }

  /// Restores solver state from the newest checkpoint generation whose
  /// files all verify, falling back generation by generation (the recovery
  /// scan); false when no generation survives verification. Drains the
  /// background writer first so a write in flight cannot race the scan.
  bool restore_latest()
  {
    DGFLOW_ASSERT(checkpointer_ != nullptr, "no AsyncCheckpointer attached");
    checkpointer_->drain();
    const auto generation =
      checkpointer_->store().newest_valid_generation();
    if (!generation)
      return false;
    resilience::CheckpointReader reader(
      checkpointer_->store().generation_directory(*generation) +
      "/state.ckpt");
    deserialize(reader);
    return true;
  }

  /// what() of the most recent failed checkpoint write ("" if none failed).
  const std::string &last_checkpoint_error() const
  {
    return last_checkpoint_error_;
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
    FEEvaluation<Number, 3> phi(mf_, u_space, quad_u);
    double err = 0;
    for (unsigned int b = 0; b < mf_.n_cell_batches(); ++b)
    {
      phi.reinit(b);
      phi.read_dof_values(u_);
      phi.evaluate(false, true);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        const VA d = phi.get_divergence(q);
        const VA jxw = phi.JxW(q);
        for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
          err += double(d[l]) * double(d[l]) * double(jxw[l]);
      }
    }
    return std::sqrt(err);
  }

private:
  struct InverseMassPreconditioner
  {
    const MassOperator<Number, 3> *mass;
    void vmult(VectorType &dst, const VectorType &src) const
    {
      mass->apply_inverse(dst, src);
    }
  };

  /// diag_combined_ = diagonal of the Helmholtz operator at @p mass_factor
  void update_viscous_diagonal(const Number mass_factor)
  {
    diag_combined_.reinit(diag_viscous_.size(), true);
    Number *DGFLOW_RESTRICT d = diag_combined_.data();
    const Number *DGFLOW_RESTRICT dm = diag_mass_.data();
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
    FEEvaluation<Number, 3> phi(mf_, u_space, quad_u);
    const unsigned int npc = phi.dofs_per_component;
    for (unsigned int b = 0; b < mf_.n_cell_batches(); ++b)
    {
      phi.reinit(b);
      phi.read_dof_values(u);
      phi.evaluate(false, true);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        const Tensor2<VA> g = phi.get_gradient(q);
        phi.begin_dof_values()[0 * npc + q] = g[2][1] - g[1][2];
        phi.begin_dof_values()[1 * npc + q] = g[0][2] - g[2][0];
        phi.begin_dof_values()[2 * npc + q] = g[1][0] - g[0][1];
      }
      phi.set_dof_values(w);
    }
  }

  /// Pressure boundary contributions of Eq. (2): inhomogeneous Dirichlet
  /// data g_p on pressure boundaries and the consistent Neumann data
  /// h = -(dg_u/dt + extrapolated [(u.grad)u + nu curl(curl u)]).n on
  /// velocity boundaries (Karniadakis et al. 1991 / Fehn et al. 2017).
  void add_pressure_boundary_rhs(VectorType &rhs, const double t_new,
                                 const BDFCoefficients &bdf)
  {
    FEFaceEvaluation<Number, 1> q_test(mf_, p_space, quad_p, true);
    FEFaceEvaluation<Number, 3> w_now(mf_, u_space, quad_p, true);
    FEFaceEvaluation<Number, 3> w_prev(mf_, u_space, quad_p, true);

    for (unsigned int b = mf_.n_inner_face_batches(); b < mf_.n_face_batches();
         ++b)
    {
      q_test.reinit(b);
      const FlowBoundary &bdata = bc_.at(q_test.boundary_id());

      if (bdata.kind == FlowBoundary::Kind::pressure)
      {
        // SIP Dirichlet data terms for g_p(t_new)
        const VA sigma = q_test.penalty_parameter();
        for (unsigned int q = 0; q < q_test.n_q_points; ++q)
        {
          const auto xq = q_test.quadrature_point(q);
          VA g;
          for (unsigned int l = 0; l < VA::width; ++l)
            g[l] = Number(
              bdata.pressure(Point(xq[0][l], xq[1][l], xq[2][l]), t_new));
          q_test.submit_value(Number(2) * sigma * g, q);
          q_test.submit_normal_derivative(-g, q);
        }
        q_test.integrate(true, true);
        q_test.distribute_local_to_global(rhs);
      }
      else
      {
        // consistent pressure Neumann data (du_g/dt + extrapolated
        // convective term; the viscous curl-curl contribution is omitted,
        // see DESIGN.md)
        const bool use_rot = prm_.rotational_pressure_bc;
        const bool have_old =
          use_rot && step_count_ > 0 && bdf.beta[1] != 0.;
        if (use_rot)
        {
          w_now.reinit(b);
          w_now.read_dof_values(vort_);
          w_now.evaluate(false, true);
        }
        if (have_old)
        {
          w_prev.reinit(b);
          w_prev.read_dof_values(vort_old_);
          w_prev.evaluate(false, true);
        }
        const Number nu = Number(prm_.viscosity);
        // The consistent Neumann condition dp/dn = -(du_g/dt + (u.grad)u +
        // nu curl(omega)).n interacts with the divergence term D(u_hat)
        // whose wall trace is replaced by g(t^{n+1}): the BDF combination
        // (alpha_i g - gamma0 g(t^{n+1}))/dt reproduces -du_g/dt.n to the
        // scheme's order, and the convective flux cancels against the
        // convective part of u_hat. What remains to be supplied explicitly
        // is only the extrapolated rotational term -nu curl(omega).n.
        auto viscous_curl = [nu](const FEFaceEvaluation<Number, 3> &w,
                                 const unsigned int q) {
          const Tensor2<VA> wg = w.get_gradient(q);
          return Tensor1<VA>(nu * (wg[2][1] - wg[1][2]),
                             nu * (wg[0][2] - wg[2][0]),
                             nu * (wg[1][0] - wg[0][1]));
        };
        for (unsigned int q = 0; q < q_test.n_q_points; ++q)
        {
          const Tensor1<VA> n = q_test.get_normal_vector(q);
          Tensor1<VA> h;
          if (use_rot)
            h = Number(bdf.beta[0]) * viscous_curl(w_now, q);
          if (have_old)
            h += Number(bdf.beta[1]) * viscous_curl(w_prev, q);
          q_test.submit_value(-dot(h, n), q);
          q_test.submit_normal_derivative(VA(Number(0)), q);
        }
        q_test.integrate(true, true);
        q_test.distribute_local_to_global(rhs);
      }
    }
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
  LaplaceOperator<Number> laplace_;
  HybridMultigrid<float> pressure_mg_;
  PreconditionJacobi<Number> pressure_jacobi_;
  PreconditionJacobi<Number> viscous_jacobi_;

  VectorType u_, u_old_, p_, p_old_;
  VectorType conv_, conv_old_;
  VectorType vort_, vort_old_;
  VectorType u_hat_, rhs_u_, rhs_p_, work_u_, work_p_;
  VectorType diag_viscous_, diag_mass_, diag_combined_;

  // resident Krylov vectors: nothing solution-sized is allocated inside
  // advance() once the first step has sized them
  CGWorkspace<VectorType> cg_u_; ///< viscous and penalty solves
  CGWorkspace<VectorType> cg_p_; ///< both pressure ladder rungs

  resilience::RecoveringSolver<Number> pressure_solver_;

  double time_ = 0, dt_prev_ = 0;
  unsigned long step_count_ = 0;

  // asynchronous checkpointing (set_checkpointing; both borrowed)
  resilience::AsyncCheckpointer *checkpointer_ = nullptr;
  resilience::CheckpointScheduler *ckpt_scheduler_ = nullptr;
  Timer ckpt_clock_; ///< the scheduler's notion of elapsed run time
  std::string last_checkpoint_error_;
};

} // namespace dgflow
