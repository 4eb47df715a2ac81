#pragma once

// Preconditioned conjugate gradient solver. The termination criterion
// follows the paper: the norm of the unpreconditioned residual relative to
// the norm of the right-hand side. The preconditioner may run in a lower
// precision internally (mixed-precision multigrid V-cycle, Section 3.4).
//
// Failure handling: the solver never aborts. Non-finite residuals or inner
// products, residual stagnation and Krylov breakdown all terminate the
// iteration with a failed SolveStats carrying the SolveFailure reason, so
// callers can fall back (RecoveringSolver) or reject the time step.
//
// Workspace: the Krylov vectors (r, z, p, Ap and the ABFT snapshot) live in
// a caller-owned CGWorkspace, so a caller that solves every time step keeps
// them resident instead of faulting in fresh pages per solve; none of them
// is zero-filled, since each is written before it is read. The 5-argument
// overload builds a workspace local to the call and runs the same code.
//
// Fused loops: when the operator implements the contract-v2 hooked vmult
// (HookedOperatorFor), the search-direction update p = beta*p + z rides the
// next vmult's pre hooks (each cell batch's slice updated right before the
// operator reads it) and the x/r updates merge into one sweep — the merged
// solver kernels of Muething et al., saving two full passes of vector
// traffic per iteration. Operators without hooks run the classic loop; the
// arithmetic is element-for-element the same, so both agree bitwise.
//
// ABFT guard: with SolverControl::abft_replay_interval > 0 the solver
// periodically replays the true residual and the CG orthogonality relation
// to catch silent data corruption in its Krylov vectors, rolling back to the
// last validated snapshot on drift (see the SolverControl fields and
// docs/DEVELOPING.md, "Silent data corruption & ABFT"). Off by default: a
// fault-free solve with the guard off is bit-for-bit the pre-guard solver.

#include <cmath>
#include <type_traits>

#include "common/abft_hooks.h"
#include "common/exceptions.h"
#include "common/recovery_hooks.h"
#include "common/timer.h"
#include "common/vector.h"
#include "instrumentation/profiler.h"
#include "instrumentation/solve_stats.h"
#include "solvers/concepts.h"

namespace dgflow
{
struct SolverControl
{
  unsigned int max_iterations = 1000;
  double rel_tol = 1e-10;
  double abs_tol = 0.;
  /// declare stagnation after this many consecutive iterations without any
  /// residual improvement (0 disables the check)
  unsigned int stagnation_window = 100;
  /// distributed failure detection: when set, solve_cg calls the hook at
  /// iteration boundaries (honoring its stride) so all ranks agree on
  /// live-or-dead before the next collective; nullptr (the default) costs
  /// nothing and keeps serial solves unchanged
  RecoveryHooks *recovery = nullptr;

  // --- ABFT silent-data-corruption guard (0 = off, the default) ---
  //
  // Every abft_replay_interval iterations the solver replays the true
  // residual ||b - A x|| and checks two invariants against the recurrence
  // state: the recurrence residual norm must match the replay (a flipped
  // bit in x or r breaks the identity r = b - A x the recurrence otherwise
  // preserves exactly), and the search direction must satisfy the CG
  // orthogonality relation r.p == r.z (a flipped bit in p preserves the
  // residual identity but breaks conjugacy). A passing boundary saves a
  // validated snapshot (x, r, p, r.z); a failing one — or a boundary at
  // which the attached scrubber had to rebuild a checksummed artifact —
  // rolls the iteration back to the last snapshot, so one flip costs at
  // most abft_replay_interval redone iterations instead of a restart. The
  // rollback decision is made from allreduced quantities, so in distributed
  // solves every rank takes it at the same boundary.
  unsigned int abft_replay_interval = 0;
  /// relative drift threshold of both replay invariants; the default sits
  /// orders of magnitude above the floating-point drift of a healthy
  /// recurrence and below any corruption that could survive into a
  /// converged solution at practical tolerances
  double abft_drift_tol = 1e-8;
  /// consecutive failed replays tolerated before the solve gives up with
  /// SolveFailure::sdc_detected (persistent corruption the rollback cannot
  /// clear, e.g. a corrupt operator with no scrubber attached)
  unsigned int abft_max_rollbacks = 3;
  /// checksummed-artifact scrubber (resilience::ArtifactGuard) run at every
  /// replay boundary; a nonzero rebuild count triggers the same rollback as
  /// replay drift so the repaired operator resumes from a validated state
  AbftScrubber *abft_scrub = nullptr;
  /// deterministic compute-side fault injection (resilience::FaultPlan),
  /// fired at every iteration boundary with this rank's Krylov payloads;
  /// testing only — nullptr costs nothing
  AbftInjector *abft_inject = nullptr;
};

/// Identity preconditioner.
struct PreconditionIdentity
{
  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst = src;
  }

  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src)
  {
    dst = src;
  }
};

/// Point-Jacobi preconditioner from a stored inverse diagonal.
template <typename Number>
class PreconditionJacobi
{
public:
  /// Accepts any vector over the local range (serial Vector or the owned
  /// range of a DistributedVector); the inverse diagonal is stored locally.
  template <typename VectorType>
  void reinit(const VectorType &diagonal)
  {
    inv_diag_.reinit(diagonal.size(), true);
    for (std::size_t i = 0; i < diagonal.size(); ++i)
    {
      DGFLOW_ASSERT(std::isfinite(double(diagonal[i])),
                    "non-finite diagonal entry " << double(diagonal[i])
                      << " at index " << i << " of " << diagonal.size()
                      << ": the operator produced NaN/Inf during diagonal "
                         "assembly; refusing to build a Jacobi "
                         "preconditioner that would propagate it silently");
      DGFLOW_ASSERT(diagonal[i] != Number(0), "zero diagonal entry");
      inv_diag_[i] = Number(1) / diagonal[i];
    }
  }

  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    DGFLOW_DEBUG_ASSERT(src.size() == inv_diag_.size(), "size mismatch");
    dst.reinit_like(src, true);
    Number *DGFLOW_RESTRICT d = dst.data();
    const Number *DGFLOW_RESTRICT s = src.data();
    const Number *DGFLOW_RESTRICT inv = inv_diag_.data();
    concurrency::ThreadPool::instance().parallel_for(
      src.size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = inv[i] * s[i];
      });
  }

  const Vector<Number> &inverse_diagonal() const { return inv_diag_; }

private:
  Vector<Number> inv_diag_;
};

/// The Krylov vectors of solve_cg (see the file comment): residual r,
/// preconditioned residual z, search direction p, operator image Ap, and the
/// ABFT guard's validated snapshot (x, r, p), sized only when the guard is
/// on. solve_cg shapes each like b, so a workspace carries no state between
/// solves and may be shared by consecutive (not concurrent) solves. It must
/// not alias x or b.
template <typename VectorType>
struct CGWorkspace
{
  VectorType r, z, p, Ap;
  VectorType snap_x, snap_r, snap_p;
};

/// Solves A x = b with initial guess x; returns the solve statistics. The
/// Krylov vectors live in @p ws (see CGWorkspace); solve_cg allocates
/// nothing once the workspace has reached b's size.
///
/// Templated on the vector type: works unchanged for the serial Vector and
/// for vmpi::DistributedVector, where every dot/norm is one allreduce and
/// the operator vmult performs the ghost exchange. For distributed solves
/// the per-solve vmpi traffic (messages/bytes/allreduces) is published as
/// cg_vmpi_* gauges.
template <typename Operator, typename Preconditioner, typename VectorType>
  requires PreconditionerFor<Preconditioner, VectorType> &&
           OperatorFor<Operator, VectorType>
SolveStats solve_cg(const Operator &A, VectorType &x, const VectorType &b,
                    Preconditioner &P, const SolverControl &control,
                    CGWorkspace<VectorType> &ws)
{
  using Number = typename VectorType::value_type;
  constexpr bool distributed = is_distributed_vector_v<VectorType>;
  constexpr bool hooked = HookedOperatorFor<Operator, VectorType>;
  DGFLOW_PROF_SCOPE("cg");
  Timer solve_timer;
  SolveStats result;
  for (const VectorType *v :
       {&ws.r, &ws.z, &ws.p, &ws.Ap, &ws.snap_x, &ws.snap_r, &ws.snap_p})
    DGFLOW_ASSERT(v != &x && v != &b,
                  "the CG workspace must not alias the solution or the "
                  "right-hand side");
  VectorType &r = ws.r, &z = ws.z, &p = ws.p, &Ap = ws.Ap;
  // each is written before it is read (r and z by the first residual and
  // preconditioner application, p by p = z, Ap by the vmult): no zero fill
  r.reinit_like(b, true);
  z.reinit_like(b, true);
  p.reinit_like(b, true);
  Ap.reinit_like(b, true);

  unsigned long long messages0 = 0, bytes0 = 0, allreduces0 = 0;
  if constexpr (distributed)
  {
    const auto &t = b.communicator().traffic();
    messages0 = t.messages;
    bytes0 = t.bytes;
    allreduces0 = t.allreduces;
  }

  const auto finish = [&](SolveStats &stats) -> SolveStats & {
    stats.seconds = solve_timer.seconds();
    DGFLOW_PROF_COUNT("cg_solves", 1);
    DGFLOW_PROF_COUNT("cg_iterations", stats.iterations);
    if (stats.failed())
      DGFLOW_PROF_COUNT("cg_failures", 1);
    if (stats.residual_replays > 0)
      DGFLOW_PROF_COUNT("abft_residual_replays", stats.residual_replays);
    if (stats.sdc_detected > 0)
      DGFLOW_PROF_COUNT("abft_sdc_detected", stats.sdc_detected);
    if (stats.sdc_rollbacks > 0)
      DGFLOW_PROF_COUNT("abft_rollbacks", stats.sdc_rollbacks);
    if (stats.scrub_rebuilds > 0)
      DGFLOW_PROF_COUNT("abft_scrub_rebuilds", stats.scrub_rebuilds);
    if constexpr (distributed)
    {
      const auto &t = b.communicator().traffic();
      DGFLOW_PROF_GAUGE("cg_vmpi_messages", double(t.messages - messages0));
      DGFLOW_PROF_GAUGE("cg_vmpi_bytes", double(t.bytes - bytes0));
      DGFLOW_PROF_GAUGE("cg_vmpi_allreduces",
                        double(t.allreduces - allreduces0));
    }
    return stats;
  };

  A.vmult(Ap, x);
  r.equ(Number(1), b, Number(-1), Ap);

  const double b_norm = double(b.l2_norm());
  const double tol =
    std::max(control.abs_tol, control.rel_tol * (b_norm > 0 ? b_norm : 1.));

  double res_norm = double(r.l2_norm());
  result.initial_residual = res_norm;
  result.final_residual = res_norm;
  if (!std::isfinite(res_norm))
  {
    result.failure = SolveFailure::non_finite;
    return finish(result);
  }
  if (res_norm <= tol)
  {
    result.converged = true;
    return finish(result);
  }

  P.vmult(z, r);
  p = z;
  Number rz = r.dot(z);

  double best_res = res_norm;
  unsigned int last_improvement = 0;

  // fused mode defers p = beta*p + z into the next vmult's pre hooks
  Number beta = Number(0);
  bool pending_beta = false;

  // ABFT rolling snapshot: the initial state is validated by construction
  // (r was just computed as b - A x directly), so a drift detected at the
  // very first replay boundary can already roll back
  const unsigned int abft_m = control.abft_replay_interval;
  VectorType &snap_x = ws.snap_x, &snap_r = ws.snap_r, &snap_p = ws.snap_p;
  Number snap_rz = rz;
  double snap_res = res_norm;
  unsigned int rollbacks_left = control.abft_max_rollbacks;
  if (abft_m > 0)
  {
    snap_x.reinit_like(x, true);
    snap_r.reinit_like(r, true);
    snap_p.reinit_like(p, true);
    snap_x.equ(Number(1), x);
    snap_r.equ(Number(1), r);
    snap_p.equ(Number(1), p);
  }
  // Restores the last validated snapshot; returns false when the guard is
  // off or the rollback budget is spent (the caller then fails the solve).
  const auto abft_rollback = [&]() -> bool {
    if (abft_m == 0 || rollbacks_left == 0)
      return false;
    --rollbacks_left;
    ++result.sdc_rollbacks;
    x.equ(Number(1), snap_x);
    r.equ(Number(1), snap_r);
    p.equ(Number(1), snap_p);
    rz = snap_rz;
    res_norm = snap_res;
    result.final_residual = res_norm;
    pending_beta = false;
    if constexpr (distributed)
    {
      x.invalidate_ghosts();
      r.invalidate_ghosts();
      p.invalidate_ghosts();
    }
    return true;
  };

  for (unsigned int it = 1; it <= control.max_iterations; ++it)
  {
    // agreement boundary: every rank must reach the verdict *before* the
    // next collective (the dot products below), or a dead peer turns those
    // into timeouts on the survivors
    if (control.recovery &&
        (it == 1 || int(it) % std::max(1, control.recovery->stride()) == 0))
      control.recovery->at_iteration_boundary(std::isfinite(res_norm) &&
                                              std::isfinite(double(rz)));
    if (control.abft_inject)
    {
      // deterministic compute-side bit flips into this rank's Krylov state
      // (testing the guard); the flipped owned entries reach the neighbors'
      // ghost copies at the next exchange like a real in-memory flip would
      int inject_rank = 0;
      if constexpr (distributed)
        inject_rank = x.communicator().rank();
      control.abft_inject->inject("krylov_x", it, inject_rank, x.data(),
                                  x.size() * sizeof(Number));
      control.abft_inject->inject("krylov_r", it, inject_rank, r.data(),
                                  r.size() * sizeof(Number));
      control.abft_inject->inject("krylov_p", it, inject_rank, p.data(),
                                  p.size() * sizeof(Number));
      if constexpr (distributed)
      {
        x.invalidate_ghosts();
        r.invalidate_ghosts();
      }
    }
    if (abft_m > 0 && it > 1 && (it - 1) % abft_m == 0)
    {
      // materialize the deferred search-direction update first so the
      // invariant checks and the snapshot see the true p (the element
      // expression is the one the hook would apply: bitwise identical)
      if (pending_beta)
      {
        p.sadd(beta, Number(1), z);
        pending_beta = false;
      }
      ++result.residual_replays;
      unsigned int rebuilt = 0;
      if (control.abft_scrub)
        rebuilt = control.abft_scrub->scrub();
      result.scrub_rebuilds += rebuilt;
      if constexpr (distributed)
      {
        // the rollback decision below must be collective: a rebuild on one
        // rank only would roll that rank back while its peers proceed,
        // deadlocking the next allreduce
        auto &comm = x.communicator();
        using Op = typename std::remove_reference_t<decltype(comm)>::Op;
        rebuilt = static_cast<unsigned int>(
          comm.allreduce(double(rebuilt), Op::sum));
      }
      // true-residual replay into z (dead here: consumed by the last p
      // update, rewritten by the next P.vmult) and the two invariants; all
      // quantities are allreduced, so every rank takes the same branch
      A.vmult(Ap, x);
      z.equ(Number(1), b, Number(-1), Ap);
      const double true_res = double(z.l2_norm());
      const double res_drift = std::abs(true_res - res_norm);
      const double rp = double(r.dot(p));
      const double orth_drift = std::abs(rp - double(rz));
      const double p_norm = double(p.l2_norm());
      const bool sound =
        std::isfinite(true_res) && std::isfinite(rp) &&
        std::isfinite(p_norm) &&
        res_drift <=
          control.abft_drift_tol * std::max(b_norm > 0 ? b_norm : 1.,
                                            res_norm) &&
        orth_drift <= control.abft_drift_tol *
                        std::max(res_norm * p_norm, std::abs(double(rz)));
      if (sound && rebuilt == 0)
      {
        // validated: refresh the rolling snapshot
        snap_x.equ(Number(1), x);
        snap_r.equ(Number(1), r);
        snap_p.equ(Number(1), p);
        snap_rz = rz;
        snap_res = res_norm;
        rollbacks_left = control.abft_max_rollbacks;
      }
      else
      {
        if (!sound)
          ++result.sdc_detected;
        result.sdc_detected += rebuilt;
        if (!abft_rollback())
        {
          result.failure = SolveFailure::sdc_detected;
          break;
        }
        continue; // redo the window from the validated state
      }
    }
    if constexpr (hooked)
    {
      if (pending_beta)
      {
        // the operator fires this per cell batch right before reading the
        // batch's p entries (cut-face batches before the ghost exchange),
        // so Ap = A * (beta*p + z) without a separate sweep over p
        const Number beta_c = beta;
        Number *DGFLOW_RESTRICT pd = p.data();
        const Number *DGFLOW_RESTRICT zd = z.data();
        A.vmult(Ap, p, [=](const std::size_t r0, const std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i)
            pd[i] = beta_c * pd[i] + zd[i];
        });
        pending_beta = false;
      }
      else
        A.vmult(Ap, p);
    }
    else
      A.vmult(Ap, p);
    const Number pAp = p.dot(Ap);
    if (!std::isfinite(double(pAp)) || !std::isfinite(double(rz)))
    {
      // with the ABFT guard on, a NaN/Inf inner product is treated as
      // suspected corruption and rolled back like a failed replay
      if (abft_m > 0)
      {
        ++result.sdc_detected;
        if (abft_rollback())
          continue;
      }
      result.failure = SolveFailure::non_finite;
      break;
    }
    if (!(pAp > Number(0)))
    {
      // direction numerically exhausted: for the SPD operators used here
      // this means the residual has stagnated at roundoff level relative to
      // the preconditioned system; accept the current iterate if the
      // stagnation happened below a loosened tolerance, else report the
      // breakdown to the caller for recovery (never abort the process)
      result.breakdown = true;
      result.converged = res_norm <= 100. * tol;
      if (!result.converged)
        result.failure = SolveFailure::breakdown;
      break;
    }
    const Number alpha = rz / pAp;
    if constexpr (hooked)
    {
      // one merged sweep instead of two (bitwise equal: the element
      // updates are independent and use the classic expressions)
      Number *DGFLOW_RESTRICT xd = x.data();
      Number *DGFLOW_RESTRICT rd = r.data();
      const Number *DGFLOW_RESTRICT pd = p.data();
      const Number *DGFLOW_RESTRICT apd = Ap.data();
      concurrency::ThreadPool::instance().parallel_for(
        x.size(), [&](const std::size_t i0, const std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i)
          {
            xd[i] += alpha * pd[i];
            rd[i] += (-alpha) * apd[i];
          }
        });
      if constexpr (distributed)
      {
        x.invalidate_ghosts();
        r.invalidate_ghosts();
      }
    }
    else
    {
      x.add(alpha, p);
      r.add(-alpha, Ap);
    }

    res_norm = double(r.l2_norm());
    result.iterations = it;
    result.final_residual = res_norm;
    if (!std::isfinite(res_norm))
    {
      if (abft_m > 0)
      {
        ++result.sdc_detected;
        if (abft_rollback())
          continue;
      }
      result.failure = SolveFailure::non_finite;
      break;
    }
    if (res_norm <= tol)
    {
      if (abft_m > 0)
      {
        // never declare convergence off the recurrence alone: a flip in x
        // leaves the recurrence residual pristine while the returned iterate
        // is garbage, and the next periodic replay may lie past the
        // convergence point (z is dead here, as at the periodic replay)
        ++result.residual_replays;
        A.vmult(Ap, x);
        z.equ(Number(1), b, Number(-1), Ap);
        const double true_res = double(z.l2_norm());
        if (!(std::isfinite(true_res) &&
              std::abs(true_res - res_norm) <=
                control.abft_drift_tol *
                  std::max(b_norm > 0 ? b_norm : 1., res_norm)))
        {
          ++result.sdc_detected;
          if (abft_rollback())
            continue;
          result.failure = SolveFailure::sdc_detected;
          break;
        }
      }
      result.converged = true;
      break;
    }
    if (res_norm < best_res)
    {
      best_res = res_norm;
      last_improvement = it;
    }
    else if (control.stagnation_window > 0 &&
             it - last_improvement >= control.stagnation_window)
    {
      result.failure = SolveFailure::stagnation;
      break;
    }

    P.vmult(z, r);
    const Number rz_new = r.dot(z);
    beta = rz_new / rz;
    rz = rz_new;
    if constexpr (hooked)
      pending_beta = true; // p = beta*p + z rides the next vmult
    else
      p.sadd(beta, Number(1), z);
  }
  if (!result.converged && result.failure == SolveFailure::none)
    result.failure = SolveFailure::max_iterations;
  result.final_residual = res_norm;
  return finish(result);
}

/// solve_cg with a workspace local to this call: for one-off solves, whose
/// Krylov vectors need not outlive them.
template <typename Operator, typename Preconditioner, typename VectorType>
  requires PreconditionerFor<Preconditioner, VectorType> &&
           OperatorFor<Operator, VectorType>
SolveStats solve_cg(const Operator &A, VectorType &x, const VectorType &b,
                    Preconditioner &P, const SolverControl &control)
{
  CGWorkspace<VectorType> ws;
  return solve_cg(A, x, b, P, control, ws);
}

} // namespace dgflow
