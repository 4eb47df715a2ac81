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
// is zero-filled, since each is written before it is read. z is sized and
// written only for a preconditioner that is not pointwise, or as the ABFT
// replay's scratch. The 5-argument overload builds a workspace local to the
// call and runs the same code.
//
// Fused loops (the merged solver kernels of Muething et al.): an iteration
// costs the operator sweep, the p.Ap dot and one vector sweep, which updates
// x += alpha*p and r -= alpha*Ap and accumulates r.r. A pointwise
// preconditioner (PointwisePreconditionerFor: PreconditionJacobi, and the
// penalty step's InverseMassPreconditioner) acts entry by entry,
// z_i = f(i, r_i): the same sweep accumulates r.z, and z is never stored.
// The search-direction update p = beta*p + z rides the next vmult's pre
// hooks (each cell batch's slice updated right before the operator reads
// it), with z formed there from r for a pointwise P. Any other
// preconditioner (the multigrid V-cycle) adds its vmult and the r.z dot.
// The set-up is one sweep too: b.b, and r = b - A x with r.r and, for a
// pointwise P, p = z and r.z. p.Ap stays a separate dot. An operator
// without hooks gets the p update over the whole range before its vmult
// (vmult_hooked).
//
// Same bits: every sum uses the blocking of every dot
// (internal::chunked_sums), and each sweep's loop has the shape of the dot's
// chunk loop (internal::dot_range), because the compiler rounds an in-order
// sum by the loop's shape (see the sweeps below); the element updates are
// the textbook expressions. So every path agrees bitwise with the textbook
// loop at any pool width. On distributed vectors one allreduce carries all
// sums of a sweep, so a pointwise-preconditioned iteration makes two
// collectives.
//
// ABFT guard: with SolverControl::abft_replay_interval > 0 the solver
// periodically replays the true residual and the CG orthogonality relation
// to catch silent data corruption in its Krylov vectors, rolling back to the
// last validated snapshot on drift (see the SolverControl fields and
// docs/DEVELOPING.md, "Silent data corruption & ABFT"). Off by default: a
// fault-free solve with the guard off is bit-for-bit the pre-guard solver.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

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
  /// A non-finite or zero entry fails, naming the smallest such index.
  template <typename VectorType>
  void reinit(const VectorType &diagonal)
  {
    const std::size_t n = diagonal.size();
    inv_diag_.reinit(n, true);
    const auto *DGFLOW_RESTRICT d = diagonal.data();
    Number *DGFLOW_RESTRICT inv = inv_diag_.data();
    const auto bad = [&](const std::size_t i) {
      return !std::isfinite(double(d[i])) || d[i] == Number(0);
    };
    // each chunk stops at its first bad entry; the smallest index wins
    std::atomic<std::size_t> first_bad{n};
    concurrency::ThreadPool::instance().parallel_for(
      n, [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
        {
          if (bad(i))
          {
            concurrency::atomic_min(first_bad, i);
            return;
          }
          inv[i] = Number(1) / d[i];
        }
      });
    const std::size_t i = first_bad.load();
    if (i == n)
      return;
    DGFLOW_ASSERT(std::isfinite(double(d[i])),
                  "non-finite diagonal entry " << double(d[i])
                    << " at index " << i << " of " << n
                    << ": the operator produced NaN/Inf during diagonal "
                       "assembly; refusing to build a Jacobi "
                       "preconditioner that would propagate it silently");
    DGFLOW_ASSERT(d[i] != Number(0), "zero diagonal entry");
  }

  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    DGFLOW_DEBUG_ASSERT(src.size() == inv_diag_.size(), "size mismatch");
    apply_pointwise(dst, src, pointwise());
  }

  /// z_i = f(i, r_i), bitwise entry i of vmult (PointwisePreconditionerFor).
  auto pointwise() const
  {
    return [inv = inv_diag_.data()](const std::size_t i, const Number r) {
      return inv[i] * r;
    };
  }

  const Vector<Number> &inverse_diagonal() const { return inv_diag_; }

private:
  Vector<Number> inv_diag_;
};

namespace internal
{
// The fused sweeps of solve_cg over one chunk [i0, i1) of the reduction
// blocking (chunked_sums). Each has the shape of dot_range — out of line,
// restrict parameters, at most two in-order sums — so the compiler
// vectorizes it alike and each sum is bitwise that of the separate dot
// (FusedLoops.SweepSumsMatchTheDotsAtEveryLength checks every tail length;
// a third sum in one loop rounded its tail differently, which is why the
// set-up runs dot_range itself for b.b). f is the map z_i = f(i, r_i) of a
// pointwise preconditioner, nullptr for any other (whose z the caller forms
// with P.vmult).

/// r = b - Ap with r.r and, for a pointwise f, p = z = f(r) with r.z.
template <typename Number, typename F>
[[gnu::noinline]] auto
cg_residual_sweep(Number *DGFLOW_RESTRICT r, Number *DGFLOW_RESTRICT p,
                  const Number *DGFLOW_RESTRICT b,
                  const Number *DGFLOW_RESTRICT ap, const F f,
                  const std::size_t i0, const std::size_t i1)
{
  constexpr bool pointwise = !std::is_null_pointer_v<F>;
  double rr = 0;
  [[maybe_unused]] double rz = 0;
  for (std::size_t i = i0; i < i1; ++i)
  {
    r[i] = Number(1) * b[i] + Number(-1) * ap[i];
    rr += double(r[i]) * double(r[i]);
    if constexpr (pointwise)
    {
      const Number z = f(i, r[i]);
      p[i] = z;
      rz += double(r[i]) * double(z);
    }
  }
  if constexpr (pointwise)
    return std::array<double, 2>{rr, rz};
  else
    return std::array<double, 1>{rr};
}

/// x += alpha*p and r -= alpha*Ap with r.r and, for a pointwise f, r.z.
template <typename Number, typename F>
[[gnu::noinline]] auto
cg_update_sweep(Number *DGFLOW_RESTRICT x, Number *DGFLOW_RESTRICT r,
                const Number *DGFLOW_RESTRICT p,
                const Number *DGFLOW_RESTRICT ap, const Number alpha,
                const F f, const std::size_t i0, const std::size_t i1)
{
  constexpr bool pointwise = !std::is_null_pointer_v<F>;
  double rr = 0;
  [[maybe_unused]] double rz = 0;
  for (std::size_t i = i0; i < i1; ++i)
  {
    x[i] += alpha * p[i];
    r[i] += (-alpha) * ap[i];
    rr += double(r[i]) * double(r[i]);
    if constexpr (pointwise)
      rz += double(r[i]) * double(f(i, r[i]));
  }
  if constexpr (pointwise)
    return std::array<double, 2>{rr, rz};
  else
    return std::array<double, 1>{rr};
}

/// The search-direction update p = beta*p + z, z_i = f(i, r_i) for a
/// pointwise f and the stored z (passed as r) for any other.
template <typename Number, typename F>
[[gnu::noinline]] void
cg_direction_update(Number *DGFLOW_RESTRICT p,
                    const Number *DGFLOW_RESTRICT r_or_z, const Number beta,
                    const F f, const std::size_t i0, const std::size_t i1)
{
  for (std::size_t i = i0; i < i1; ++i)
    if constexpr (std::is_null_pointer_v<F>)
      p[i] = beta * p[i] + r_or_z[i];
    else
      p[i] = beta * p[i] + f(i, r_or_z[i]);
}
} // namespace internal

/// The Krylov vectors of solve_cg (see the file comment): residual r,
/// preconditioned residual z (sized and written only for a preconditioner
/// that is not pointwise, or as the ABFT replay's scratch), search direction
/// p, operator image Ap, and the ABFT guard's validated snapshot (x, r, p),
/// sized only when the guard is on. solve_cg shapes each like b, so a
/// workspace carries no state between solves and may be shared by
/// consecutive (not concurrent) solves. It must not alias x or b.
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
/// for vmpi::DistributedVector, where each dot and each fused sweep's sums
/// are one allreduce and the operator vmult performs the ghost exchange.
/// For distributed solves the per-solve vmpi traffic
/// (messages/bytes/allreduces) is published as cg_vmpi_* gauges.
template <typename Operator, typename Preconditioner, typename VectorType>
  requires PreconditionerFor<Preconditioner, VectorType> &&
           OperatorFor<Operator, VectorType>
SolveStats solve_cg(const Operator &A, VectorType &x, const VectorType &b,
                    Preconditioner &P, const SolverControl &control,
                    CGWorkspace<VectorType> &ws)
{
  using Number = typename VectorType::value_type;
  constexpr bool distributed = is_distributed_vector_v<VectorType>;
  constexpr bool pointwise =
    PointwisePreconditionerFor<Preconditioner, VectorType>;
  DGFLOW_PROF_SCOPE("cg");
  Timer solve_timer;
  SolveStats result;
  for (const VectorType *v :
       {&ws.r, &ws.z, &ws.p, &ws.Ap, &ws.snap_x, &ws.snap_r, &ws.snap_p})
    DGFLOW_ASSERT(v != &x && v != &b,
                  "the CG workspace must not alias the solution or the "
                  "right-hand side");
  VectorType &r = ws.r, &z = ws.z, &p = ws.p, &Ap = ws.Ap;
  const unsigned int abft_m = control.abft_replay_interval;
  // each is written before it is read (r, and p for a pointwise P, by the
  // set-up sweep, z by the preconditioner or a replay, Ap by the vmult): no
  // zero fill
  r.reinit_like(b, true);
  p.reinit_like(b, true);
  Ap.reinit_like(b, true);
  if (!pointwise || abft_m > 0)
    z.reinit_like(b, true);

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

  // The sums of one sweep over all ranks in one allreduce: it folds
  // elementwise in rank order, so each sum is bitwise the scalar allreduce
  // of a separate dot.
  const auto global_sums = [&b](auto sums) {
    if constexpr (distributed)
    {
      auto &comm = b.communicator();
      using Op = typename std::remove_reference_t<decltype(comm)>::Op;
      std::vector<double> values(sums.begin(), sums.end());
      comm.allreduce(values, Op::sum);
      std::copy(values.begin(), values.end(), sums.begin());
    }
    return sums;
  };
  // z_i = f(i, r_i) of a pointwise P (never called otherwise)
  const auto f = [&P] {
    if constexpr (pointwise)
      return P.pointwise();
    else
      return nullptr;
  }();

  // set-up sweep: b.b, and r = b - A x with r.r and, for a pointwise P, the
  // first search direction p = z = f(r) with r.z (b.b runs the dot's own
  // loop over each chunk: as a third sum in the sweep's loop it would round
  // unlike the dot)
  A.vmult(Ap, x);
  const auto setup_sums = global_sums(internal::chunked_sums<pointwise ? 3 : 2>(
    b.size(), [&](const std::size_t i0, const std::size_t i1) {
      const double bb = internal::dot_range(b.data(), b.data(), i0, i1)[0];
      const auto sweep = internal::cg_residual_sweep(
        r.data(), p.data(), b.data(), std::as_const(Ap).data(), f, i0, i1);
      if constexpr (pointwise)
        return std::array<double, 3>{bb, sweep[0], sweep[1]};
      else
        return std::array<double, 2>{bb, sweep[0]};
    }));

  const double b_norm = double(std::sqrt(Number(setup_sums[0])));
  const double tol = control.rel_tol * (b_norm > 0 ? b_norm : 1.);

  double res_norm = double(std::sqrt(Number(setup_sums[1])));
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

  Number rz;
  if constexpr (pointwise)
    rz = Number(setup_sums[2]);
  else
  {
    P.vmult(z, r);
    p = z;
    rz = r.dot(z);
  }

  double best_res = res_norm;
  unsigned int last_improvement = 0;

  // the search-direction update p = beta*p + z over [i0, i1), z_i = f(i, r_i)
  // for a pointwise P; deferred into the next vmult's pre hooks, or run over
  // the whole range at a replay boundary
  Number beta = Number(0);
  bool pending_beta = false;
  const auto update_p = [&](const std::size_t i0, const std::size_t i1) {
    internal::cg_direction_update(
      p.data(), std::as_const(pointwise ? r : z).data(), beta, f, i0, i1);
  };

  // ABFT rolling snapshot: the initial state is validated by construction
  // (r was just computed as b - A x directly), so a drift detected at the
  // very first replay boundary can already roll back. The relative drift
  // threshold of both replay invariants: orders of magnitude above the
  // floating-point drift of a healthy recurrence and below any corruption
  // that could survive into a converged solution at practical tolerances
  constexpr double replay_drift_tol = 1e-8;
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
    x.invalidate_ghosts();
    r.invalidate_ghosts();
    p.invalidate_ghosts();
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
      x.invalidate_ghosts();
      r.invalidate_ghosts();
    }
    if (abft_m > 0 && it > 1 && (it - 1) % abft_m == 0)
    {
      // materialize the deferred search-direction update first so the
      // invariant checks and the snapshot see the true p (the hook's own
      // element expression: bitwise identical)
      if (pending_beta)
      {
        concurrency::ThreadPool::instance().parallel_for(p.size(), update_p);
        p.invalidate_ghosts();
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
      // update, rewritten by the next P.vmult, never read for a pointwise
      // P) and the two invariants; all quantities are allreduced, so every
      // rank takes the same branch
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
          replay_drift_tol * std::max(b_norm > 0 ? b_norm : 1., res_norm) &&
        orth_drift <= replay_drift_tol * std::max(res_norm * p_norm,
                                                  std::abs(double(rz)));
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
    if (pending_beta)
    {
      // the operator fires this per cell batch right before reading the
      // batch's p entries (cut-face batches before the ghost exchange),
      // so Ap = A * (beta*p + z) without a separate sweep over p
      vmult_hooked(A, Ap, p, update_p, NoRangeHook());
      pending_beta = false;
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
    // one sweep: x += alpha*p and r -= alpha*Ap with r.r and, for a
    // pointwise P, r.z
    const auto sums = global_sums(internal::chunked_sums<pointwise ? 2 : 1>(
      x.size(), [&](const std::size_t i0, const std::size_t i1) {
        return internal::cg_update_sweep(x.data(), r.data(),
                                         std::as_const(p).data(),
                                         std::as_const(Ap).data(), alpha, f,
                                         i0, i1);
      }));
    x.invalidate_ghosts();
    r.invalidate_ghosts();

    res_norm = double(std::sqrt(Number(sums[0])));
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
                replay_drift_tol * std::max(b_norm > 0 ? b_norm : 1.,
                                            res_norm)))
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

    Number rz_new;
    if constexpr (pointwise)
      rz_new = Number(sums[1]);
    else
    {
      P.vmult(z, r);
      rz_new = r.dot(z);
    }
    beta = rz_new / rz;
    rz = rz_new;
    pending_beta = true; // p = beta*p + z rides the next vmult
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
