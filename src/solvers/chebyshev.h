#pragma once

// Chebyshev smoother (paper Section 3.4): polynomial degree three, i.e.
// three operator applications per pre-/post-smoothing sweep, built on fast
// matrix-free mat-vecs. The inner preconditioner P is a type parameter: the
// point-Jacobi DiagonalInverse below by default, or the inverse cell blocks
// of solvers/cell_block_inverse.h on the DG multigrid levels. The largest
// eigenvalue of P A is estimated at setup by the Lanczos process of a
// P-preconditioned CG; the smoothing range targets the upper part of the
// spectrum as usual for multigrid smoothers.
//
// A preconditioner provides block_size() (the ranges it is applied to are
// whole blocks), apply(r, i0, i1, load, done) (r[i] = load(i) on a block,
// the block of r <- P r in place, then done(i) on it, for every block in
// [i0, i1)), n_fallbacks() (entries or blocks it could not invert and
// replaced) and initialize_vector(v) (the layout of the smoothed vectors).
// The load and done steps ride the application, so the point-Jacobi sweep
// is one loop over its range, element by element.
//
// Templated on the vector type (vector-space concept): the same smoother
// runs on the serial Vector and on vmpi::DistributedVector, where the
// operator vmult performs the ghost exchange and every dot is an allreduce.
// The eigenvalue-estimation seed vector is filled from a hash of the global
// element index, so serial and distributed runs of the same operator
// estimate identical spectra regardless of the partition.
//
// Failure handling: eigenvalue-estimation breakdown, non-finite input or a
// preconditioner fallback does not abort. reinit() records a failed
// SolveStats (setup_stats()) and falls back to conservative eigenvalue
// bounds so the V-cycle stays usable;
// smooth_checked() additionally detects a non-finite smoothing result, which
// the outer CG then surfaces as a non_finite solve failure.

#include <cmath>
#include <cstdint>

#include "common/vector.h"
#include "concurrency/thread_pool.h"
#include "solvers/cg.h"

namespace dgflow
{
/// Smoother configuration (shared across operator types).
struct ChebyshevData
{
  unsigned int degree = 3;
  /// distributed failure detection: when set, every smoothing sweep opens
  /// with an agreement boundary so a dead peer is detected before the
  /// sweep's ghost exchanges turn into timeouts on the survivors; nullptr
  /// (the default) keeps serial smoothing unchanged
  RecoveryHooks *recovery = nullptr;
  /// ABFT sweep guard: scan every sweep's result for non-finite entries and
  /// against an energy bound (see energy_bound_factor); a violating sweep is
  /// discarded — x restored to its input (zeroed for the zero-guess sweep)
  /// — so corruption in smoother scratch surfaces as one weaker smoothing
  /// application plus the abft_smoother_repairs counter instead of NaN
  /// propagating through the V-cycle. The scan is local (no collective) and
  /// off by default.
  bool abft_check = false;
};

namespace internal
{
/// Deterministic pseudo-random value in [-1, 1) from a global index
/// (splitmix64 finalizer). Used to seed the Lanczos eigenvalue estimation
/// identically on every rank layout.
inline double hash_to_unit_interval(std::uint64_t x)
{
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return 2. * (double(x >> 11) * 0x1.0p-53) - 1.;
}
} // namespace internal

/// Point-Jacobi inner preconditioner: the inverse of the operator diagonal.
/// An unusable entry (non-finite or zero) inverts to 1 and counts as a
/// fallback. Converts from the diagonal, so a smoother's reinit takes the
/// diagonal itself.
template <typename VectorType>
class DiagonalInverse
{
public:
  using Number = typename VectorType::value_type;

  DiagonalInverse() = default;

  DiagonalInverse(const VectorType &diagonal)
  {
    inv_.reinit_like(diagonal, true);
    for (std::size_t i = 0; i < diagonal.size(); ++i)
    {
      const bool usable =
        std::isfinite(double(diagonal[i])) && diagonal[i] != Number(0);
      n_fallbacks_ += usable ? 0 : 1;
      inv_[i] = usable ? Number(1) / diagonal[i] : Number(1);
    }
  }

  unsigned int block_size() const { return 1; }
  std::size_t n_fallbacks() const { return n_fallbacks_; }
  void initialize_vector(VectorType &v) const { v.reinit_like(inv_); }

  template <typename Load, typename Done>
  void apply(Number *r, const std::size_t i0, const std::size_t i1,
             Load &&load, Done &&done) const
  {
    const Number *DGFLOW_RESTRICT invd = inv_.data();
    for (std::size_t i = i0; i < i1; ++i)
    {
      r[i] = load(i);
      r[i] *= invd[i];
      done(i);
    }
  }

private:
  VectorType inv_;
  std::size_t n_fallbacks_ = 0;
};

template <typename Operator, typename VectorType,
          typename Preconditioner = DiagonalInverse<VectorType>>
class ChebyshevSmoother
{
public:
  using Number = typename VectorType::value_type;
  using AdditionalData = ChebyshevData;

  void reinit(const Operator &op, Preconditioner preconditioner,
              const AdditionalData &data = AdditionalData())
  {
    initialize(op, std::move(preconditioner), data);
    if (setup_stats_.failure == SolveFailure::none)
      estimate_eigenvalues();
    else
      use_fallback_eigenvalues();
  }

  /// reinit() with externally supplied eigenvalue bounds instead of the
  /// Lanczos estimation: lambda_max must already include any safety factor
  /// (it is used verbatim; lambda_min = lambda_max / smoothing_range).
  /// Distributed multigrid levels use this to adopt the bounds estimated by
  /// the replicated serial setup, which makes the distributed V-cycle
  /// iterate identically to the serial one.
  void reinit_with_bounds(const Operator &op, Preconditioner preconditioner,
                          const double lambda_max,
                          const AdditionalData &data = AdditionalData())
  {
    initialize(op, std::move(preconditioner), data);
    DGFLOW_ASSERT(std::isfinite(lambda_max) && lambda_max > 0,
                  "invalid eigenvalue bound " << lambda_max);
    lambda_max_ = lambda_max;
    lambda_min_ = lambda_max_ / smoothing_range;
    setup_stats_.converged = true;
  }

  double max_eigenvalue() const { return lambda_max_; }

  /// Statistics of the setup-time eigenvalue estimation: converged = true
  /// when the Lanczos process produced a usable bound, else the failure
  /// reason and the conservative fallback bounds in use.
  const SolveStats &setup_stats() const { return setup_stats_; }

  /// One smoothing sweep: improves x for A x = b, starting from the given x
  /// (pass x = 0 for the pre-smoother on the residual equation).
  ///
  /// Every residual/direction/solution update rides the operator's post
  /// hooks (vmult_hooked): each cell batch's slice of r = P (b - Ax), d
  /// and x is updated the moment the traversal is done with it, while it is
  /// still in cache, and the chain may mutate both the vmult's dst (r_) and
  /// src (x), which the contract permits once a range's last face is
  /// processed. The Chebyshev coefficients never depend on a reduction, so
  /// every scalar is known before its vmult: the sweep makes no separate
  /// BLAS-1 passes. An operator without hooks gets the chain over the whole
  /// range after its vmult, with the same per-element expressions. A hook
  /// range is whole cell batches, so a cell-block P applies inside it.
  void smooth(VectorType &x, const VectorType &b,
              const bool zero_initial_guess) const
  {
    if (data_.recovery)
      data_.recovery->at_iteration_boundary(true);
    DGFLOW_PROF_COUNT("chebyshev_sweeps", 1);
    DGFLOW_PROF_COUNT("chebyshev_iterations", data_.degree);
    const double theta = 0.5 * (lambda_max_ + lambda_min_);
    const double delta = 0.5 * (lambda_max_ - lambda_min_);
    const Number theta_inv = Number(1. / theta);

    r_.reinit_like(x, true);
    d_.reinit_like(x, true);

    if (data_.abft_check && !zero_initial_guess)
    {
      abft_in_.reinit_like(x, true);
      abft_in_.equ(Number(1), x);
    }

    const auto step = [&](const Number coef_d, const Number coef_r,
                          const bool first) {
      vmult_hooked(*op_, r_, x, NoRangeHook(),
                   [&, coef_d, coef_r, first](const std::size_t r0,
                                              const std::size_t r1) {
                     Number *DGFLOW_RESTRICT rd = r_.data();
                     Number *DGFLOW_RESTRICT dd = d_.data();
                     Number *DGFLOW_RESTRICT xd = x.data();
                     const Number *DGFLOW_RESTRICT bd = b.data();
                     precond_.apply(
                       rd, r0, r1,
                       [&](const std::size_t i) {
                         return Number(-1) * rd[i] + Number(1) * bd[i];
                       },
                       [&](const std::size_t i) {
                         dd[i] = first ? coef_r * rd[i]
                                       : coef_d * dd[i] + coef_r * rd[i];
                         xd[i] += Number(1) * dd[i];
                       });
                   });
      // the post hooks mutated x (the vmult's src) after the ghost
      // exchange, so the neighbors' copies are stale now
      x.invalidate_ghosts();
    };

    if (zero_initial_guess)
    {
      // no matvec needed: r = P b, d = r/theta, x = d in one sweep
      Number *DGFLOW_RESTRICT rd = r_.data();
      Number *DGFLOW_RESTRICT dd = d_.data();
      Number *DGFLOW_RESTRICT xd = x.data();
      const Number *DGFLOW_RESTRICT bd = b.data();
      for_each_block_range(x.size(), [&](const std::size_t i0,
                                         const std::size_t i1) {
        precond_.apply(
          rd, i0, i1, [&](const std::size_t i) { return bd[i]; },
          [&](const std::size_t i) {
            dd[i] = theta_inv * rd[i];
            xd[i] = Number(0) + Number(1) * dd[i];
          });
      });
      x.invalidate_ghosts();
    }
    else
      step(Number(0), theta_inv, /*first=*/true);

    const double sigma1 = theta / delta;
    double rho_old = 1. / sigma1;
    for (unsigned int k = 1; k < data_.degree; ++k)
    {
      const double rho = 1. / (2. * sigma1 - rho_old);
      step(Number(rho * rho_old), Number(2. * rho / delta), /*first=*/false);
      rho_old = rho;
    }
    if (data_.abft_check)
      abft_check_result(x, b, zero_initial_guess);
  }

  /// smooth() plus a finiteness check of the result, reported as a
  /// SolveStats (failure = non_finite when the sweep produced NaN/Inf).
  /// Off the V-cycle hot path; used by diagnostics and recovery logic.
  SolveStats smooth_checked(VectorType &x, const VectorType &b,
                            const bool zero_initial_guess) const
  {
    SolveStats stats;
    stats.iterations = data_.degree;
    smooth(x, b, zero_initial_guess);
    const double norm = double(x.l2_norm());
    stats.final_residual = norm;
    if (!std::isfinite(norm))
    {
      stats.failure = SolveFailure::non_finite;
      DGFLOW_PROF_COUNT("chebyshev_failures", 1);
    }
    else
      stats.converged = true;
    return stats;
  }

  /// Preconditioner interface (zero initial guess).
  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst.reinit_like(src, true);
    smooth(dst, src, true);
  }

private:
  /// lambda_max / lambda_min of the smoothed band
  static constexpr double smoothing_range = 20.;
  /// factor on the estimated top eigenvalue of P A
  static constexpr double max_eigenvalue_safety = 1.2;
  /// energy bound of the ABFT-checked sweep result: |x|_inf must not exceed
  /// energy_bound_factor * (|x_in|_inf + |P b|_inf / lambda_min), loose
  /// enough for any healthy Chebyshev polynomial and tight enough to catch
  /// exponent-range bit flips
  static constexpr double energy_bound_factor = 1e3;

  /// The ABFT sweep guard: purely local scan of the sweep result against
  /// non-finite entries and the energy bound; a violation discards the
  /// sweep (x back to its input) and counts a repair. Restoring locally is
  /// safe in distributed sweeps — it changes values, not the communication
  /// pattern — and the outer CG replay catches any residual inconsistency.
  void abft_check_result(VectorType &x, const VectorType &b,
                         const bool zero_initial_guess) const
  {
    const std::size_t n = x.size();
    // the sweep is done with its scratch r_: P b goes there
    const Number *DGFLOW_RESTRICT bd = b.data();
    Number *DGFLOW_RESTRICT r0d = r_.data();
    for_each_block_range(n, [&](const std::size_t i0, const std::size_t i1) {
      precond_.apply(
        r0d, i0, i1, [&](const std::size_t i) { return bd[i]; },
        [](std::size_t) {});
    });
    double r0_linf = 0., in_linf = 0.;
    for (std::size_t i = 0; i < n; ++i)
      r0_linf = std::max(r0_linf, std::fabs(double(r0d[i])));
    if (!zero_initial_guess)
    {
      const Number *DGFLOW_RESTRICT ind = abft_in_.data();
      for (std::size_t i = 0; i < n; ++i)
        in_linf = std::max(in_linf, std::fabs(double(ind[i])));
    }
    const double bound =
      energy_bound_factor * (in_linf + r0_linf / std::max(lambda_min_, 1e-300));
    bool ok = std::isfinite(bound);
    const Number *DGFLOW_RESTRICT xd = x.data();
    for (std::size_t i = 0; ok && i < n; ++i)
      ok = std::fabs(double(xd[i])) <= bound; // NaN fails the comparison
    if (ok)
      return;
    DGFLOW_PROF_COUNT("abft_sdc_detected", 1);
    DGFLOW_PROF_COUNT("abft_smoother_repairs", 1);
    if (zero_initial_guess)
      x = Number(0);
    else
      x.equ(Number(1), abft_in_);
  }

  void initialize(const Operator &op, Preconditioner preconditioner,
                  const AdditionalData &data)
  {
    op_ = &op;
    data_ = data;
    setup_stats_ = SolveStats();
    precond_ = std::move(preconditioner);
    if (precond_.n_fallbacks() > 0)
      setup_stats_.failure = SolveFailure::non_finite;
  }

  /// Runs f(i0, i1) over a split of [0, n) at block boundaries on the pool.
  template <typename F>
  void for_each_block_range(const std::size_t n, F &&f) const
  {
    const std::size_t bs = precond_.block_size();
    auto &pool = concurrency::ThreadPool::instance();
    pool.run_ranges(n / bs, pool.n_chunks_for(n * bs, std::size_t(1) << 16),
                    [&](unsigned int, const std::size_t b0,
                        const std::size_t b1) { f(b0 * bs, b1 * bs); });
  }

  /// v <- P v
  void precondition(VectorType &v) const
  {
    Number *vd = v.data();
    for_each_block_range(v.size(), [&](const std::size_t i0,
                                       const std::size_t i1) {
      precond_.apply(
        vd, i0, i1, [&](const std::size_t i) { return vd[i]; },
        [](std::size_t) {});
    });
  }

  /// Estimates the largest eigenvalue of P A by the Lanczos process
  /// embedded in a P-preconditioned CG run (the deal.II approach): the
  /// CG coefficients alpha_k, beta_k form a tridiagonal matrix whose Ritz
  /// values converge quickly to the extreme eigenvalues; a Gershgorin bound
  /// of the tridiagonal plus the safety factor guards against
  /// underestimation, which would make the Chebyshev smoother amplify the
  /// top of the spectrum (observed on strongly deformed meshes with the
  /// plain power iteration).
  void estimate_eigenvalues()
  {
    VectorType r, z, p, Ap;
    precond_.initialize_vector(r);
    z.reinit_like(r);
    p.reinit_like(r);
    Ap.reinit_like(r);
    const std::size_t n = r.size();
    const std::size_t offset = r.first_local_index();
    for (std::size_t i = 0; i < n; ++i)
      r[i] = Number(internal::hash_to_unit_interval(offset + i));

    z = r;
    precondition(z);
    p = z;
    double rz = double(r.dot(z));

    std::vector<double> alphas, betas;
    constexpr unsigned int lanczos_steps = 20;
    for (unsigned int it = 0; it < lanczos_steps && rz > 0; ++it)
    {
      op_->vmult(Ap, p);
      const double pAp = double(p.dot(Ap));
      if (!(pAp > 0))
        break;
      const double alpha = rz / pAp;
      alphas.push_back(alpha);
      r.add(Number(-alpha), Ap);
      z = r;
      precondition(z);
      const double rz_new = double(r.dot(z));
      const double beta = rz_new / rz;
      betas.push_back(beta);
      rz = rz_new;
      p.sadd(Number(beta), Number(1), z);
    }
    if (alphas.empty())
    {
      // the very first step broke down (zero/indefinite operator or NaN):
      // report it and keep the smoother usable with conservative bounds
      setup_stats_.failure = std::isfinite(rz) ? SolveFailure::breakdown
                                               : SolveFailure::non_finite;
      use_fallback_eigenvalues();
      return;
    }

    // Gershgorin bound of the Lanczos tridiagonal
    double lambda = 0;
    for (std::size_t k = 0; k < alphas.size(); ++k)
    {
      const double diag =
        1. / alphas[k] + (k > 0 ? betas[k - 1] / alphas[k - 1] : 0.);
      const double off_right =
        k + 1 < alphas.size() ? std::sqrt(betas[k]) / alphas[k] : 0.;
      const double off_left =
        k > 0 ? std::sqrt(betas[k - 1]) / alphas[k - 1] : 0.;
      lambda = std::max(lambda, diag + off_right + off_left);
    }
    if (!std::isfinite(lambda) || lambda <= 0)
    {
      setup_stats_.failure = SolveFailure::non_finite;
      use_fallback_eigenvalues();
      return;
    }
    setup_stats_.converged = true;
    setup_stats_.iterations = static_cast<unsigned int>(alphas.size());
    setup_stats_.final_residual = std::sqrt(std::max(0., rz));
    lambda_max_ = max_eigenvalue_safety * lambda;
    lambda_min_ = lambda_max_ / smoothing_range;
  }

  /// Conservative bounds for a failed estimation: a unit top eigenvalue of
  /// P A (exact for its point or block diagonal part) keeps the sweep
  /// finite and contractive on the upper spectrum.
  void use_fallback_eigenvalues()
  {
    DGFLOW_PROF_COUNT("chebyshev_eigen_fallbacks", 1);
    lambda_max_ = max_eigenvalue_safety;
    lambda_min_ = lambda_max_ / smoothing_range;
  }

  const Operator *op_ = nullptr;
  AdditionalData data_;
  Preconditioner precond_;
  double lambda_max_ = 1., lambda_min_ = 0.05;
  SolveStats setup_stats_;
  mutable VectorType r_, d_;
  mutable VectorType abft_in_; ///< sweep input saved by the ABFT guard
};

} // namespace dgflow
