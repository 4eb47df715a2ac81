#pragma once

// Fallback-ladder wrapper around linear solves: each rung is a named solve
// strategy (e.g. hybrid-multigrid CG, then Jacobi CG with relaxed control);
// on a failed rung the initial guess is restored and the next rung tried.
// Rungs report failure in their SolveStats; an exception is an error, not a
// failure, and reaches the caller unchanged. Rungs marked demote_on_failure
// are disabled after their first failure (a diverging multigrid V-cycle on a
// pathological mesh stays broken — retrying it every time step only burns
// wall time). Recoveries are counted per wrapper and as profiler counters,
// so production runs report how often the ladder fired.

#include <functional>
#include <string>
#include <vector>

#include "common/exceptions.h"
#include "common/vector.h"
#include "instrumentation/profiler.h"
#include "instrumentation/solve_stats.h"

namespace dgflow::resilience
{
template <typename Number>
class RecoveringSolver
{
public:
  using VectorType = Vector<Number>;
  using SolveFn = std::function<SolveStats(VectorType &x, const VectorType &b)>;

  void clear()
  {
    rungs_.clear();
    recoveries_ = 0;
    last_rung_.clear();
  }

  /// Appends a fallback rung. Rungs are tried in registration order.
  void add_rung(std::string name, SolveFn solve,
                const bool demote_on_failure = false)
  {
    rungs_.push_back(
      Rung{std::move(name), std::move(solve), demote_on_failure, 0, false});
  }

  /// Total number of solves that needed at least one fallback.
  unsigned long long recoveries() const { return recoveries_; }

  /// Name of the rung that produced the last returned result.
  const std::string &last_rung() const { return last_rung_; }

  bool rung_disabled(const std::size_t i) const { return rungs_[i].disabled; }
  unsigned long long rung_failures(const std::size_t i) const
  {
    return rungs_[i].failures;
  }

  /// Tries the ladder top to bottom. Each rung starts from the caller's
  /// initial guess (restored after a failed rung, so a diverged attempt
  /// cannot poison the next; the restore copy is a member, so repeated
  /// solves allocate nothing). Returns the first converged SolveStats, or
  /// the last rung's failed stats when the whole ladder is exhausted.
  /// Never throws on solver failure; an exception thrown by a rung
  /// propagates, and the rung is neither counted as failed nor demoted.
  SolveStats solve(VectorType &x, const VectorType &b)
  {
    DGFLOW_ASSERT(!rungs_.empty(), "RecoveringSolver has no rungs");
    x0_ = x;
    SolveStats stats;
    unsigned int attempts = 0;
    for (Rung &rung : rungs_)
    {
      if (rung.disabled)
        continue;
      if (attempts > 0)
        x = x0_;
      ++attempts;
      stats = rung.solve(x, b);
      if (stats.converged)
      {
        last_rung_ = rung.name;
        if (attempts > 1)
        {
          recoveries_ += 1;
          DGFLOW_PROF_COUNT("solver_recoveries", 1);
        }
        return stats;
      }
      rung.failures += 1;
      DGFLOW_PROF_COUNT("solver_rung_failures", 1);
      if (rung.demote_on_failure)
        rung.disabled = true;
    }
    last_rung_ = "exhausted";
    return stats; // converged == false: the caller decides (e.g. reject dt)
  }

private:
  struct Rung
  {
    std::string name;
    SolveFn solve;
    bool demote_on_failure = false;
    unsigned long long failures = 0;
    bool disabled = false;
  };

  std::vector<Rung> rungs_;
  VectorType x0_; ///< the caller's initial guess during solve()
  unsigned long long recoveries_ = 0;
  std::string last_rung_;
};

} // namespace dgflow::resilience
