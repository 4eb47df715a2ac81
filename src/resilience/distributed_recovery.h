#pragma once

// Rank-failure tolerance for distributed solves (the distributed analogue of
// resilience/recovering_solver.h). Three cooperating pieces:
//
//  * RecoveryContext — the RecoveryHooks implementation that solvers call at
//    iteration boundaries (solve_cg, ChebyshevSmoother sweeps, the
//    distributed V-cycle of HybridMultigrid). Each boundary is one
//    Communicator::agree round: all ranks reach the identical verdict within
//    one bounded exchange. Ranks that never arrived are presumed dead and
//    every survivor throws vmpi::RankFailure naming the same failed set at
//    the same boundary; ranks that arrived but voted unsound (non-finite
//    local state) make every rank throw SolveAbandoned instead — alive
//    ranks are a retry/restore case, not a shrink case.
//
//  * resolve_failure() — the bridge from a *locally* caught communication
//    error (TimeoutError mid-exchange) to a *collective* verdict: the
//    catcher agrees with whoever is still alive, drains its mailbox and
//    advances its communication epoch (so stale in-flight messages of the
//    abandoned exchange can never match a later retry), then either throws
//    RankFailure (peers agreed dead) or returns so the caller rethrows the
//    original, transient error.
//
//  * run_resilient() — the shrinking-recovery driver. It invokes vmpi::run
//    and climbs a four-rung ladder on failure, cheapest first:
//      rung 0 (SdcDetected): local repair — the ABFT guards caught silent
//              data corruption the in-solve rollback could not absorb;
//              rerun at the same rank count with attempt.scrub set so the
//              body scrubs its artifact checksums before reuse. No restore:
//              the state is recomputed, not reloaded.
//      rung 1: retry in a fresh epoch (same rank count, state recomputed)
//      rung 2: retry restoring from the shard checkpoint (same rank count)
//      rung 3 (taken immediately on an agreed rank death): shrink — rerun
//              with the dead ranks removed, repartitioning via the
//              Morton-SFC partitioner over the surviving count, and restore
//              from the shard checkpoint (the N→M restart that
//              ShardCheckpointReader's global reassembly enables).
//    The body receives a RecoveryAttempt describing the rung so it can
//    rebuild rank_of_cell / MatrixFree / Partitioner / multigrid for the
//    attempt's rank count and decide whether to restore.
//
// The restart model mirrors ULFM-style shrinking recovery: survivors do not
// patch up a wounded communicator in place — they agree on the failed set,
// tear down, and rebuild the whole distributed state over the smaller rank
// count, which is both simpler and deterministic.

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/recovery_hooks.h"
#include "vmpi/communicator.h"

namespace dgflow::resilience
{
class CheckpointScheduler;

/// Silent data corruption detected by an ABFT guard (residual-replay drift,
/// checksum mismatch) that in-solve rollback could not absorb — e.g. the
/// rollback budget was exhausted or the corruption predates the oldest
/// validated snapshot. Thrown by solve bodies to take the cheapest recovery
/// rung: a same-width rerun with a scrub pass, no checkpoint restore.
class SdcDetected : public std::runtime_error
{
public:
  using std::runtime_error::runtime_error;
};

/// An agreement round found live ranks with unsound local state (non-finite
/// residual, failed smoother): the distributed solve is abandoned
/// collectively so every rank unwinds at the same boundary, but nobody is
/// dead — the recovery driver retries or restores at the same rank count.
class SolveAbandoned : public std::runtime_error
{
public:
  SolveAbandoned(const std::string &what, std::vector<int> unsound_ranks_)
    : std::runtime_error(what), unsound_ranks(std::move(unsound_ranks_))
  {}

  std::vector<int> unsound_ranks; ///< alive ranks that voted not-ok
};

class RecoveryContext : public RecoveryHooks
{
public:
  struct Options
  {
    /// solver iterations between agreement rounds (agreement is a
    /// collective; probing every iteration of a cheap smoother would
    /// dominate its cost)
    int agree_stride = 4;
    /// per-round agreement deadline in seconds (<= 0: the communicator's
    /// default timeout)
    double agree_timeout = 0.;
  };

  explicit RecoveryContext(vmpi::Communicator &comm);
  RecoveryContext(vmpi::Communicator &comm, const Options &options);

  vmpi::Communicator &communicator() { return comm_; }

  int stride() const override { return options_.agree_stride; }

  /// One agreement round (see file comment): returns normally iff every
  /// rank arrived and voted ok; throws vmpi::RankFailure (absent ranks) or
  /// SolveAbandoned (unsound-but-alive ranks) identically on every
  /// surviving rank otherwise.
  void at_iteration_boundary(bool local_ok) override;

  /// Call from a catch block around a distributed solve after a local
  /// communication error. Agrees with the surviving peers, then drains this
  /// rank's mailbox and advances its epoch so the abandoned exchange cannot
  /// leak into a retry. Throws RankFailure when the verdict names dead
  /// ranks; returns when all peers are alive (the caller rethrows the
  /// original error, which the driver treats as transient).
  void resolve_failure();

  /// Number of agreement rounds this context has run.
  unsigned long long agreements() const { return agreements_; }

private:
  vmpi::Communicator &comm_;
  Options options_;
  unsigned long long agreements_ = 0;
};

/// What the body of run_resilient is asked to do on one attempt.
struct RecoveryAttempt
{
  int attempt = 0;         ///< global attempt index (0 = first try)
  int n_ranks = 0;         ///< rank count of this attempt
  int initial_n_ranks = 0; ///< rank count of the first attempt
  long epoch = 0;          ///< communication epoch (== attempt)
  /// true on the restore and shrink rungs: the body must load its state
  /// from the shard checkpoint instead of starting fresh
  bool restore = false;
  /// true on the SDC-repair rung: the previous attempt detected silent data
  /// corruption, so the body should scrub its ArtifactGuard (verify and
  /// rebuild its protected setup artifacts) before reusing cached state
  bool scrub = false;
  /// ranks agreed dead in the previous attempt, in that attempt's numbering
  std::vector<int> failed_ranks;
};

struct DistributedRecoveryOptions
{
  int min_ranks = 1;    ///< give up shrinking below this
  int max_attempts = 8; ///< total vmpi::run invocations before giving up
  /// non-death failures tolerated at one rank count: the first takes the
  /// plain-retry rung, the second the restore rung, the next rethrows
  int max_retries_per_width = 2;
  /// SDC-repair rungs tolerated over the whole run (they do not count
  /// toward max_retries_per_width: a scrubbed rerun starts clean)
  int max_sdc_repairs = 2;
  RecoveryContext::Options context;
  /// when set (borrowed), every recovery rung taken reports one observed
  /// failure to the scheduler — the MTBF feed of the Young/Daly checkpoint
  /// interval (resilience/ckpt_scheduler.h), closing the loop between "how
  /// often does this run actually fail" and "how often should it checkpoint"
  CheckpointScheduler *checkpoint_scheduler = nullptr;
};

struct DistributedRunReport
{
  bool succeeded = false;
  int attempts = 0;
  int retries = 0;     ///< plain-retry rungs taken
  int restores = 0;    ///< restore rungs taken (including those of shrinks)
  int shrinks = 0;     ///< shrink rungs taken
  int sdc_repairs = 0; ///< SDC-repair rungs taken (scrubbed same-width rerun)
  int final_n_ranks = 0;
  /// failed set of every attempt that ended in an agreed rank death
  std::vector<std::vector<int>> failure_history;
};

/// Runs @p body on @p n_ranks logical ranks with shrinking recovery (see
/// file comment for the rung ladder). The body is invoked as
/// body(comm, ctx, attempt); it should attach &ctx to its solvers
/// (SolverControl::recovery, HybridMultigrid::set_recovery), wrap solves in
/// try/catch that routes vmpi::TimeoutError through ctx.resolve_failure(),
/// and honor attempt.restore / attempt.n_ranks when (re)building its
/// distributed state. Throws the last error when the ladder is exhausted.
DistributedRunReport run_resilient(
  const int n_ranks, const DistributedRecoveryOptions &options,
  const std::function<void(vmpi::Communicator &, RecoveryContext &,
                           const RecoveryAttempt &)> &body);

} // namespace dgflow::resilience
