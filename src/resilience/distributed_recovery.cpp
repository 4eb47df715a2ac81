#include "resilience/distributed_recovery.h"

#include <algorithm>
#include <sstream>

#include "common/timer.h"
#include "instrumentation/profiler.h"
#include "resilience/ckpt_scheduler.h"

namespace dgflow::resilience
{
namespace
{
std::string rank_list(const std::vector<int> &ranks)
{
  std::ostringstream ss;
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ss << (i ? ", " : "") << ranks[i];
  return ss.str();
}
} // namespace

void RecoveryContext::at_iteration_boundary(const bool local_ok)
{
  ++agreements_;
  const vmpi::AgreeResult verdict = comm_.agree(local_ok);
  if (verdict.all_ok)
    return;

  const std::vector<int> dead = verdict.absent();
  if (!dead.empty())
    throw vmpi::RankFailure("agreed rank failure at an iteration boundary: "
                            "rank(s) " +
                              rank_list(dead) +
                              " did not reach the agreement round (observed "
                              "on rank " +
                              std::to_string(comm_.rank()) + ")",
                            comm_.rank(), dead, comm_.epoch());
  // everyone is alive, but someone's local state is unsound: abandon the
  // solve collectively (every rank throws here, at the same boundary)
  throw SolveAbandoned("distributed solve abandoned by agreement: rank(s) " +
                         rank_list(verdict.failed()) +
                         " reported unsound local state",
                       verdict.failed());
}

void RecoveryContext::resolve_failure()
{
  ++agreements_;
  // this rank is alive (it is executing this code); the dead are whoever
  // fails to arrive before the round's deadline
  const vmpi::AgreeResult verdict = comm_.agree(true);

  // drain everything queued for the abandoned exchange and enter the next
  // epoch: any message of the old epoch still in flight (a peer's send that
  // raced the failure) can then never match a retry's recv
  comm_.cancel_pending();
  comm_.advance_epoch(comm_.epoch() + 1);

  const std::vector<int> dead = verdict.absent();
  if (!dead.empty())
    throw vmpi::RankFailure(
      "agreed rank failure while resolving a communication error: rank(s) " +
        rank_list(dead) + " did not reach the agreement round (observed on "
                          "rank " +
        std::to_string(comm_.rank()) + ")",
      comm_.rank(), dead, comm_.epoch());
  // all peers alive: the caught error was transient/local — return so the
  // caller rethrows it and the driver retries without shrinking
}

DistributedRunReport run_resilient(
  const int n_ranks, const DistributedRecoveryOptions &options,
  const std::function<void(vmpi::Communicator &, RecoveryContext &,
                           const RecoveryAttempt &)> &body)
{
  DGFLOW_ASSERT(n_ranks >= 1, "need at least one rank");
  DistributedRunReport report;
  report.final_n_ranks = n_ranks;

  RecoveryAttempt attempt;
  attempt.n_ranks = n_ranks;
  attempt.initial_n_ranks = n_ranks;

  // failure-rate feed for the Daly checkpoint interval: every rung taken is
  // one observed failure at the elapsed time it occurred
  Timer run_clock;
  const auto record_failure = [&] {
    if (options.checkpoint_scheduler != nullptr)
      options.checkpoint_scheduler->record_failure(run_clock.seconds());
  };

  int retries_at_width = 0;
  while (true)
  {
    ++report.attempts;
    try
    {
      vmpi::run(attempt.n_ranks, [&](vmpi::Communicator &comm) {
        comm.advance_epoch(attempt.epoch);
        RecoveryContext ctx(comm);
        body(comm, ctx, attempt);
      });
      report.succeeded = true;
      report.final_n_ranks = attempt.n_ranks;
      if (options.checkpoint_scheduler != nullptr)
        options.checkpoint_scheduler->observe(run_clock.seconds());
      return report;
    }
    catch (const vmpi::RankFailure &failure)
    {
      record_failure();
      // agreed death: shrink immediately (retrying at the same width would
      // meet the same dead rank again) and restore from the shard
      // checkpoint over the surviving count
      std::vector<int> dead = failure.failed_ranks;
      std::sort(dead.begin(), dead.end());
      dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
      report.failure_history.push_back(dead);
      const int survivors =
        attempt.n_ranks - static_cast<int>(dead.size());
      // (a failure naming no rank would not shrink the run: rethrow it
      // rather than retry the same width without bound)
      if (dead.empty() || survivors < options.min_ranks)
        throw;
      ++report.shrinks;
      ++report.restores;
      DGFLOW_PROF_COUNT("recovery_shrinks", 1);
      DGFLOW_PROF_COUNT("recovery_restores", 1);
      attempt.failed_ranks = dead;
      attempt.n_ranks = survivors;
      attempt.restore = true;
      attempt.scrub = false;
      retries_at_width = 0;
    }
    catch (const SdcDetected &)
    {
      record_failure();
      // cheapest rung: an ABFT guard caught silent data corruption the
      // in-solve rollback could not absorb — rerun at the same width with a
      // scrub pass (the body verifies and rebuilds its protected setup
      // artifacts) and no checkpoint restore. Does not count toward the
      // per-width retry budget: a scrubbed rerun starts from clean state.
      ++report.sdc_repairs;
      if (report.sdc_repairs > options.max_sdc_repairs)
        throw;
      DGFLOW_PROF_COUNT("recovery_sdc_repairs", 1);
      attempt.failed_ranks.clear();
      attempt.restore = false;
      attempt.scrub = true;
    }
    catch (const std::exception &)
    {
      record_failure();
      // transient failure (timeout, corruption, abandoned solve): climb the
      // retry -> restore rungs at the current width
      ++retries_at_width;
      if (retries_at_width > options.max_retries_per_width)
        throw;
      attempt.failed_ranks.clear();
      attempt.restore = retries_at_width >= 2;
      attempt.scrub = false;
      if (attempt.restore)
      {
        ++report.restores;
        DGFLOW_PROF_COUNT("recovery_restores", 1);
      }
      else
        ++report.retries;
    }
    ++attempt.attempt;
    ++attempt.epoch;
  }
}

} // namespace dgflow::resilience
