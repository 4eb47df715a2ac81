#include "vmpi/communicator.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/checksum.h"
#include "common/env.h"
#include "common/exceptions.h"
#include "common/types.h"
#include "concurrency/thread_pool.h"
#include "instrumentation/profiler.h"

namespace dgflow::vmpi
{
namespace
{
using clock = std::chrono::steady_clock;

/// Deadline for a wait starting now with the given timeout (<= 0: forever).
clock::time_point deadline_from(const clock::time_point start,
                                const double timeout_seconds)
{
  if (timeout_seconds <= 0.)
    return clock::time_point::max();
  return start + std::chrono::duration_cast<clock::duration>(
                   std::chrono::duration<double>(timeout_seconds));
}

double seconds_since(const clock::time_point start)
{
  return std::chrono::duration<double>(clock::now() - start).count();
}
} // namespace

void run(const int n_ranks, const std::function<void(Communicator &)> &f)
{
  DGFLOW_ASSERT(n_ranks >= 1, "need at least one rank");
  internal::SharedState state(n_ranks);
  // strict parse: a typo'd timeout silently becoming 0 (atof) would mean
  // "wait forever" and turn every hang-detection test into a real hang
  state.default_timeout =
    env_real("DGFLOW_VMPI_TIMEOUT", state.default_timeout, 0., 1e6);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(n_ranks);

  // communicators live past the join so the per-rank traffic can be summed
  std::vector<Communicator> comms;
  comms.reserve(n_ranks);
  for (int r = 0; r < n_ranks; ++r)
    comms.emplace_back(state, r);

  // rank threads count against the worker pool's concurrency budget: with
  // n_ranks rank threads computing, at most n_threads - n_ranks pool workers
  // may join a parallel region (concurrency/thread_pool.h)
  concurrency::ThreadPool::instance().set_external_concurrency(
    static_cast<unsigned int>(n_ranks));
  for (int r = 0; r < n_ranks; ++r)
    threads.emplace_back([&, r]() {
      try
      {
        f(comms[r]);
      }
      catch (...)
      {
        errors[r] = std::current_exception();
      }
    });
  for (auto &t : threads)
    t.join();
  concurrency::ThreadPool::instance().set_external_concurrency(1);

  if (prof::Profiler::instance().enabled())
  {
    Communicator::Traffic total;
    for (const Communicator &c : comms)
    {
      total.messages += c.traffic().messages;
      total.bytes += c.traffic().bytes;
      total.barriers += c.traffic().barriers;
      total.allreduces += c.traffic().allreduces;
      total.agreements += c.traffic().agreements;
      total.drained += c.traffic().drained;
    }
    prof::Profiler::instance().add_vmpi_run(n_ranks, total.messages,
                                            total.bytes, total.barriers,
                                            total.allreduces);
    if (total.agreements > 0)
      DGFLOW_PROF_COUNT("recovery_agreements", total.agreements);
    if (total.drained > 0)
      DGFLOW_PROF_COUNT("vmpi_drained_messages", total.drained);
  }

  for (const auto &e : errors)
    if (e)
      std::rethrow_exception(e);
}

void Communicator::send(const int dest, const int tag, const void *data,
                        const std::size_t bytes)
{
  DGFLOW_ASSERT(dest >= 0 && dest < size(), "invalid destination rank");
  traffic_.messages += 1;
  traffic_.bytes += bytes;
  beat();

  FaultAction action;
  if (faults_)
  {
    const unsigned long long seq = send_seq_[{dest, tag}]++;
    action = faults_->on_message(rank_, dest, tag, seq, bytes);
  }
  if (action.drop)
    return;

  internal::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.epoch = epoch_;
  msg.data.resize(bytes);
  if (bytes > 0) // an empty payload may come with null pointers
    std::memcpy(msg.data.data(), data, bytes);
  if (action.corrupt_bytes > 0)
    for (std::size_t i = 0; i < std::min(action.corrupt_bytes, bytes); ++i)
      msg.data[i] = static_cast<char>(msg.data[i] ^ 0x5A);
  msg.available_at = action.delay_seconds > 0.
                       ? deadline_from(clock::now(), action.delay_seconds)
                       : clock::time_point::min();

  auto &box = state_.mailboxes[dest];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    if (action.reorder)
    {
      // jump ahead of messages from other (source,tag) streams, but keep
      // the per-(source,tag) FIFO (the MPI non-overtaking guarantee the
      // matching logic relies on)
      auto pos = box.messages.begin();
      for (auto it = box.messages.rbegin(); it != box.messages.rend(); ++it)
        if (it->source == msg.source && it->tag == msg.tag)
        {
          pos = it.base();
          break;
        }
      box.messages.insert(pos, std::move(msg));
    }
    else
      box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

std::size_t
Communicator::drain_stale_locked(std::deque<internal::Message> &messages)
{
  std::size_t drained = 0;
  for (auto it = messages.begin(); it != messages.end();)
    if (it->epoch < epoch_)
    {
      it = messages.erase(it);
      ++drained;
    }
    else
      ++it;
  traffic_.drained += drained;
  return drained;
}

std::size_t Communicator::recv(const int source, const int tag, void *data,
                               const std::size_t max_bytes)
{
  auto &box = state_.mailboxes[rank_];
  const auto start = clock::now();
  const auto deadline = deadline_from(start, timeout_seconds_);
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;)
  {
    // purge traffic from abandoned epochs so it can neither match nor
    // accumulate, then take the first positional match — which preserves
    // the per-(source,tag) FIFO even when fault injection holds a matched
    // message back via available_at
    drain_stale_locked(box.messages);
    const auto it = std::find_if(
      box.messages.begin(), box.messages.end(),
      [&](const internal::Message &m) {
        return m.source == source && m.tag == tag && m.epoch == epoch_;
      });
    const auto now = clock::now();
    if (it != box.messages.end() && it->available_at <= now)
    {
      DGFLOW_ASSERT(it->data.size() <= max_bytes,
                    "receive buffer too small: " << it->data.size() << " > "
                                                 << max_bytes);
      const std::size_t bytes = it->data.size();
      if (bytes > 0)
        std::memcpy(data, it->data.data(), bytes);
      box.messages.erase(it);
      beat();
      return bytes;
    }

    auto wake_at = deadline;
    if (it != box.messages.end() && it->available_at < wake_at)
      wake_at = it->available_at;
    if (now >= deadline)
    {
      std::ostringstream ss;
      ss << "vmpi timeout: rank " << rank_ << " waited "
         << seconds_since(start) << " s for a message from rank " << source
         << " with tag " << tag << " in epoch " << epoch_
         << " (mailbox holds " << box.messages.size()
         << " unmatched message(s)";
      for (const auto &m : box.messages)
        ss << " [source " << m.source << ", tag " << m.tag << ", epoch "
           << m.epoch << "]";
      ss << ")";
      throw TimeoutError(ss.str(), rank_, source, tag, seconds_since(start));
    }
    if (wake_at == clock::time_point::max())
      box.cv.wait(lock);
    else
      box.cv.wait_until(lock, wake_at);
  }
}

std::size_t Communicator::advance_epoch(const long new_epoch)
{
  DGFLOW_ASSERT(new_epoch >= epoch_,
                "epoch must not go backwards (" << new_epoch << " < "
                                                << epoch_ << ")");
  epoch_ = new_epoch;
  auto &box = state_.mailboxes[rank_];
  std::lock_guard<std::mutex> lock(box.mutex);
  return drain_stale_locked(box.messages);
}

std::size_t Communicator::cancel_pending()
{
  auto &box = state_.mailboxes[rank_];
  std::lock_guard<std::mutex> lock(box.mutex);
  const std::size_t drained = box.messages.size();
  box.messages.clear();
  traffic_.drained += drained;
  return drained;
}

void Communicator::barrier()
{
  traffic_.barriers += 1;
  std::vector<double> dummy;
  allreduce_impl(dummy, Op::sum, "barrier");
}

void Communicator::allreduce(std::vector<double> &values, const Op op)
{
  traffic_.allreduces += 1;
  allreduce_impl(values, op, "allreduce");
}

void Communicator::allreduce_impl(std::vector<double> &values, const Op op,
                                  const char *op_name)
{
  const auto start = clock::now();
  const auto deadline = deadline_from(start, timeout_seconds_);
  std::size_t corrupt_bytes = 0;
  if (faults_)
  {
    const unsigned long long seq = collective_seq_++;
    if (faults_->kill_before_collective(rank_, seq))
      throw RankFailure("vmpi rank death: rank " + std::to_string(rank_) +
                          " killed by fault injection before " + op_name +
                          " #" + std::to_string(seq),
                        rank_, {rank_}, epoch_);
    corrupt_bytes = faults_->corrupt_collective(rank_, seq);
    const double stall = faults_->stall_before_collective(rank_, seq);
    if (stall > 0.)
    {
      // the stall itself is a bounded wait: a straggler held past its own
      // deadline self-reports as timed out instead of blocking the run's
      // join for the full (possibly unbounded) stall duration
      const bool capped =
        timeout_seconds_ > 0. && stall > timeout_seconds_;
      std::this_thread::sleep_for(std::chrono::duration<double>(
        capped ? timeout_seconds_ : stall));
      if (capped)
        throw TimeoutError(
          "vmpi timeout: rank " + std::to_string(rank_) + " stalled " +
            std::to_string(stall) + " s before " + op_name +
            ", past its deadline of " + std::to_string(timeout_seconds_) +
            " s",
          rank_, -1, -1, seconds_since(start));
    }
  }
  beat();

  const auto timed_wait = [&](std::unique_lock<std::mutex> &lock,
                              const auto &predicate, const char *phase) {
    if (deadline == clock::time_point::max())
    {
      state_.coll_cv.wait(lock, predicate);
      return;
    }
    if (!state_.coll_cv.wait_until(lock, deadline, predicate))
      throw TimeoutError("vmpi timeout: rank " + std::to_string(rank_) +
                           " waited " + std::to_string(seconds_since(start)) +
                           " s in " + op_name + " (" + phase + ", " +
                           std::to_string(state_.coll_count) + "/" +
                           std::to_string(state_.n_ranks) +
                           " ranks arrived)",
                         rank_, -1, -1, seconds_since(start));
  };

  std::unique_lock<std::mutex> lock(state_.coll_mutex);
  // entry gate: the previous collective must be fully drained
  timed_wait(lock, [&]() { return state_.coll_exiting == 0; }, "entry gate");

  const long generation = state_.coll_generation;
  state_.coll_contributions[rank_] = values;
  // checksum the honest contribution, then apply any injected in-flight
  // corruption; the reducing rank recomputes and compares
  state_.coll_checksums[rank_] =
    xxh64(state_.coll_contributions[rank_].data(),
          state_.coll_contributions[rank_].size() * sizeof(double));
  if (corrupt_bytes > 0 && !state_.coll_contributions[rank_].empty())
  {
    char *c =
      reinterpret_cast<char *>(state_.coll_contributions[rank_].data());
    const std::size_t n = std::min(
      corrupt_bytes, state_.coll_contributions[rank_].size() * sizeof(double));
    for (std::size_t i = 0; i < n; ++i)
      c[i] = static_cast<char>(c[i] ^ 0x5A);
  }

  if (++state_.coll_count == state_.n_ranks)
  {
    // reduce in fixed rank order: the floating-point result must not depend
    // on which rank happened to arrive last (injected delays change thread
    // timing; bitwise reproducibility requires a deterministic order)
    state_.coll_corrupt_rank = -1;
    for (int r = 0; r < state_.n_ranks; ++r)
      if (xxh64(state_.coll_contributions[r].data(),
                state_.coll_contributions[r].size() * sizeof(double)) !=
            state_.coll_checksums[r] &&
          state_.coll_corrupt_rank < 0)
        state_.coll_corrupt_rank = r;
    state_.reduce_slot = state_.coll_contributions[0];
    for (int r = 1; r < state_.n_ranks; ++r)
    {
      const std::vector<double> &contrib = state_.coll_contributions[r];
      for (std::size_t i = 0; i < state_.reduce_slot.size(); ++i)
        switch (op)
        {
          case Op::sum:
            state_.reduce_slot[i] += contrib[i];
            break;
          case Op::max:
            state_.reduce_slot[i] = nan_max(state_.reduce_slot[i], contrib[i]);
            break;
          case Op::min:
            state_.reduce_slot[i] = nan_min(state_.reduce_slot[i], contrib[i]);
            break;
        }
    }
    state_.coll_count = 0;
    state_.coll_exiting = state_.n_ranks;
    ++state_.coll_generation;
    state_.coll_cv.notify_all();
  }
  else
  {
    try
    {
      timed_wait(lock,
                 [&]() { return state_.coll_generation != generation; },
                 "rendezvous");
    }
    catch (...)
    {
      // withdraw from the rendezvous so a later collective (or another
      // rank's timeout accounting) does not count this rank as arrived
      --state_.coll_count;
      throw;
    }
  }

  values = state_.reduce_slot;
  const int corrupt_rank = state_.coll_corrupt_rank;
  if (--state_.coll_exiting == 0)
    state_.coll_cv.notify_all();
  if (corrupt_rank >= 0)
    throw CollectiveCorruptionError(
      "vmpi " + std::string(op_name) + " payload corruption: rank " +
        std::to_string(corrupt_rank) +
        "'s contribution failed its integrity checksum (observed on rank " +
        std::to_string(rank_) + "); refusing to fold corrupted data into " +
        "the reduction",
      rank_, corrupt_rank);
}

AgreeResult Communicator::agree(const bool local_ok,
                                const double timeout_seconds)
{
  traffic_.agreements += 1;
  beat();
  const auto start = clock::now();
  const double budget =
    timeout_seconds > 0. ? timeout_seconds : timeout_seconds_;
  const auto deadline = deadline_from(start, budget);

  const long round_id = agree_seq_++;
  std::unique_lock<std::mutex> lock(state_.agree_mutex);
  internal::AgreeRound &round = state_.agree_rounds[round_id];
  if (round.arrived.empty())
  {
    round.arrived.assign(state_.n_ranks, 0);
    round.ok.assign(state_.n_ranks, 0);
  }

  const auto close_round = [&]() {
    round.verdict.assign(state_.n_ranks, 0);
    for (int r = 0; r < state_.n_ranks; ++r)
      round.verdict[r] = round.arrived[r] && round.ok[r];
    round.closed = true;
    state_.agree_cv.notify_all();
  };

  if (!round.closed)
  {
    round.arrived[rank_] = 1;
    round.ok[rank_] = local_ok ? 1 : 0;
    if (++round.arrived_count == state_.n_ranks)
      close_round();
    else if (deadline == clock::time_point::max())
      state_.agree_cv.wait(lock, [&]() { return round.closed; });
    else if (!state_.agree_cv.wait_until(lock, deadline,
                                         [&]() { return round.closed; }))
      close_round(); // deadline expired: absent ranks are voted dead
  }
  // a straggler arriving after closure adopts the verdict that was reached
  // without it — in which it is recorded as failed

  AgreeResult result;
  result.ok.assign(round.verdict.begin(), round.verdict.end());
  result.arrived.assign(round.arrived.begin(), round.arrived.end());
  result.all_ok = true;
  for (const char v : round.verdict)
    if (!v)
      result.all_ok = false;
  result.self_ok = round.verdict[rank_] != 0;

  // prune ancient rounds (any rank this far behind has long been voted
  // dead); keeps the shared map bounded over long runs
  state_.agree_rounds.erase(state_.agree_rounds.begin(),
                            state_.agree_rounds.lower_bound(round_id - 64));
  return result;
}

} // namespace dgflow::vmpi
