#pragma once

// In-process message-passing layer ("virtual MPI"): logical ranks run as
// threads and communicate through mailboxes with MPI-like semantics
// (buffered non-blocking sends, blocking tagged receives, barrier,
// allreduce, broadcast). This substitutes the paper's MPI substrate on the
// single-node reproduction environment: the distributed algorithms
// (partitioned vectors, ghost exchange, reductions) execute the same logic
// they would across real ranks, and the message counts feed the scaling
// performance model. See DESIGN.md.
//
// Resilience: every blocking wait (recv, barrier, allreduce, agree) carries
// a deadline, so a lost or stalled message surfaces as a structured
// TimeoutError naming the rank, expected source/tag and elapsed time
// instead of hanging the process. A FaultHandler can be installed on a
// Communicator to inject per-message faults (drop, delay, reorder, payload
// corruption), per-collective rank stalls and rank death; the deterministic
// seeded implementation lives in resilience/fault_injection.h.
//
// Rank-failure tolerance (resilience/distributed_recovery.h builds on this):
//  * agree(local_ok) is a fault-tolerant agreement collective: a rank that
//    does not arrive before the deadline is declared failed in the round's
//    verdict, and every rank that reads the round — including stragglers
//    arriving after closure — reads the *same* closed verdict, so survivors
//    deterministically agree on the failed set instead of deadlocking.
//  * Messages carry the sender's epoch; recv only matches the current
//    epoch, and advance_epoch()/cancel_pending() drain stale traffic so
//    abandoned in-flight exchanges cannot corrupt the retry of a solve.
//  * Per-rank heartbeat counters are piggybacked on every send/recv/
//    collective; vmpi::HealthMonitor turns them into straggler suspicion.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/exceptions.h"

namespace dgflow::vmpi
{
class Communicator;

/// Runs @p f concurrently on @p n_ranks logical ranks and joins them.
/// Exceptions thrown by any rank are rethrown on the caller.
void run(const int n_ranks, const std::function<void(Communicator &)> &f);

/// A blocking vmpi operation exceeded its deadline. Carries the structured
/// context needed to diagnose the lost message: the waiting rank, the
/// expected source and tag (-1 for collectives), and the elapsed wait.
class TimeoutError : public std::runtime_error
{
public:
  TimeoutError(const std::string &what, const int rank_, const int source_,
               const int tag_, const double elapsed_seconds_)
    : std::runtime_error(what), rank(rank_), source(source_), tag(tag_),
      elapsed_seconds(elapsed_seconds_)
  {}

  int rank;               ///< the rank whose wait timed out
  int source;             ///< expected source rank (-1 for collectives)
  int tag;                ///< expected tag (-1 for collectives)
  double elapsed_seconds; ///< how long the rank waited
};

/// One or more ranks have been declared dead — either by fault injection on
/// the victim itself, or by an agree() verdict on the survivors. The failed
/// set and the epoch in which the failure was agreed let the recovery
/// driver (resilience/distributed_recovery.h) pick the right rung.
class RankFailure : public std::runtime_error
{
public:
  RankFailure(const std::string &what, const int rank_,
              std::vector<int> failed_ranks_, const long epoch_)
    : std::runtime_error(what), rank(rank_),
      failed_ranks(std::move(failed_ranks_)), epoch(epoch_)
  {}

  int rank;                      ///< the rank reporting the failure
  std::vector<int> failed_ranks; ///< agreed-dead ranks (may include rank)
  long epoch;                    ///< communication epoch of the verdict
};

/// An allreduce contribution failed its integrity checksum: the payload was
/// corrupted between the contributing rank and the reduction. Surfacing
/// this as a structured error (instead of silently folding garbage into the
/// sum) is what keeps a bit-flipped dot product from steering CG to a
/// plausible-looking wrong answer.
class CollectiveCorruptionError : public std::runtime_error
{
public:
  CollectiveCorruptionError(const std::string &what, const int rank_,
                            const int corrupt_source_)
    : std::runtime_error(what), rank(rank_), corrupt_source(corrupt_source_)
  {}

  int rank;           ///< the rank observing the mismatch
  int corrupt_source; ///< the rank whose contribution failed the checksum
};

/// Outcome of one agree() round: per-rank verdict plus summary flags. The
/// verdict byte of rank q is 1 iff q arrived before the round closed AND
/// voted ok. Every participant of the round reads the same verdict.
struct AgreeResult
{
  std::vector<char> ok;      ///< per-rank verdict (arrived in time, voted ok)
  std::vector<char> arrived; ///< per-rank arrival before the round closed
  bool all_ok = false;       ///< every rank arrived and voted ok
  bool self_ok = true;       ///< this rank's own verdict entry

  /// Ranks voted down (absent or not-ok), ascending.
  std::vector<int> failed() const
  {
    std::vector<int> f;
    for (std::size_t r = 0; r < ok.size(); ++r)
      if (!ok[r])
        f.push_back(static_cast<int>(r));
    return f;
  }

  /// Ranks that never arrived (presumed dead), ascending — distinct from
  /// ranks that arrived but voted not-ok (alive with unsound local state).
  std::vector<int> absent() const
  {
    std::vector<int> a;
    for (std::size_t r = 0; r < arrived.size(); ++r)
      if (!arrived[r])
        a.push_back(static_cast<int>(r));
    return a;
  }
};

/// Fault decided for one message (all default to "deliver normally").
struct FaultAction
{
  bool drop = false;          ///< message is never delivered
  bool reorder = false;       ///< jump ahead of other (source,tag) streams
  double delay_seconds = 0.;  ///< in-flight latency before matchable
  std::size_t corrupt_bytes = 0; ///< bit-flip this many leading payload bytes
};

/// Fault-injection hook installed on a Communicator. Decisions must be
/// functions of the passed identifiers only (not of wall time or thread
/// interleaving) to keep injected runs reproducible; @p seq is the
/// per-(source,dest,tag) message sequence number, which is deterministic
/// because each Communicator is driven by a single thread.
class FaultHandler
{
public:
  virtual ~FaultHandler() = default;

  virtual FaultAction on_message(int source, int dest, int tag,
                                 unsigned long long seq,
                                 std::size_t bytes) = 0;

  /// Seconds to stall @p rank before it enters its @p seq -th collective.
  virtual double stall_before_collective(int /*rank*/,
                                         unsigned long long /*seq*/)
  {
    return 0.;
  }

  /// Rank death: return true to kill @p rank before its @p seq -th
  /// collective. The victim throws RankFailure and stops servicing its
  /// mailbox; peers observe its absence through timeouts and agree().
  virtual bool kill_before_collective(int /*rank*/,
                                      unsigned long long /*seq*/)
  {
    return false;
  }

  /// Collective-payload corruption: number of leading bytes to bit-flip in
  /// @p rank 's contribution to its @p seq -th collective (0 = none). The
  /// flip happens after the contribution is checksummed, modeling
  /// corruption in flight; the reducing rank detects the mismatch.
  virtual std::size_t corrupt_collective(int /*rank*/,
                                         unsigned long long /*seq*/)
  {
    return 0;
  }
};

namespace internal
{
struct Message
{
  int source;
  int tag;
  long epoch; ///< sender's epoch; recv only matches its current epoch
  std::vector<char> data;
  /// earliest time the message may be matched by a recv (fault injection)
  std::chrono::steady_clock::time_point available_at;
};

struct Mailbox
{
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> messages;
};

/// One agree() round. Closed exactly once — either by the last arriving
/// rank or by the first rank whose deadline expires — and immutable
/// afterwards, so every reader adopts the identical verdict.
struct AgreeRound
{
  int arrived_count = 0;
  bool closed = false;
  std::vector<char> arrived; ///< per-rank arrival flags
  std::vector<char> ok;      ///< per-rank votes
  std::vector<char> verdict; ///< valid once closed: arrived && ok
};

struct SharedState
{
  explicit SharedState(const int n)
    : mailboxes(n), n_ranks(n), coll_contributions(n), coll_checksums(n, 0),
      heartbeats(new std::atomic<unsigned long long>[n])
  {
    for (int r = 0; r < n; ++r)
      heartbeats[r].store(0, std::memory_order_relaxed);
  }
  std::vector<Mailbox> mailboxes;
  int n_ranks;
  /// default wait deadline for all ranks (seconds; <= 0 waits forever)
  double default_timeout = 120.;

  // barrier / collective state (two-phase: ranks may not enter the next
  // collective before everyone has left the previous one)
  std::mutex coll_mutex;
  std::condition_variable coll_cv;
  int coll_count = 0;
  int coll_exiting = 0;
  long coll_generation = 0;
  /// per-rank contributions; the last arriving rank reduces them in rank
  /// order so the floating-point result is independent of thread timing
  std::vector<std::vector<double>> coll_contributions;
  /// XXH64 checksum of each honest contribution, verified at reduce time
  std::vector<std::uint64_t> coll_checksums;
  /// first rank whose contribution failed its checksum this round (-1: none)
  int coll_corrupt_rank = -1;
  std::vector<double> reduce_slot;

  // agreement state: rounds keyed by per-rank round sequence number
  std::mutex agree_mutex;
  std::condition_variable agree_cv;
  std::map<long, AgreeRound> agree_rounds;

  /// per-rank progress counters bumped on every send/recv/collective —
  /// the heartbeat HealthMonitor reads (piggybacked on existing traffic,
  /// no extra messages)
  std::unique_ptr<std::atomic<unsigned long long>[]> heartbeats;
};
} // namespace internal

class Communicator
{
public:
  /// Per-rank communication volume. Each Communicator is used by exactly one
  /// thread, so plain counters suffice; vmpi::run sums them over ranks at
  /// join and feeds the profiler's vmpi metrics.
  struct Traffic
  {
    unsigned long long messages = 0;
    unsigned long long bytes = 0; ///< payload bytes sent
    unsigned long long barriers = 0;
    unsigned long long allreduces = 0;
    unsigned long long agreements = 0; ///< agree() rounds entered
    unsigned long long drained = 0;    ///< stale messages purged (epochs)
  };

  Communicator(internal::SharedState &state, const int rank)
    : state_(state), rank_(rank), timeout_seconds_(state.default_timeout)
  {}

  int rank() const { return rank_; }
  int size() const { return state_.n_ranks; }

  const Traffic &traffic() const { return traffic_; }

  /// Deadline for this rank's blocking waits (seconds; <= 0 waits forever).
  /// The process-wide default comes from DGFLOW_VMPI_TIMEOUT (see vmpi::run).
  void set_timeout(const double seconds) { timeout_seconds_ = seconds; }
  double timeout() const { return timeout_seconds_; }

  /// Installs @p handler on this rank (nullptr uninstalls). The handler
  /// filters messages this rank *sends* and stalls this rank's collectives;
  /// it is typically shared by all ranks of a run and must be thread-safe.
  void install_fault_handler(FaultHandler *handler) { faults_ = handler; }
  FaultHandler *fault_handler() const { return faults_; }

  /// Buffered non-blocking send (returns immediately).
  void send(const int dest, const int tag, const void *data,
            const std::size_t bytes);

  /// Blocking receive matching (source, tag) in the current epoch; returns
  /// the payload size. Stale-epoch messages encountered while scanning are
  /// drained (counted in traffic().drained). Throws TimeoutError when no
  /// matching message arrives in time.
  std::size_t recv(const int source, const int tag, void *data,
                   const std::size_t max_bytes);

  template <typename T>
  void send_vector(const int dest, const int tag, const std::vector<T> &v)
  {
    send(dest, tag, v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> recv_vector(const int source, const int tag,
                             const std::size_t max_elements)
  {
    std::vector<T> v(max_elements);
    const std::size_t bytes =
      recv(source, tag, v.data(), max_elements * sizeof(T));
    DGFLOW_ASSERT(bytes % sizeof(T) == 0,
                  "recv_vector payload of " << bytes
                    << " bytes is not a multiple of the element size "
                    << sizeof(T) << " (source " << source << ", tag " << tag
                    << "): refusing to truncate");
    v.resize(bytes / sizeof(T));
    return v;
  }

  void barrier();

  enum class Op
  {
    sum,
    max,
    min
  };

  /// Allreduce of a double vector (in place), folded in ascending rank
  /// order. max and min return NaN for an entry any rank contributed NaN to.
  void allreduce(std::vector<double> &values, const Op op);

  double allreduce(const double value, const Op op)
  {
    std::vector<double> v{value};
    allreduce(v, op);
    return v[0];
  }

  // --- failure detection & recovery ---------------------------------------

  /// Fault-tolerant agreement collective. Every healthy rank calls
  /// agree(local_ok) at the same logical point; the round closes when all
  /// ranks arrive or when the first deadline expires, whichever is earlier,
  /// and its verdict — per rank: arrived before closure AND voted ok — is
  /// immutable afterwards, so every rank (including a straggler arriving
  /// after closure, which finds itself voted dead) adopts the identical
  /// failed set within one bounded exchange. Never throws on peer failure;
  /// the caller inspects the result. @p timeout_seconds <= 0 uses this
  /// rank's default timeout.
  AgreeResult agree(const bool local_ok, const double timeout_seconds = 0.);

  /// Current communication epoch. Messages are matched within one epoch
  /// only; recovery advances the epoch so retries cannot consume stale
  /// traffic from an abandoned exchange.
  long epoch() const { return epoch_; }

  /// Enters @p new_epoch (must be >= the current epoch and agreed across
  /// ranks — the recovery attempt number) and drains now-stale messages
  /// from this rank's mailbox. Returns the number of messages drained.
  std::size_t advance_epoch(const long new_epoch);

  /// Drains every message currently queued in this rank's mailbox,
  /// abandoning all in-flight exchanges addressed to it. Returns the
  /// number of messages drained (also counted in traffic().drained).
  std::size_t cancel_pending();

  /// This rank's progress heartbeat: bumped on every send, delivered recv
  /// and collective. Piggybacked on existing traffic — reading a peer's
  /// counter costs no message (vmpi::HealthMonitor builds on this).
  unsigned long long heartbeat(const int rank) const
  {
    return state_.heartbeats[rank].load(std::memory_order_relaxed);
  }

private:
  /// Collective rendezvous shared by barrier (empty vector) and allreduce,
  /// so barriers are not double-counted as allreduces.
  void allreduce_impl(std::vector<double> &values, const Op op,
                      const char *op_name);

  /// Removes messages with an epoch older than the current one from the
  /// locked mailbox deque (caller holds the mailbox mutex).
  std::size_t drain_stale_locked(std::deque<internal::Message> &messages);

  void beat()
  {
    state_.heartbeats[rank_].fetch_add(1, std::memory_order_relaxed);
  }

  internal::SharedState &state_;
  int rank_;
  Traffic traffic_;
  double timeout_seconds_;
  long epoch_ = 0;
  FaultHandler *faults_ = nullptr;
  /// deterministic per-(dest,tag) send sequence numbers for fault decisions
  std::map<std::pair<int, int>, unsigned long long> send_seq_;
  unsigned long long collective_seq_ = 0;
  long agree_seq_ = 0;
};

} // namespace dgflow::vmpi
