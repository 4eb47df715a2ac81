#pragma once

// Distributed solution vector over a vmpi Partitioner: owned elements first
// (one contiguous block of block_size scalars per element, matching the
// cell-local DG DoF layout), ghost elements appended in ascending global
// order. Implements the same vector-space concept as the serial Vector
// (add/sadd/equ/scale, allreduce-backed dot and norms) plus the ghost
// machinery the distributed operator evaluation needs: a split non-blocking
// update_ghost_values_start()/finish() pair — post the sends, evaluate owned
// cells, wait, evaluate cut faces — and compress_add() for the reverse
// ghost-to-owner accumulation.
//
// Ghost-state contract (operators/README.md "Ghost state"): the vector
// tracks whether its ghost section is up to date. Reading ghost elements
// (FEEvaluation::read_dof_values through local_dof_offset) debug-asserts
// the ghosted state; every mutating BLAS-1 operation invalidates it;
// compress_add() requires it and returns the vector owned-only with a
// zeroed ghost section.
//
// The wire carries the storage precision Number, so the ghosts of a vector
// are bitwise its owners' values (a float multigrid level exchanges floats).

#include <cmath>
#include <vector>

#include "common/aligned_vector.h"
#include "common/exceptions.h"
#include "common/vector.h"
#include "vmpi/partitioner.h"

namespace dgflow
{
namespace vmpi
{
template <typename Number>
class DistributedVector
{
public:
  using value_type = Number;

  enum class GhostState : unsigned char
  {
    owned_only, ///< ghost section stale; reads of ghosts are a bug
    ghosted     ///< ghost section mirrors the owners' current values
  };

  DistributedVector() = default;

  DistributedVector(const Partitioner &part, Communicator &comm,
                    const unsigned int block_size = 1)
  {
    reinit(part, comm, block_size);
  }

  /// Attaches the vector to a partition: block_size scalars per element,
  /// owned elements first, ghosts appended. Zero-initialized.
  void reinit(const Partitioner &part, Communicator &comm,
              const unsigned int block_size = 1, const bool fast = false)
  {
    part_ = &part;
    comm_ = &comm;
    block_ = block_size;
    data_.resize_without_init(part.n_local() * block_);
    if (!fast)
      data_.fill(Number(0));
    state_ = GhostState::owned_only;
  }

  /// Mirror another vector's layout (vector-space concept): same
  /// partitioner, communicator and block size.
  void reinit_like(const DistributedVector &other, const bool fast = false)
  {
    DGFLOW_ASSERT(other.part_ != nullptr, "cannot mirror an empty vector");
    reinit(*other.part_, *other.comm_, other.block_, fast);
  }

  /// Number of locally owned scalars — the range all BLAS-1 operations and
  /// reductions act on. Ghost storage is excluded on purpose so that
  /// size-based loops never touch stale ghost data.
  std::size_t size() const { return part_ ? part_->n_owned() * block_ : 0; }

  std::size_t ghost_size() const
  {
    return part_ ? part_->n_ghosts() * block_ : 0;
  }

  std::size_t global_size() const
  {
    return part_ ? part_->n_global() * block_ : 0;
  }

  /// Global index of owned scalar 0.
  std::size_t first_local_index() const
  {
    return part_ ? part_->owned_begin() * block_ : 0;
  }

  unsigned int block_size() const { return block_; }
  const Partitioner &partitioner() const { return *part_; }
  Communicator &communicator() const { return *comm_; }
  int rank() const { return part_ ? part_->rank() : 0; }

  GhostState ghost_state() const { return state_; }

  /// Marks the ghost section stale without touching any data. Solver hooks
  /// that mutate owned entries through raw indexing (the fused cell-loop
  /// post hooks) call this so the ghost-state guard keeps catching stale
  /// reads; the next vmult re-exchanges regardless.
  void invalidate_ghosts() const { state_ = GhostState::owned_only; }

  /// Local storage: [0, size()) owned scalars, then ghost scalars.
  Number &operator()(const std::size_t i) { return data_[i]; }
  Number operator()(const std::size_t i) const { return data_[i]; }
  Number &operator[](const std::size_t i) { return data_[i]; }
  Number operator[](const std::size_t i) const { return data_[i]; }
  Number *data() { return data_.data(); }
  const Number *data() const { return data_.data(); }

  /// Offset into data() of the block of the given global element (owned or
  /// ghost). Reading a ghost block requires an up-to-date ghost section —
  /// asserted in debug builds (the operator contract's ghost-state check).
  std::size_t local_dof_offset(const std::size_t element,
                               const unsigned int n_dofs) const
  {
    DGFLOW_DEBUG_ASSERT(n_dofs == block_, "element block size mismatch");
    (void)n_dofs;
    const std::size_t l = part_->local_index(element);
    DGFLOW_DEBUG_ASSERT(l != Partitioner::invalid_local,
                        "element is neither owned nor ghost on this rank");
    DGFLOW_DEBUG_ASSERT(l < part_->n_owned() ||
                          state_ == GhostState::ghosted,
                        "reading ghost values without update_ghost_values()");
    return l * block_;
  }

  bool is_owned_element(const std::size_t element) const
  {
    return part_->is_owned(element);
  }

  void operator=(const Number s)
  {
    data_.fill(s);
    state_ = GhostState::owned_only;
  }

  /// this += a * x
  void add(const Number a, const DistributedVector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] += a * xd[i];
      });
    state_ = GhostState::owned_only;
  }

  /// this = s * this + a * x
  void sadd(const Number s, const Number a, const DistributedVector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = s * d[i] + a * xd[i];
      });
    state_ = GhostState::owned_only;
  }

  /// this = a * x
  void equ(const Number a, const DistributedVector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i];
      });
    state_ = GhostState::owned_only;
  }

  /// this = a * x + b * y
  void equ(const Number a, const DistributedVector &x, const Number b,
           const DistributedVector &y)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size() && y.size() == size(),
                        "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    const Number *DGFLOW_RESTRICT yd = y.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i] + b * yd[i];
      });
    state_ = GhostState::owned_only;
  }

  void scale(const Number a)
  {
    Number *DGFLOW_RESTRICT d = data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= a;
      });
    state_ = GhostState::owned_only;
  }

  /// Pointwise multiply: this[i] *= x[i] (Jacobi preconditioning).
  void scale_pointwise(const DistributedVector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= xd[i];
      });
    state_ = GhostState::owned_only;
  }

  /// Global dot product: rank-local partial sums (the deterministically
  /// blocked double accumulation of the serial Vector — bitwise identical at
  /// any thread count) combined with one allreduce. The allreduce folds
  /// contributions in rank order, so the result is deterministic.
  Number dot(const DistributedVector &x) const
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    const double s =
      dgflow::internal::chunked_dot(data_.data(), x.data_.data(), size());
    return Number(comm_->allreduce(s, Communicator::Op::sum));
  }

  Number norm_sqr() const { return dot(*this); }

  Number l2_norm() const { return std::sqrt(dot(*this)); }

  /// Largest owned magnitude over all ranks; NaN if any rank holds a NaN.
  Number linfty_norm() const
  {
    double m = 0;
    for (std::size_t i = 0; i < size(); ++i)
      m = nan_max(m, double(std::abs(data_[i])));
    return Number(comm_->allreduce(m, Communicator::Op::max));
  }

  /// Convert-copy from a vector of another precision on the same partition
  /// (owned range only; the ghost section is left stale).
  template <typename Number2>
  void copy_and_convert(const DistributedVector<Number2> &x)
  {
    if (part_ == nullptr || !(*part_ == x.partitioner()) ||
        block_ != x.block_size())
      reinit(x.partitioner(), x.communicator(), x.block_size(), true);
    for (std::size_t i = 0; i < x.size(); ++i)
      data_[i] = Number(x[i]);
    state_ = GhostState::owned_only;
  }

  /// Copies this rank's owned slice out of a replicated global vector.
  void copy_owned_from(const Vector<Number> &global)
  {
    DGFLOW_ASSERT(global.size() == global_size(), "global size mismatch");
    const Number *src = global.data() + first_local_index();
    for (std::size_t i = 0; i < size(); ++i)
      data_[i] = src[i];
    state_ = GhostState::owned_only;
  }

  void swap(DistributedVector &other)
  {
    std::swap(part_, other.part_);
    std::swap(comm_, other.comm_);
    std::swap(block_, other.block_);
    std::swap(state_, other.state_);
    std::swap(exchange_in_flight_, other.exchange_in_flight_);
    data_.swap(other.data_);
  }

  // --- ghost exchange -----------------------------------------------------

  /// Posts the owned->ghost exchange: one buffered non-blocking message per
  /// neighbor, packing that neighbor's send list. Owned values may not be
  /// modified until update_ghost_values_finish().
  void update_ghost_values_start() const
  {
    DGFLOW_DEBUG_ASSERT(!exchange_in_flight_, "exchange already in flight");
    for (const auto &[neighbor, list] : part_->send_lists())
      send_blocks(neighbor, tag_ghost, list, owned_offset());
    exchange_in_flight_ = true;
  }

  /// Receives and unpacks the ghost section; afterwards the vector is in
  /// the ghosted state.
  void update_ghost_values_finish() const
  {
    DGFLOW_DEBUG_ASSERT(exchange_in_flight_,
                        "update_ghost_values_finish without start");
    for (const auto &[neighbor, list] : part_->recv_lists())
      recv_blocks(neighbor, tag_ghost, list, local_offset(),
                  /*accumulate=*/false);
    exchange_in_flight_ = false;
    state_ = GhostState::ghosted;
  }

  void update_ghost_values() const
  {
    update_ghost_values_start();
    update_ghost_values_finish();
  }

  /// Recovery: abandons an exchange that will never complete (a peer died
  /// between our start and its send). Clears the in-flight flag and zeroes
  /// the ghost section back to the owned-only state; the messages already
  /// queued to or from the dead epoch are drained by
  /// Communicator::cancel_pending()/advance_epoch().
  void abandon_exchange()
  {
    exchange_in_flight_ = false;
    zero_ghosts();
  }

  /// Reverse exchange: adds each ghost value into its owner's element and
  /// zeroes the ghost section. Requires an initialized ghost section
  /// (ghosted state, asserted in debug builds); leaves the vector
  /// owned-only.
  void compress_add()
  {
    DGFLOW_DEBUG_ASSERT(state_ == GhostState::ghosted,
                        "compress_add on a vector without ghost values");
    for (const auto &[neighbor, list] : part_->recv_lists())
      send_blocks(neighbor, tag_compress, list, local_offset());
    for (const auto &[neighbor, list] : part_->send_lists())
      recv_blocks(neighbor, tag_compress, list, owned_offset(),
                  /*accumulate=*/true);
    zero_ghosts();
  }

  void zero_ghosts()
  {
    Number *g = data_.data() + size();
    const std::size_t n = ghost_size();
    for (std::size_t i = 0; i < n; ++i)
      g[i] = Number(0);
    state_ = GhostState::owned_only;
  }

  std::size_t memory_consumption() const
  {
    return data_.memory_consumption() +
           pack_buffer_.capacity() * sizeof(Number);
  }

private:
  static constexpr int tag_ghost = 930;
  static constexpr int tag_compress = 931;

  /// Offset into data_ of an owned element's block.
  auto owned_offset() const
  {
    return [this](const std::size_t g) {
      return (g - part_->owned_begin()) * block_;
    };
  }

  /// Offset into data_ of an owned or ghost element's block.
  auto local_offset() const
  {
    return [this](const std::size_t g) {
      return part_->local_index(g) * block_;
    };
  }

  /// One wire message: the blocks of @p list, read at offset_of(element),
  /// packed in list order.
  template <typename OffsetFn>
  void send_blocks(const int neighbor, const int tag,
                   const std::vector<std::size_t> &list,
                   OffsetFn &&offset_of) const
  {
    pack_buffer_.resize(list.size() * block_);
    Number *buf = pack_buffer_.data();
    for (const std::size_t g : list)
    {
      const Number *src = data_.data() + offset_of(g);
      for (unsigned int k = 0; k < block_; ++k)
        *buf++ = src[k];
    }
    comm_->send(neighbor, tag, pack_buffer_.data(),
                pack_buffer_.size() * sizeof(Number));
  }

  /// Receives the message of send_blocks and stores (or adds) each block at
  /// offset_of(element).
  template <typename OffsetFn>
  void recv_blocks(const int neighbor, const int tag,
                   const std::vector<std::size_t> &list,
                   OffsetFn &&offset_of, const bool accumulate) const
  {
    pack_buffer_.resize(list.size() * block_);
    comm_->recv(neighbor, tag, pack_buffer_.data(),
                pack_buffer_.size() * sizeof(Number));
    const Number *buf = pack_buffer_.data();
    for (const std::size_t g : list)
    {
      Number *dst = data_.data() + offset_of(g);
      for (unsigned int k = 0; k < block_; ++k)
      {
        if (accumulate)
          dst[k] += *buf++;
        else
          dst[k] = *buf++;
      }
    }
  }

  const Partitioner *part_ = nullptr;
  Communicator *comm_ = nullptr;
  unsigned int block_ = 1;
  /// mutable: the const ghost exchange writes the ghost section in place
  mutable AlignedVector<Number> data_;
  mutable std::vector<Number> pack_buffer_;
  /// Ghost exchange touches no owned data, so start/finish are const (the
  /// operator vmult refreshes src ghosts); the ghost section and the state
  /// flag are mutable bookkeeping.
  mutable GhostState state_ = GhostState::owned_only;
  mutable bool exchange_in_flight_ = false;
};

} // namespace vmpi
} // namespace dgflow
