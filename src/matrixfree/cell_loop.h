#pragma once

// Shared cell/face loop driver of the operator contract v2
// (operators/README.md): every matrix-free operator evaluates its kernels
// through cell_face_loop (or cell_only_loop for cell-local operators), which
// owns the traversal order, the distributed ghost-exchange overlap, the
// shared-memory thread parallelization and the solver hook scheduling.
//
// Operators hand the driver a KERNEL FACTORY instead of ready-made kernels:
// a generic callable make_kernels(dst_view) that constructs its evaluators
// and returns LoopKernels{cell, inner, boundary} writing through dst_view.
// The driver builds one kernel set per chunk of the traversal's thread
// partition (MatrixFree::thread_partition: min(pool width at reinit,
// batches) chunks), each with private evaluator scratch and writing through
// a ChunkDst mask. There is one traversal, in three phases; pool width 1 is
// its one-chunk case:
//
//   0  each chunk: pre hooks + cell integrals of its own batches
//   1  each chunk: its face list (cross-chunk faces are evaluated by every
//      touching chunk, writes masked to the chunk's cell range) + post hooks
//      of batches no other chunk still reads
//   2  caller: deferred post hooks of chunk-boundary batches, ascending
//
// Every dst entry accumulates cell integral first, then its faces in
// ascending face-batch order with the minus side before the plus side —
// the one-chunk order, for any chunk count — so vmult results are BITWISE
// IDENTICAL at any pool width (the determinism argument is spelled out in
// docs/DEVELOPING.md, "Shared-memory parallel loops").
//
// The solver hooks fold BLAS-1 vector updates into the operator sweep:
//
//   pre(begin, end)   fires immediately before the loop first reads
//                     src[begin, end) — for a DG space, right before the
//                     batch's cell integral; batches feeding the ghost wire
//                     fire before the exchange is posted.
//   post(begin, end)  fires as soon as the traversal will neither read the
//                     batch's src entries nor write its dst entries again —
//                     per-thread for chunk-private batches, after the join
//                     for chunk-boundary batches.
//
// Ranges are half-open local scalar indices (distributed: into the owned
// range), tile the vector exactly once per vmult, and are contiguous because
// cell batches pack consecutive cells. Hooks must be elementwise in their
// range (all solver hooks are): they run concurrently on disjoint ranges.
// Passing NoRangeHook for both slots compiles the scheduling away.

#include <chrono>
#include <utility>
#include <vector>

#include "common/loop_hooks.h"
#include "common/vector.h"
#include "concurrency/thread_pool.h"
#include "instrumentation/profiler.h"
#include "matrixfree/matrix_free.h"

namespace dgflow
{
namespace internal
{
/// DoF range of a cell batch in a vector with @p block scalars per cell;
/// @p base is the vector's first_local_index() (0 for a serial Vector).
template <typename Number>
inline std::pair<std::size_t, std::size_t>
batch_dof_range(const MatrixFree<Number> &mf, const unsigned int b,
                const unsigned int block, const std::size_t base)
{
  const auto &cb = mf.cell_batch(b);
  const std::size_t begin = std::size_t(cb.cells[0]) * block - base;
  return {begin, begin + std::size_t(cb.n_filled) * block};
}

/// Destination mask of one thread chunk: behaves like the wrapped vector but
/// owns only the cells in [cell_begin, cell_end). The evaluators'
/// distribute_local_to_global consults is_owned_element per lane, which is
/// exactly the cut-face masking of the distributed path — a face evaluated
/// by two chunks writes each cell from its owning chunk only.
template <typename VectorType>
struct ChunkDst
{
  using value_type = typename VectorType::value_type;

  VectorType &vec;
  index_t cell_begin, cell_end;

  value_type *data() { return vec.data(); }
  const value_type *data() const { return vec.data(); }
  std::size_t size() const { return vec.size(); }

  bool is_owned_element(const std::size_t cell) const
  {
    return cell >= cell_begin && cell < cell_end && vec.is_owned_element(cell);
  }

  std::size_t local_dof_offset(const std::size_t cell,
                               const unsigned int n_dofs) const
  {
    return vec.local_dof_offset(cell, n_dofs);
  }

  value_type &operator[](const std::size_t i) { return vec[i]; }
  value_type operator[](const std::size_t i) const { return vec[i]; }
};

inline double seconds_since(const std::chrono::steady_clock::time_point t0)
{
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
    .count();
}

/// Publishes the load-balance gauges of one threaded sweep: parallel
/// efficiency mean/max (1 = perfectly balanced) and imbalance max/mean.
inline void publish_thread_balance(const std::vector<double> &chunk_seconds)
{
  double sum = 0., peak = 0.;
  for (const double s : chunk_seconds)
  {
    sum += s;
    peak = std::max(peak, s);
  }
  if (peak <= 0.)
    return;
  const double mean = sum / double(chunk_seconds.size());
  DGFLOW_PROF_GAUGE("mf_thread_imbalance", peak / mean);
  DGFLOW_PROF_GAUGE("mf_thread_efficiency", mean / peak);
}
} // namespace internal

/// Kernel set one cell_face_loop kernel factory returns: batch-index
/// callables for the cell integrals, interior faces and boundary faces, all
/// writing through the dst view the factory received.
template <typename CellFn, typename InnerFn, typename BoundaryFn>
struct LoopKernels
{
  CellFn cell;
  InnerFn inner;
  BoundaryFn boundary;
};

template <typename CellFn, typename InnerFn, typename BoundaryFn>
LoopKernels(CellFn, InnerFn, BoundaryFn)
  -> LoopKernels<CellFn, InnerFn, BoundaryFn>;

/// Runs the full cell + face traversal of one operator application.
/// make_kernels(dst_view) must return LoopKernels writing through dst_view;
/// the batch callables read src / accumulate into the view themselves. dst
/// must already be zeroed. src_block / dst_block are the scalars per cell of
/// the respective space (they differ for mixed-space operators like
/// divergence/gradient).
template <typename Number, typename VectorType, typename KernelFactory,
          typename PreFn, typename PostFn>
void cell_face_loop(const MatrixFree<Number> &mf, VectorType &dst,
                    const VectorType &src, const unsigned int dst_block,
                    const unsigned int src_block, KernelFactory &&make_kernels,
                    PreFn &&pre, PostFn &&post)
{
  constexpr bool distributed = is_distributed_vector_v<VectorType>;
  constexpr bool has_pre = !internal::is_no_hook_v<PreFn>;
  constexpr bool has_post = !internal::is_no_hook_v<PostFn>;

  int rank = -1;
  if constexpr (distributed)
    rank = src.rank();
  // which backend's kernels this traversal drives (evaluators constructed by
  // make_kernels resolve it from the same MatrixFree)
  DGFLOW_PROF_GAUGE("mf_backend", double(static_cast<int>(mf.kernel_backend())));
  const auto &part = mf.thread_partition(rank);

  const std::size_t src_base = src.first_local_index();
  const std::size_t dst_base = dst.first_local_index();
  const auto fire_pre = [&](const unsigned int b) {
    const auto [r0, r1] = internal::batch_dof_range(mf, b, src_block, src_base);
    pre(r0, r1);
  };
  const auto fire_post = [&](const unsigned int b) {
    const auto [r0, r1] = internal::batch_dof_range(mf, b, dst_block, dst_base);
    post(r0, r1);
  };

  const unsigned int n_chunks = part.chunks.size();
  using View = internal::ChunkDst<VectorType>;
  std::vector<View> views;
  views.reserve(n_chunks);
  for (const auto &ch : part.chunks)
    views.push_back(View{dst, ch.cell_begin, ch.cell_end});
  using KernelsT = decltype(make_kernels(std::declval<View &>()));
  std::vector<KernelsT> kernels;
  kernels.reserve(n_chunks);
  for (auto &v : views)
    kernels.push_back(make_kernels(v));

  const bool measure = prof::Profiler::instance().enabled();
  std::vector<double> chunk_seconds(n_chunks, 0.);
  auto &pool = concurrency::ThreadPool::instance();

  if constexpr (distributed)
  {
    // src-mutating pre hooks must finalize the entries the ghost pack reads
    // (cells on cut faces) before the sends are posted
    if constexpr (has_pre)
      for (unsigned int b = part.batch_begin; b < part.batch_end; ++b)
        if (part.pre_before_exchange[b - part.batch_begin])
          fire_pre(b);
    src.update_ghost_values_start();
  }

  // phase 0: per-chunk pre hooks + cell integrals
  pool.run_chunks(n_chunks, [&](const unsigned int c) {
    const auto t0 = std::chrono::steady_clock::now();
    DGFLOW_PROF_SCOPE("mf_cells");
    const auto &ch = part.chunks[c];
    for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
    {
      if constexpr (has_pre)
        if (!part.pre_before_exchange[b - part.batch_begin])
          fire_pre(b);
      kernels[c].cell(b);
    }
    if (measure)
      chunk_seconds[c] += internal::seconds_since(t0);
  });

  if constexpr (distributed)
    src.update_ghost_values_finish();

  // phase 1: per-chunk face lists + post hooks of chunk-private batches
  pool.run_chunks(n_chunks, [&](const unsigned int c) {
    const auto t0 = std::chrono::steady_clock::now();
    DGFLOW_PROF_SCOPE("mf_faces");
    const auto &ch = part.chunks[c];
    const auto fire_completed = [&](const unsigned int slot) {
      for (unsigned int k = ch.completes_ptr[slot];
           k < ch.completes_ptr[slot + 1]; ++k)
        fire_post(ch.completes_data[k]);
    };
    for (unsigned int i = 0; i < ch.face_list.size(); ++i)
    {
      const unsigned int b = ch.face_list[i];
      if (mf.face_batch(b).interior)
        kernels[c].inner(b);
      else
        kernels[c].boundary(b);
      if constexpr (has_post)
        fire_completed(i);
    }
    if constexpr (has_post)
      fire_completed(static_cast<unsigned int>(ch.face_list.size()));
    if (measure)
      chunk_seconds[c] += internal::seconds_since(t0);
  });

  // phase 2: deferred posts of chunk-boundary batches, ascending
  if constexpr (has_post)
    for (const unsigned int b : part.deferred)
      fire_post(b);

  if (measure)
    internal::publish_thread_balance(chunk_seconds);
  unsigned long long n_face_evals = 0;
  for (const auto &ch : part.chunks)
    n_face_evals += ch.face_list.size();
  DGFLOW_PROF_COUNT("mf_cell_batches", part.batch_end - part.batch_begin);
  DGFLOW_PROF_COUNT("mf_face_batches",
                    static_cast<long long>(n_face_evals));
}

/// Cell-only variant (no face terms, serial vectors): the post hook fires
/// directly after each batch's cell work since nothing revisits the batch.
/// make_cell(dst_view) returns the single cell-batch callable; cell-local
/// writes are disjoint per chunk, so every chunk gets the real dst and
/// needs no masking or deferral.
template <typename Number, typename VectorType, typename KernelFactory,
          typename PreFn, typename PostFn>
void cell_only_loop(const MatrixFree<Number> &mf, VectorType &dst,
                    const VectorType &src, const unsigned int dst_block,
                    const unsigned int src_block, KernelFactory &&make_cell,
                    PreFn &&pre, PostFn &&post)
{
  constexpr bool has_pre = !internal::is_no_hook_v<PreFn>;
  constexpr bool has_post = !internal::is_no_hook_v<PostFn>;
  DGFLOW_PROF_GAUGE("mf_backend", double(static_cast<int>(mf.kernel_backend())));
  const std::size_t src_base = src.first_local_index();
  const std::size_t dst_base = dst.first_local_index();
  const auto run_batch = [&](auto &cell_kernel, const unsigned int b) {
    if constexpr (has_pre)
    {
      const auto [r0, r1] =
        internal::batch_dof_range(mf, b, src_block, src_base);
      pre(r0, r1);
    }
    cell_kernel(b);
    if constexpr (has_post)
    {
      const auto [r0, r1] =
        internal::batch_dof_range(mf, b, dst_block, dst_base);
      post(r0, r1);
    }
  };

  const auto &part = mf.thread_partition(-1);
  using KernelT = decltype(make_cell(dst));
  std::vector<KernelT> kernels;
  kernels.reserve(part.chunks.size());
  for (std::size_t c = 0; c < part.chunks.size(); ++c)
    kernels.push_back(make_cell(dst));
  concurrency::ThreadPool::instance().run_chunks(
    part.chunks.size(), [&](const unsigned int c) {
      const auto &ch = part.chunks[c];
      for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
        run_batch(kernels[c], b);
    });
  DGFLOW_PROF_COUNT("mf_cell_batches", mf.n_cell_batches());
}

} // namespace dgflow
