#pragma once

// Algorithm-based fault tolerance for setup artifacts: sidecar checksums
// over data that is computed once and then read for thousands of operator
// applications — compressed geometry batches, kernel dispatch tables, the
// partitioner's exchange lists, AMG level matrices, the inverse cell blocks
// of the multigrid smoothers. A bit flipped in any of these silently
// poisons every subsequent vmult; unlike a flipped Krylov vector it is
// never washed out by the iteration. ArtifactGuard therefore keeps an
// XXH64 checksum (common/checksum.h) of each registered artifact, chained
// over its regions, and, on scrub(), re-verifies them all and
// rebuilds the corrupt ones from primary data (the mesh, the operator, the
// instantiation tables).
//
// scrub() implements the AbftScrubber hook, so a SolverControl can point
// abft_scrub at an ArtifactGuard and have the CG residual-replay boundary
// double as the scrubbing cadence: a corrupted geometry batch is then
// rebuilt mid-solve and the iteration rolls back to its last validated
// snapshot — a local repair costing at most one replay interval, not a
// restart (see solvers/cg.h and docs/DEVELOPING.md, "Silent data corruption
// & ABFT").
//
// Region lists are enumerated lazily (a callback, not stored pointers) so a
// rebuild that reallocates its arrays never leaves the guard holding stale
// addresses.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/abft_hooks.h"
#include "matrixfree/matrix_free.h"
#include "vmpi/partitioner.h"

namespace dgflow::resilience
{
class ArtifactGuard : public AbftScrubber
{
public:
  /// One contiguous span of an artifact's memory.
  struct Region
  {
    const void *data = nullptr;
    std::size_t bytes = 0;
  };

  /// Enumerates the artifact's regions *right now* — called afresh on every
  /// verification, so rebuilds that reallocate stay valid.
  using Regions = std::function<std::vector<Region>()>;

  /// Reconstructs the artifact from primary data. Must leave it in a valid
  /// state; it need not be bit-identical (a repair may route around the
  /// corrupt representation, e.g. by disabling the kernel fast path), in
  /// which case scrub() adopts the post-rebuild state as the new baseline.
  using Rebuild = std::function<void()>;

  /// Registers an artifact and records its baseline checksum. Re-using a
  /// name replaces the earlier registration.
  void protect(std::string name, Regions regions, Rebuild rebuild);

  /// Re-checksums one artifact; true when it matches its baseline.
  bool verify(const std::string &name) const;

  /// Recomputes the baseline of one artifact after a legitimate mutation
  /// (e.g. the operator was reinitialized for a new mesh).
  void rebaseline(const std::string &name);

  /// Verifies every artifact and rebuilds the corrupt ones; returns the
  /// number rebuilt (0 = all checksums matched). A rebuild that reproduces
  /// the baseline bit-for-bit is a full repair; one that legitimately
  /// changes the representation rebaselines to the repaired state.
  unsigned int scrub() override;

  unsigned int n_artifacts() const { return entries_.size(); }
  unsigned long long verifications() const { return verifications_; }
  unsigned long long rebuilds() const { return rebuilds_; }

private:
  struct Entry
  {
    std::string name;
    Regions regions;
    Rebuild rebuild;
    std::uint64_t baseline = 0;
  };

  std::uint64_t checksum(const Entry &e) const;
  const Entry &find(const std::string &name) const;
  Entry &find(const std::string &name)
  {
    return const_cast<Entry &>(
      static_cast<const ArtifactGuard *>(this)->find(name));
  }

  std::vector<Entry> entries_;
  mutable unsigned long long verifications_ = 0;
  unsigned long long rebuilds_ = 0;
};

/// Protects the specialized kernel dispatch tables (float and double, every
/// size in DGFLOW_KERNEL_DISPATCH_SIZES). The entries are code pointers, so
/// a flipped one cannot be recomputed — the repair disables the specialized
/// fast path instead, routing every evaluator constructed afterwards through
/// the verified runtime-extent kernels (scrub() then adopts the disabled
/// state as the new baseline).
void protect_kernel_tables(ArtifactGuard &guard);

/// Protects every cell/face metric array of a MatrixFree object — the
/// compressed geometry batches of the paper's Section 3.2 storage scheme.
/// Repair: MatrixFree::recompute_metrics(), a deterministic rebuild from the
/// stored geometry lattice that restores the arrays bit-for-bit.
template <typename Number>
void protect_matrix_free(ArtifactGuard &guard, MatrixFree<Number> &mf,
                         std::string name = "matrix_free")
{
  auto regions = [&mf]() {
    std::vector<ArtifactGuard::Region> r;
    const auto add = [&r](const auto &v) {
      if (v.size() > 0)
        r.push_back({v.data(), v.size() * sizeof(v[0])});
    };
    for (unsigned int q = 0; q < mf.n_quads(); ++q)
    {
      const auto &cm = mf.cell_metric(q);
      add(cm.type);
      add(cm.data_index);
      add(cm.inv_jac_t);
      add(cm.JxW);
      add(cm.batch_inv_jac_t);
      add(cm.batch_det);
      add(cm.q_weight);
      add(cm.q_points);
      const auto &fm = mf.face_metric(q);
      add(fm.type);
      add(fm.data_index);
      add(fm.normal);
      add(fm.JxW);
      add(fm.inv_jac_t_m);
      add(fm.inv_jac_t_p);
      add(fm.batch_normal);
      add(fm.batch_jxw_scale);
      add(fm.batch_inv_jac_t_m);
      add(fm.batch_inv_jac_t_p);
      add(fm.q_weight);
      add(fm.q_points);
      add(fm.penalty_factor);
    }
    return r;
  };
  guard.protect(std::move(name), std::move(regions),
                [&mf]() { mf.recompute_metrics(); });
}

/// Protects a partitioner's exchange lists (send/recv lists and ghost
/// indices — the data every halo exchange trusts). Repair: rebuild from the
/// mesh and ownership map via Partitioner::cell_partitioner(), which needs
/// no communication. @p mesh is captured by reference and must outlive the
/// guard; @p rank_of_cell is copied.
inline void protect_partitioner(ArtifactGuard &guard, vmpi::Partitioner &part,
                                const Mesh &mesh,
                                std::vector<int> rank_of_cell,
                                std::string name = "partitioner")
{
  auto regions = [&part]() {
    std::vector<ArtifactGuard::Region> r;
    const auto add_lists = [&r](const auto &lists) {
      for (const auto &[neighbor, list] : lists)
      {
        r.push_back({&neighbor, sizeof(neighbor)});
        if (!list.empty())
          r.push_back({list.data(), list.size() * sizeof(list[0])});
      }
    };
    add_lists(part.send_lists());
    add_lists(part.recv_lists());
    const auto &ghosts = part.ghost_indices();
    if (!ghosts.empty())
      r.push_back({ghosts.data(), ghosts.size() * sizeof(ghosts[0])});
    return r;
  };
  auto rebuild = [&part, &mesh, rank_of_cell = std::move(rank_of_cell)]() {
    part = vmpi::Partitioner::cell_partitioner(mesh, rank_of_cell,
                                               part.rank(), part.n_ranks());
  };
  guard.protect(std::move(name), std::move(regions), std::move(rebuild));
}

/// Protects the AMG hierarchy owned by a multigrid preconditioner (any type
/// exposing amg() and rebuild_amg(), i.e. HybridMultigrid). The checksummed
/// regions are every level's A/P/R values plus the coarse LU factors;
/// repair re-runs the AMG setup from the assembled coarse matrix — a
/// deterministic rebuild, so the baseline is reproduced bit-for-bit.
template <typename Multigrid>
void protect_amg(ArtifactGuard &guard, Multigrid &mg,
                 std::string name = "amg_levels")
{
  guard.protect(
    std::move(name),
    [&mg]() {
      std::vector<std::pair<const void *, std::size_t>> raw;
      mg.amg().collect_value_regions(raw);
      std::vector<ArtifactGuard::Region> r;
      for (const auto &[data, bytes] : raw)
        if (bytes > 0)
          r.push_back({data, bytes});
      return r;
    },
    [&mg]() { mg.rebuild_amg(); });
}

/// Protects the inverse cell blocks of every DG level smoother of a
/// multigrid preconditioner (any type exposing
/// collect_smoother_block_regions() and rebuild_smoother_blocks(), i.e.
/// HybridMultigrid). A flipped block would bias every smoothing sweep on its
/// cell. Repair re-probes and re-inverts the blocks in place — a
/// deterministic rebuild, so the baseline is reproduced bit-for-bit.
template <typename Multigrid>
void protect_smoother_blocks(ArtifactGuard &guard, Multigrid &mg,
                             std::string name = "smoother_blocks")
{
  guard.protect(
    std::move(name),
    [&mg]() {
      std::vector<std::pair<const void *, std::size_t>> raw;
      mg.collect_smoother_block_regions(raw);
      std::vector<ArtifactGuard::Region> r;
      for (const auto &[data, bytes] : raw)
        if (bytes > 0)
          r.push_back({data, bytes});
      return r;
    },
    [&mg]() { mg.rebuild_smoother_blocks(); });
}

} // namespace dgflow::resilience
