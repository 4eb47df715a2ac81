#pragma once

// Hybrid geometric-polynomial-algebraic multigrid preconditioner for the DG
// Laplacian (paper Section 3.4, Algorithm 1, Figure 5):
//
//   DG(k) -p-> DG(k/2) -p-> ... -p-> DG(1) -c-> CFE Q1 -h-> Q1 on coarsened
//   meshes (global coarsening) ... -> smoothed-aggregation AMG coarse solve
//
// Every level smooths with Chebyshev degree 3: preconditioned by the exact
// inverse cell blocks on the DG levels (solvers/cell_block_inverse.h), whose
// sheared junction cells point Jacobi cannot smooth, and by point Jacobi on
// the Q1 levels. A DG(k) cell's block holds (k+1)^6 entries in the level
// precision, (k+1)^3 times the cell's share of a level vector, and inverting
// it costs about (k+1)^9 flops: 187 KB and 1e7 flops per float DG(5) cell,
// 2.1 MB and 4e8 flops per DG(8) cell. setup() rejects a degree above 8.
// Smoothing and transfers run in single precision ("the
// V-cycle is run in single precision to improve the throughput of
// multigrid preconditioning"); the cell blocks are inverted in double. The
// algebraic coarse solve runs in double, matching the paper's BoomerAMG
// setup with two V-cycles of one symmetric Gauss-Seidel sweep each.
//
// One V-cycle serves the serial and the distributed preconditioner. Every
// level keeps its concrete operator, smoother and transfer types. The DG
// levels recurse over the level vector type: a serial Vector runs all cells
// and all rows of the c-transfer; a vmpi::DistributedVector runs this
// rank's cells and rows and sums the restricted Q1 right-hand side over the
// ranks. Both then enter the one serial recursion over the Q1 levels and
// the AMG, replicated on every rank.

#include <concepts>
#include <optional>
#include <type_traits>

#include "common/timer.h"
#include "instrumentation/profiler.h"

#include "amg/amg.h"
#include "multigrid/transfer.h"
#include "operators/cfe_laplace_operator.h"
#include "operators/laplace_operator.h"
#include "solvers/cell_block_inverse.h"
#include "solvers/chebyshev.h"
#include "vmpi/distributed_vector.h"

namespace dgflow
{
template <typename LevelNumber = float>
class HybridMultigrid
{
public:
  using LVec = Vector<LevelNumber>;
  using DVec = vmpi::DistributedVector<LevelNumber>;

  HybridMultigrid() = default;
  // the level operators point into this object's MatrixFree and Q1 spaces,
  // and each smoother at its level's operator: a copy or a move would apply
  // the source's levels
  HybridMultigrid(const HybridMultigrid &) = delete;
  HybridMultigrid &operator=(const HybridMultigrid &) = delete;

  struct Options
  {
    bool h_coarsening = true; ///< build globally coarsened Q1 levels
    ChebyshevData smoother;
    AMG::Options amg;
    unsigned int geometry_degree = 2;
    double penalty_safety = 2.;
    /// cell partition for distributed solves (forwarded to the fine
    /// MatrixFree so batches split at rank boundaries); empty = serial.
    /// Pass the same values to every rank's instance — the hierarchy is
    /// replicated, only the V-cycle work is partitioned.
    std::vector<int> rank_of_cell;
    int n_ranks = 1;
    /// ABFT V-cycle guard: turn on the Chebyshev sweep guard on every level
    /// smoother and scan each V-cycle's result for non-finite entries; a
    /// corrupt serial cycle is re-run once (deterministic, so a transient
    /// flip in cycle scratch heals exactly), a still-corrupt result falls
    /// back to the identity step so the outer CG's replay guard decides.
    /// Off by default: the guarded fault-free V-cycle is bitwise identical.
    bool abft_guard = false;
  };

  /// Sets up the full hierarchy for the DG(degree) Laplacian on @p mesh;
  /// the degree is at most 8 (see the header comment).
  void setup(const Mesh &mesh, const Geometry &geometry,
             const unsigned int degree, const BoundaryMap &bc,
             const Options &options = Options())
  {
    DGFLOW_PROF_SCOPE("mg_setup");
    const unsigned int block = (degree + 1) * (degree + 1) * (degree + 1);
    DGFLOW_ASSERT(block <= CellBlockInverse<LevelNumber>::max_block_size,
                  "the DG levels smooth with inverse cell blocks of (k+1)^3 "
                  "x (k+1)^3 entries, at most "
                    << CellBlockInverse<LevelNumber>::max_block_size
                    << " rows (degree 8); degree " << degree
                    << " is out of range");
    options_ = options;
    if (options_.abft_guard)
      options_.smoother.abft_check = true;
    bc_ = bc;

    // polynomial chain k, k/2, ..., 1 (bisection)
    std::vector<unsigned int> degrees = {degree};
    while (degrees.back() > 1)
      degrees.push_back(std::max(1u, degrees.back() / 2));
    const unsigned int n_dg = degrees.size();

    // one MatrixFree on the finest mesh carrying all DG spaces + Q1(GL)
    typename MatrixFree<LevelNumber>::AdditionalData mf_data;
    std::vector<unsigned int> quads;
    std::vector<unsigned int> quad_of_space;
    const auto add_space = [&](const unsigned int k, const BasisType basis) {
      mf_data.degrees.push_back(k);
      mf_data.basis_types.push_back(basis);
      unsigned int qi = 0;
      for (; qi < quads.size(); ++qi)
        if (quads[qi] == k + 1)
          break;
      if (qi == quads.size())
        quads.push_back(k + 1);
      quad_of_space.push_back(qi);
    };
    for (const unsigned int k : degrees)
      add_space(k, BasisType::lagrange_gauss);
    add_space(1, BasisType::lagrange_gauss_lobatto); // the Q1 space
    mf_data.n_q_points_1d = quads;
    mf_data.geometry_degree = options.geometry_degree;
    mf_data.penalty_safety = options.penalty_safety;
    mf_data.rank_of_cell = options.rank_of_cell;
    mf_data.n_ranks = options.n_ranks;
    // coarser DG levels inherit the finest degree's penalty scale
    // (k_top+1)^2 instead of their own (k+1)^2: the level operators then
    // match the Galerkin-restricted fine operator on jump modes
    const double top = double(degrees.front() + 1);
    for (const unsigned int k : degrees)
      mf_data.penalty_scaling.push_back((top * top) /
                                        double((k + 1) * (k + 1)));
    mf_data.penalty_scaling.push_back(1.); // Q1 space (no face terms)
    mf_fine_.reinit(mesh, geometry, mf_data);

    const auto is_dirichlet = [this](const unsigned int id) {
      return bc_.type_of(id) == BoundaryType::dirichlet;
    };

    // Q1 space on the finest mesh, then on the globally coarsened meshes
    cfe_dofs_fine_.reinit(mesh);
    cfe_fine_ = make_q1_space(cfe_dofs_fine_, is_dirichlet);
    coarse_meshes_.clear();
    coarse_mfs_.clear();
    coarse_dofs_.clear();
    coarse_spaces_.clear();
    if (options.h_coarsening)
    {
      const Mesh *current = &mesh;
      while (true)
      {
        Mesh c = current->coarsened();
        if (c.n_active_cells() == current->n_active_cells())
          break;
        coarse_meshes_.push_back(std::move(c));
        current = &coarse_meshes_.back();
      }
      typename MatrixFree<LevelNumber>::AdditionalData cdata;
      cdata.degrees = {1};
      cdata.basis_types = {BasisType::lagrange_gauss_lobatto};
      cdata.n_q_points_1d = {2};
      cdata.geometry_degree = options.geometry_degree;
      cdata.penalty_safety = options.penalty_safety;
      coarse_mfs_.resize(coarse_meshes_.size());
      coarse_dofs_.resize(coarse_meshes_.size());
      coarse_spaces_.resize(coarse_meshes_.size());
      for (std::size_t i = 0; i < coarse_meshes_.size(); ++i)
      {
        coarse_mfs_[i].reinit(coarse_meshes_[i], geometry, cdata);
        coarse_dofs_[i].reinit(coarse_meshes_[i]);
        coarse_spaces_[i] = make_q1_space(coarse_dofs_[i], is_dirichlet);
      }
    }

    // Q1 levels from the coarsest mesh (level 0, solved by the AMG) up to
    // the fine mesh at level n_coarse; coarse mesh i is level n_coarse-1-i
    const std::size_t n_coarse = coarse_meshes_.size();
    const auto mesh_of = [&](const std::size_t l) -> const Mesh & {
      return l == n_coarse ? mesh : coarse_meshes_[n_coarse - 1 - l];
    };
    const auto space_of = [&](const std::size_t l) -> const CFESpace & {
      return l == n_coarse ? cfe_fine_ : coarse_spaces_[n_coarse - 1 - l];
    };
    q1_levels_.clear();
    q1_levels_.resize(n_coarse + 1);
    for (std::size_t l = 0; l <= n_coarse; ++l)
    {
      Q1Level &level = q1_levels_[l];
      if (l == n_coarse)
        level.op.reinit(mf_fine_, n_dg, quad_of_space[n_dg], cfe_fine_);
      else
        level.op.reinit(coarse_mfs_[n_coarse - 1 - l], 0, 0, space_of(l));
      const std::size_t n = level.op.n_dofs();
      level.x.reinit(n);
      level.b.reinit(n);
      if (l == 0)
        continue;
      level.r.reinit(n);
      level.to_coarser = SparseTransfer<LevelNumber>(build_h_transfer(
        mesh_of(l), space_of(l), mesh_of(l - 1), space_of(l - 1)));
      LVec diag;
      level.op.compute_diagonal(diag);
      level.smoother.reinit(level.op, diag, options_.smoother);
    }
    amg_.setup(q1_levels_.front().op.assemble_matrix(), options_.amg);

    // DG levels from DG(1) up to DG(k) on the shared MatrixFree, where DG
    // level i is space n_dg - 1 - i; DG(1) reaches the Q1 space through the
    // c-transfer
    c_transfer_ =
      SparseTransfer<LevelNumber>(build_c_transfer(mesh, cfe_fine_));
    dg_levels_.clear();
    dg_levels_.resize(n_dg);
    for (unsigned int i = 0; i < n_dg; ++i)
    {
      DGLevel &level = dg_levels_[i];
      const unsigned int s = n_dg - 1 - i;
      level.op.reinit(mf_fine_, s, quad_of_space[s], bc_);
      if (i > 0)
        level.to_coarser.emplace(mf_fine_, s, s + 1);
      const std::size_t n = level.op.n_dofs();
      level.serial.x.reinit(n);
      level.serial.b.reinit(n);
      level.serial.r.reinit(n);
      compute_block_inverse(level);
      level.serial.smoother.reinit(level.op, level.block_inverse(0, n),
                                   options_.smoother);
    }

    level_names_.clear();
    for (unsigned int l = 0; l < n_levels(); ++l)
      level_names_.push_back("level" + std::to_string(l));
    reset_level_timers();
  }

  unsigned int n_levels() const
  {
    return static_cast<unsigned int>(q1_levels_.size() + dg_levels_.size());
  }

  std::size_t level_dofs(const unsigned int l) const
  {
    return l < q1_levels_.size() ? q1_levels_[l].op.n_dofs()
                                 : dg_level(l).op.n_dofs();
  }

  /// Distributed failure detection: the hook is consulted at every
  /// distributed V-cycle boundary and handed down to the distributed level
  /// smoothers. Call before setup_distributed() (the smoothers copy their
  /// configuration at reinit); nullptr detaches.
  void set_recovery(RecoveryHooks *recovery) { recovery_ = recovery; }

  /// Builds the distributed DG-level vectors and smoothers on top of an
  /// existing setup() that was given Options::rank_of_cell/n_ranks. Every
  /// rank constructs the same (replicated) hierarchy; the Chebyshev bounds
  /// and the inverse cell blocks of this rank's cells are adopted from the
  /// serial smoothers, so serial and distributed V-cycles apply the
  /// identical smoother on every level.
  void setup_distributed(vmpi::Communicator &comm,
                         const vmpi::Partitioner &part)
  {
    DGFLOW_PROF_SCOPE("mg_setup_distributed");
    DGFLOW_ASSERT(part.n_global() == mf_fine_.mesh().n_active_cells(),
                  "partitioner must index the fine-mesh cells");
    DGFLOW_ASSERT(part.n_ranks() == mf_fine_.n_ranks(),
                  "partitioner/matrix-free rank count mismatch");
    part_ = &part;
    ChebyshevData data = options_.smoother;
    data.recovery = recovery_;
    for (DGLevel &level : dg_levels_)
    {
      DGSmoothing<DVec> &s = level.distributed;
      const unsigned int block = mf_fine_.dofs_per_cell(level.op.space());
      s.x.reinit(part, comm, block);
      s.b.reinit(part, comm, block);
      s.r.reinit(part, comm, block);
      s.smoother.reinit_with_bounds(
        level.op, level.block_inverse(s.x.first_local_index(), s.x.size()),
        level.serial.smoother.max_eigenvalue(), data);
    }
  }

  /// Preconditioner interface for the double-precision outer CG: one
  /// V-cycle in the level precision. Over a DistributedVector (requires
  /// setup_distributed()) the DG levels traverse only this rank's cells,
  /// with the ghost exchange overlapped inside the operators, and the
  /// Q1/AMG levels run replicated on every rank after a sum-allreduce of
  /// the restricted residual.
  template <typename V>
    requires std::same_as<V, Vector<double>> ||
             std::same_as<V, vmpi::DistributedVector<double>>
  void vmult(V &dst, const V &src) const
  {
    constexpr bool distributed = is_distributed_vector_v<V>;
    using LV = std::conditional_t<distributed, DVec, LVec>;
    DGFLOW_PROF_SCOPE("mg_vcycle");
    DGFLOW_PROF_COUNT("mg_vcycles", 1);
    if constexpr (distributed)
    {
      DGFLOW_ASSERT(part_ != nullptr, "setup_distributed() has not run");
      // V-cycle boundary: agree on liveness before the cycle's first ghost
      // exchange so a dead peer unwinds every rank here, not via timeout
      if (recovery_)
        recovery_->at_iteration_boundary(true);
    }
    const unsigned int top = n_levels() - 1;
    const DGSmoothing<LV> &s = dg_levels_.back().template on<LV>();
    s.b.copy_and_convert(src);
    vcycle_dg(top, s.x, s.b);
    if (options_.abft_guard && !abft_result_ok(s.x))
    {
      ++abft_vcycle_repairs_;
      DGFLOW_PROF_COUNT("abft_sdc_detected", 1);
      DGFLOW_PROF_COUNT("abft_vcycle_repairs", 1);
      if constexpr (distributed)
      {
        // local-only repair: re-running the distributed cycle would issue
        // collectives the healthy ranks are not expecting, so this rank
        // falls back to the identity step on its owned range; the outer CG
        // replay detects the cross-rank inconsistency collectively
        s.x.equ(LevelNumber(1), s.b);
      }
      else
      {
        // the cycle is deterministic: one re-run heals a transient flip in
        // cycle scratch; a persistent corruption falls back to the identity
        // step (still SPD for the outer CG, whose replay guard takes over)
        vcycle_dg(top, s.x, s.b);
        if (!abft_result_ok(s.x))
          s.x.equ(LevelNumber(1), s.b);
      }
    }
    dst.copy_and_convert(s.x);
  }

  const MatrixFree<LevelNumber> &fine_matrix_free() const { return mf_fine_; }

  /// Accumulated smoothing/transfer seconds per level and in the AMG coarse
  /// solve since the last reset (for the paper's Fig. 10 latency breakdown).
  const std::vector<double> &level_seconds() const { return level_seconds_; }
  double amg_seconds() const { return amg_seconds_; }
  void reset_level_timers() const
  {
    level_seconds_.assign(n_levels(), 0.);
    amg_seconds_ = 0.;
  }

  /// The smoothed-aggregation coarse solver (ABFT checksum registration and
  /// fault injection reach its level matrices through this).
  AMG &amg() { return amg_; }
  const AMG &amg() const { return amg_; }

  /// Rebuilds the AMG hierarchy from the coarse host operator: the ABFT
  /// scrub path for a corrupted AMG level matrix. The setup is
  /// deterministic, so the rebuilt values are bit-identical to the
  /// originals and the sidecar checksums match again.
  void rebuild_amg()
  {
    amg_.setup(q1_levels_.front().op.assemble_matrix(), options_.amg);
  }

  /// Appends the inverse cell blocks of every DG level smoother as
  /// (address, bytes) regions (ABFT checksum registration and fault
  /// injection reach them through this).
  void collect_smoother_block_regions(
    std::vector<std::pair<const void *, std::size_t>> &regions) const
  {
    for (const DGLevel &level : dg_levels_)
      regions.emplace_back(level.inverse_blocks.data(),
                           level.inverse_blocks.size() * sizeof(LevelNumber));
  }

  /// Re-probes and re-inverts every DG level's cell blocks in place: the
  /// ABFT scrub path for a corrupted inverse block. Probe and inversion are
  /// deterministic, so the rebuilt bytes equal the originals and the
  /// smoothers, which view the blocks, need no new setup.
  void rebuild_smoother_blocks()
  {
    for (DGLevel &level : dg_levels_)
      compute_block_inverse(level);
  }

  /// V-cycle results discarded/re-run by the ABFT guard (abft_guard on).
  unsigned long long abft_vcycle_repairs() const
  {
    return abft_vcycle_repairs_;
  }

private:
  /// Local non-finite scan of a V-cycle result (no collectives).
  template <typename V>
  static bool abft_result_ok(const V &x)
  {
    const auto *xd = x.data();
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i)
      if (!std::isfinite(double(xd[i])))
        return false;
    return true;
  }

  /// Smoother and cycle vectors of a DG level over vector type V.
  template <typename V>
  struct DGSmoothing
  {
    ChebyshevSmoother<LaplaceOperator<LevelNumber>, V,
                      CellBlockInverse<LevelNumber>>
      smoother;
    mutable V x, b, r;
  };

  /// DG level on the fine mesh: its operator, the p-transfer to the next
  /// lower degree (none on DG(1), whose coarse space is the Q1 space of
  /// c_transfer_), the inverse cell blocks of its operator, and the
  /// smoother and vectors of the serial and of the distributed cycle.
  struct DGLevel
  {
    LaplaceOperator<LevelNumber> op;
    std::optional<DGPTransfer<LevelNumber>> to_coarser;
    /// n x n per cell (n = DoFs per cell), viewed by both smoothers
    LVec inverse_blocks;
    std::size_t block_fallbacks = 0;
    DGSmoothing<LVec> serial;
    DGSmoothing<DVec> distributed;

    /// The smoother preconditioner of the cells whose DoFs are
    /// [first_dof, first_dof + n_dofs) of the level vector.
    CellBlockInverse<LevelNumber> block_inverse(const std::size_t first_dof,
                                                const std::size_t n_dofs) const
    {
      const unsigned int n = op.matrix_free().dofs_per_cell(op.space());
      return CellBlockInverse<LevelNumber>(
        inverse_blocks.data() + first_dof * n, n, n_dofs / n,
        block_fallbacks);
    }

    template <typename V>
    const DGSmoothing<V> &on() const
    {
      if constexpr (is_distributed_vector_v<V>)
        return distributed;
      else
        return serial;
    }
  };

  /// Q1 level on the fine mesh or a coarsening of it: its operator, its
  /// smoother and the h-transfer to the next coarser mesh. Level 0 is
  /// solved by the AMG, assembled from its operator, and has neither.
  struct Q1Level
  {
    CFELaplaceOperator<LevelNumber> op;
    ChebyshevSmoother<CFELaplaceOperator<LevelNumber>, LVec> smoother;
    SparseTransfer<LevelNumber> to_coarser;
    mutable LVec x, b, r;
  };

  const DGLevel &dg_level(const unsigned int l) const
  {
    return dg_levels_[l - q1_levels_.size()];
  }

  /// Probes the level operator's cell blocks and inverts them in place.
  static void compute_block_inverse(DGLevel &level)
  {
    level.op.compute_cell_blocks(level.inverse_blocks);
    level.block_fallbacks = dgflow::invert_cell_blocks(
      level.inverse_blocks,
      level.op.matrix_free().dofs_per_cell(level.op.space()));
  }

  /// V-cycle from DG level l down. Each rank works on its own cells: the
  /// p-transfers are cell-local, and the c-transfer restricts the rows of
  /// this rank's cells into the replicated Q1 right-hand side, which one
  /// allreduce sums before the Q1/AMG levels. The serial vector is the
  /// one-rank case: all cells, all rows, no allreduce.
  template <typename V>
  void vcycle_dg(const unsigned int l, V &x, const V &b) const
  {
    // scope per level: the recursion nests level l-1 under level l, so the
    // profile shows the full grid traversal as one branch of the tree
    DGFLOW_PROF_SCOPE(level_names_[l]);
    const DGLevel &level = dg_level(l);
    const DGSmoothing<V> &s = level.template on<V>();
    Timer t;
    {
      DGFLOW_PROF_SCOPE("smoother");
      s.smoother.smooth(x, b, true);
    }
    level.op.vmult(s.r, x);
    s.r.sadd(LevelNumber(-1), LevelNumber(1), b);
    if (level.to_coarser)
    {
      const DGSmoothing<V> &coarse = dg_level(l - 1).template on<V>();
      const index_t n_cells = static_cast<index_t>(
        s.r.size() / mf_fine_.dofs_per_cell(level.op.space()));
      {
        DGFLOW_PROF_SCOPE("transfer");
        level.to_coarser->restrict_cells(coarse.b.data(), s.r.data(),
                                         n_cells);
      }
      level_seconds_[l] += t.seconds();
      vcycle_dg(l - 1, coarse.x, coarse.b);
      t.restart();
      {
        DGFLOW_PROF_SCOPE("transfer");
        level.to_coarser->prolongate_cells(s.r.data(), coarse.x.data(),
                                           n_cells);
      }
    }
    else
    {
      const Q1Level &coarse = q1_levels_.back();
      const std::size_t row_begin = s.r.first_local_index();
      const std::size_t row_end = row_begin + s.r.size();
      {
        DGFLOW_PROF_SCOPE("transfer");
        coarse.b = LevelNumber(0);
        c_transfer_.restrict_rows(coarse.b, s.r.data(), row_begin, row_end);
        if constexpr (is_distributed_vector_v<V>)
        {
          allreduce_buf_.assign(coarse.b.data(),
                                coarse.b.data() + coarse.b.size());
          s.r.communicator().allreduce(allreduce_buf_,
                                       vmpi::Communicator::Op::sum);
          for (std::size_t i = 0; i < coarse.b.size(); ++i)
            coarse.b[i] = LevelNumber(allreduce_buf_[i]);
        }
      }
      level_seconds_[l] += t.seconds();
      vcycle_q1(l - 1, coarse.x, coarse.b);
      t.restart();
      {
        DGFLOW_PROF_SCOPE("transfer");
        c_transfer_.prolongate_rows(s.r.data(), coarse.x, row_begin,
                                    row_end);
      }
    }
    x.add(LevelNumber(1), s.r);
    {
      DGFLOW_PROF_SCOPE("smoother");
      s.smoother.smooth(x, b, false);
    }
    level_seconds_[l] += t.seconds();
  }

  /// V-cycle from Q1 level l down to the AMG coarse solve at level 0; both
  /// cycles share it, replicated on every rank of a distributed one.
  void vcycle_q1(const unsigned int l, LVec &x, const LVec &b) const
  {
    DGFLOW_PROF_SCOPE(level_names_[l]);
    if (l == 0)
    {
      Timer t;
      DGFLOW_PROF_SCOPE("amg_coarse");
      constexpr unsigned int amg_cycles = 2; // V-cycles per coarse solve
      amg_b_.copy_and_convert(b);
      amg_x_.reinit(amg_b_.size());
      for (unsigned int c = 0; c < amg_cycles; ++c)
        amg_.vcycle(amg_x_, amg_b_);
      x.copy_and_convert(amg_x_);
      amg_seconds_ += t.seconds();
      return;
    }

    const Q1Level &level = q1_levels_[l];
    const Q1Level &coarse = q1_levels_[l - 1];
    const std::size_t n = level.r.size();
    Timer t;
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, true);
    }
    level.op.vmult(level.r, x);
    level.r.sadd(LevelNumber(-1), LevelNumber(1), b);
    {
      DGFLOW_PROF_SCOPE("transfer");
      coarse.b = LevelNumber(0);
      level.to_coarser.restrict_rows(coarse.b, level.r.data(), 0, n);
    }
    level_seconds_[l] += t.seconds();
    vcycle_q1(l - 1, coarse.x, coarse.b);
    t.restart();
    {
      DGFLOW_PROF_SCOPE("transfer");
      level.to_coarser.prolongate_rows(level.r.data(), coarse.x, 0, n);
    }
    x.add(LevelNumber(1), level.r);
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, false);
    }
    level_seconds_[l] += t.seconds();
  }

  Options options_;
  BoundaryMap bc_;

  MatrixFree<LevelNumber> mf_fine_;
  CFEDofHandler cfe_dofs_fine_;
  CFESpace cfe_fine_;
  std::vector<Mesh> coarse_meshes_;
  std::vector<MatrixFree<LevelNumber>> coarse_mfs_;
  std::vector<CFEDofHandler> coarse_dofs_;
  std::vector<CFESpace> coarse_spaces_;

  // levels 0 .. q1_levels_.size() - 1, then the DG levels above them
  std::vector<Q1Level> q1_levels_;
  std::vector<DGLevel> dg_levels_;
  SparseTransfer<LevelNumber> c_transfer_; ///< DG(1) -> fine-mesh Q1
  AMG amg_;
  std::vector<std::string> level_names_;

  mutable Vector<double> amg_x_, amg_b_;
  mutable std::vector<double> allreduce_buf_;
  mutable std::vector<double> level_seconds_;
  mutable double amg_seconds_ = 0.;
  mutable unsigned long long abft_vcycle_repairs_ = 0;

  // distributed mode (setup_distributed)
  const vmpi::Partitioner *part_ = nullptr;
  RecoveryHooks *recovery_ = nullptr;
};

} // namespace dgflow
