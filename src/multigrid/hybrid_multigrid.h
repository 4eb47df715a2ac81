#pragma once

// Hybrid geometric-polynomial-algebraic multigrid preconditioner for the DG
// Laplacian (paper Section 3.4, Algorithm 1, Figure 5):
//
//   DG(k) -p-> DG(k/2) -p-> ... -p-> DG(1) -c-> CFE Q1 -h-> Q1 on coarsened
//   meshes (global coarsening) ... -> smoothed-aggregation AMG coarse solve
//
// All level smoothing (Chebyshev degree 3 with point-Jacobi) and transfers
// run in single precision ("the V-cycle is run in single precision to
// improve the throughput of multigrid preconditioning"); the algebraic
// coarse solve runs in double, matching the paper's BoomerAMG setup with two
// V-cycles of one symmetric Gauss-Seidel sweep each.

#include <memory>

#include "common/timer.h"
#include "instrumentation/profiler.h"

#include "amg/amg.h"
#include "multigrid/transfer.h"
#include "operators/cfe_laplace_operator.h"
#include "operators/laplace_operator.h"
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

  /// Range-hook signature of the type-erased hooked application.
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Type-erased level operator handed to the Chebyshev smoother, over the
  /// serial (LVec) or the distributed (DVec) level vectors. When the
  /// underlying operator supports the contract-v2 hooked cell loop,
  /// apply_hooked forwards the solver hooks into it (the DG levels); when
  /// empty, the hooked vmult degrades to a whole-range pre before / post
  /// after the plain application, which keeps the fused smoother correct
  /// (merely unfused) on CFE/AMG-backed levels.
  template <typename V>
  struct AnyOperator
  {
    std::function<void(V &, const V &)> apply;
    std::function<void(V &, const V &, const RangeFn &, const RangeFn &)>
      apply_hooked;

    void vmult(V &dst, const V &src) const { apply(dst, src); }

    template <typename PreFn, typename PostFn>
    void vmult(V &dst, const V &src, PreFn &&pre, PostFn &&post) const
    {
      if (apply_hooked)
      {
        apply_hooked(dst, src, RangeFn(std::forward<PreFn>(pre)),
                     RangeFn(std::forward<PostFn>(post)));
        return;
      }
      if constexpr (!internal::is_no_hook_v<PreFn>)
        pre(0, src.size());
      apply(dst, src);
      if constexpr (!internal::is_no_hook_v<PostFn>)
        post(0, dst.size());
    }
  };

  struct Options
  {
    bool h_coarsening = true; ///< build globally coarsened Q1 levels
    /// run the AMG coarse solve in single precision (float value mirrors of
    /// every AMG level, coarsest dense LU still double): with float level
    /// vectors this removes the double round-trip at the AMG boundary. Off
    /// by default — the paper's configuration keeps the coarse solve double.
    bool sp_amg = false;
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

  /// Sets up the full hierarchy for the DG(degree) Laplacian on @p mesh.
  void setup(const Mesh &mesh, const Geometry &geometry,
             const unsigned int degree, const BoundaryMap &bc,
             const Options &options = Options())
  {
    DGFLOW_PROF_SCOPE("mg_setup");
    options_ = options;
    if (options_.abft_guard)
      options_.smoother.abft_check = true;
    bc_ = bc;

    // polynomial chain k, k/2, ..., 1 (bisection)
    dg_degrees_ = {degree};
    while (dg_degrees_.back() > 1)
      dg_degrees_.push_back(std::max(1u, dg_degrees_.back() / 2));

    // one MatrixFree on the finest mesh carrying all DG spaces + Q1(GL)
    typename MatrixFree<LevelNumber>::AdditionalData mf_data;
    std::vector<unsigned int> quads;
    std::vector<unsigned int> quad_of_space;
    for (const unsigned int k : dg_degrees_)
    {
      mf_data.degrees.push_back(k);
      mf_data.basis_types.push_back(BasisType::lagrange_gauss);
      unsigned int qi = 0;
      for (; qi < quads.size(); ++qi)
        if (quads[qi] == k + 1)
          break;
      if (qi == quads.size())
        quads.push_back(k + 1);
      quad_of_space.push_back(qi);
    }
    // the Q1 auxiliary space
    mf_data.degrees.push_back(1);
    mf_data.basis_types.push_back(BasisType::lagrange_gauss_lobatto);
    {
      unsigned int qi = 0;
      for (; qi < quads.size(); ++qi)
        if (quads[qi] == 2)
          break;
      if (qi == quads.size())
        quads.push_back(2);
      quad_of_space.push_back(qi);
    }
    mf_data.n_q_points_1d = quads;
    mf_data.geometry_degree = options.geometry_degree;
    mf_data.penalty_safety = options.penalty_safety;
    mf_data.rank_of_cell = options.rank_of_cell;
    mf_data.n_ranks = options.n_ranks;
    // coarser DG levels inherit the finest degree's penalty scale
    // (k_top+1)^2 instead of their own (k+1)^2: the level operators then
    // match the Galerkin-restricted fine operator on jump modes
    const double top = double(dg_degrees_.front() + 1);
    for (const unsigned int k : dg_degrees_)
      mf_data.penalty_scaling.push_back((top * top) /
                                        double((k + 1) * (k + 1)));
    mf_data.penalty_scaling.push_back(1.); // Q1 space (no face terms)
    mf_fine_.reinit(mesh, geometry, mf_data);

    const auto is_dirichlet = [this](const unsigned int id) {
      return bc_.type_of(id) == BoundaryType::dirichlet;
    };

    // DG level operators
    dg_ops_.clear();
    dg_ops_.resize(dg_degrees_.size());
    for (unsigned int s = 0; s < dg_degrees_.size(); ++s)
      dg_ops_[s].reinit(mf_fine_, s, quad_of_space[s], bc_);

    // Q1 space on the finest mesh
    cfe_dofs_fine_.reinit(mesh);
    cfe_fine_ = make_q1_space(cfe_dofs_fine_, is_dirichlet);
    cfe_op_fine_.reinit(mf_fine_, dg_degrees_.size(),
                        quad_of_space[dg_degrees_.size()], cfe_fine_);

    // globally coarsened Q1 levels
    coarse_meshes_.clear();
    coarse_mfs_.clear();
    coarse_dofs_.clear();
    coarse_spaces_.clear();
    coarse_ops_.clear();
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
      coarse_ops_.resize(coarse_meshes_.size());
      for (std::size_t i = 0; i < coarse_meshes_.size(); ++i)
      {
        coarse_mfs_[i].reinit(coarse_meshes_[i], geometry, cdata);
        coarse_dofs_[i].reinit(coarse_meshes_[i]);
        coarse_spaces_[i] = make_q1_space(coarse_dofs_[i], is_dirichlet);
        coarse_ops_[i].reinit(coarse_mfs_[i], 0, 0, coarse_spaces_[i]);
      }
    }

    build_levels();
  }

  unsigned int n_levels() const { return levels_.size(); }

  std::size_t level_dofs(const unsigned int l) const
  {
    return levels_[l].n_dofs;
  }

  /// Preconditioner interface for the double-precision outer CG: one
  /// V-cycle in the level precision.
  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    DGFLOW_PROF_SCOPE("mg_vcycle");
    DGFLOW_PROF_COUNT("mg_vcycles", 1);
    src_f_.copy_and_convert(src);
    Level &top = levels_.back();
    top.x.reinit(src.size(), true);
    vcycle(levels_.size() - 1, top.x, src_f_);
    if (options_.abft_guard && !abft_result_ok(top.x))
    {
      ++abft_vcycle_repairs_;
      DGFLOW_PROF_COUNT("abft_sdc_detected", 1);
      DGFLOW_PROF_COUNT("abft_vcycle_repairs", 1);
      // the cycle is deterministic: one re-run heals a transient flip in
      // cycle scratch; a persistent corruption falls back to the identity
      // step (still SPD for the outer CG, whose replay guard takes over)
      top.x.reinit(src.size(), true);
      vcycle(levels_.size() - 1, top.x, src_f_);
      if (!abft_result_ok(top.x))
        top.x.equ(LevelNumber(1), src_f_);
    }
    dst.copy_and_convert(top.x);
  }

  /// Runs one V-cycle in the level precision (for nesting / diagnostics).
  void vcycle_level_precision(LVec &x, const LVec &b) const
  {
    DGFLOW_PROF_SCOPE("mg_vcycle");
    DGFLOW_PROF_COUNT("mg_vcycles", 1);
    vcycle(levels_.size() - 1, x, b);
  }

  /// Builds the distributed DG-level scratch, operators and smoothers on top
  /// of an existing setup() that was given Options::rank_of_cell/n_ranks.
  /// Every rank constructs the same (replicated) hierarchy; the Chebyshev
  /// bounds are adopted from the serial smoothers so serial and distributed
  /// V-cycles apply the identical polynomial on every level.
  /// Distributed failure detection: the hook is consulted at every
  /// distributed V-cycle boundary and handed down to the distributed level
  /// smoothers. Call before setup_distributed() (the smoothers copy their
  /// configuration at reinit); nullptr detaches.
  void set_recovery(RecoveryHooks *recovery) { recovery_ = recovery; }

  void setup_distributed(vmpi::Communicator &comm,
                         const vmpi::Partitioner &part)
  {
    DGFLOW_PROF_SCOPE("mg_setup_distributed");
    DGFLOW_ASSERT(part.n_global() == mf_fine_.mesh().n_active_cells(),
                  "partitioner must index the fine-mesh cells");
    DGFLOW_ASSERT(part.n_ranks() == mf_fine_.n_ranks(),
                  "partitioner/matrix-free rank count mismatch");
    comm_ = &comm;
    part_ = &part;
    q1_level_ = static_cast<unsigned int>(coarse_ops_.size());
    std::vector<DistLevel> fresh(levels_.size());
    dist_levels_.swap(fresh);
    ChebyshevData dist_smoother = options_.smoother;
    dist_smoother.recovery = recovery_;
    for (unsigned int lev = q1_level_ + 1; lev < levels_.size(); ++lev)
    {
      const unsigned int s = static_cast<unsigned int>(
        dg_degrees_.size() - 1 - (lev - q1_level_ - 1));
      const LaplaceOperator<LevelNumber> *op = &dg_ops_[s];
      DistLevel &dl = dist_levels_[lev];
      dl.op.apply = [op](DVec &d, const DVec &v) { op->vmult(d, v); };
      dl.op.apply_hooked = [op](DVec &d, const DVec &v, const RangeFn &pre,
                                const RangeFn &post) {
        op->vmult(d, v, pre, post);
      };
      const unsigned int block = mf_fine_.dofs_per_cell(s);
      dl.x.reinit(part, comm, block);
      dl.b.reinit(part, comm, block);
      dl.r.reinit(part, comm, block);
      DVec ddiag;
      ddiag.reinit(part, comm, block);
      ddiag.copy_owned_from(compute_level_diagonal(lev));
      dl.smoother.reinit_with_bounds(dl.op, ddiag,
                                     levels_[lev].smoother.max_eigenvalue(),
                                     dist_smoother);
    }
  }

  /// Distributed preconditioner interface: one V-cycle where the DG levels
  /// traverse only this rank's cells (with overlapped ghost exchange inside
  /// the operators) and the Q1/AMG sub-hierarchy is solved replicated on
  /// every rank after a sum-allreduce of the restricted residual. Requires
  /// setup_distributed().
  void vmult(vmpi::DistributedVector<double> &dst,
             const vmpi::DistributedVector<double> &src) const
  {
    DGFLOW_PROF_SCOPE("mg_vcycle");
    DGFLOW_PROF_COUNT("mg_vcycles", 1);
    DGFLOW_ASSERT(part_ != nullptr, "setup_distributed() has not run");
    // V-cycle boundary: agree on liveness before the cycle's first ghost
    // exchange so a dead peer unwinds every rank here, not via timeout
    if (recovery_)
      recovery_->at_iteration_boundary(true);
    dist_src_f_.copy_and_convert(src);
    DistLevel &top = dist_levels_.back();
    top.x.reinit_like(dist_src_f_, true);
    vcycle_dist(static_cast<unsigned int>(levels_.size() - 1), top.x,
                dist_src_f_);
    if (options_.abft_guard && !abft_result_ok(top.x))
    {
      ++abft_vcycle_repairs_;
      DGFLOW_PROF_COUNT("abft_sdc_detected", 1);
      DGFLOW_PROF_COUNT("abft_vcycle_repairs", 1);
      // local-only repair: re-running the distributed cycle would issue
      // collectives the healthy ranks are not expecting, so this rank falls
      // back to the identity step on its owned range; the outer CG replay
      // detects the cross-rank inconsistency collectively and rolls back
      top.x.equ(LevelNumber(1), dist_src_f_);
      top.x.invalidate_ghosts();
    }
    dst.copy_and_convert(top.x);
  }

  const MatrixFree<LevelNumber> &fine_matrix_free() const { return mf_fine_; }

  /// Accumulated smoothing/transfer seconds per level and in the AMG coarse
  /// solve since the last reset (for the paper's Fig. 10 latency breakdown).
  const std::vector<double> &level_seconds() const { return level_seconds_; }
  double amg_seconds() const { return amg_seconds_; }
  void reset_level_timers() const
  {
    level_seconds_.assign(levels_.size(), 0.);
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
    const CFELaplaceOperator<LevelNumber> &amg_host =
      coarse_ops_.empty() ? cfe_op_fine_ : coarse_ops_.back();
    amg_.setup(amg_host.assemble_matrix(), options_.amg);
    if (options_.sp_amg)
      amg_.enable_single_precision();
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

  struct Level
  {
    AnyOperator<LVec> op;
    ChebyshevSmoother<AnyOperator<LVec>, LVec> smoother;
    std::unique_ptr<TransferBase<LevelNumber>> to_coarser; ///< null at l=0
    std::size_t n_dofs = 0;
    bool is_amg = false;
    mutable LVec x, b, r;
  };

  /// Distributed shadow of a DG Level (the Q1/AMG levels stay serial).
  struct DistLevel
  {
    AnyOperator<DVec> op;
    ChebyshevSmoother<AnyOperator<DVec>, DVec> smoother;
    mutable DVec x, b, r;
  };

  void build_levels()
  {
    levels_.clear();
    level_names_.clear();

    // bottom-up: AMG coarse level lives inside the coarsest Q1 level
    const bool have_h = !coarse_ops_.empty();
    const CFELaplaceOperator<LevelNumber> &amg_host =
      have_h ? coarse_ops_.back() : cfe_op_fine_;
    amg_.setup(amg_host.assemble_matrix(), options_.amg);
    if (options_.sp_amg)
      amg_.enable_single_precision();

    // levels from coarsest to finest: coarse Q1 meshes (reverse order)
    if (have_h)
      for (std::size_t i = coarse_ops_.size(); i-- > 0;)
      {
        Level level;
        const auto *op = &coarse_ops_[i];
        level.op.apply = [op](LVec &d, const LVec &s) { op->vmult(d, s); };
        level.n_dofs = op->n_dofs();
        level.is_amg = (i == coarse_ops_.size() - 1);
        levels_.push_back(std::move(level));
        // transfer from this level to the previous (coarser) one
      }

    // fine-mesh Q1 level
    {
      Level level;
      const auto *op = &cfe_op_fine_;
      level.op.apply = [op](LVec &d, const LVec &s) { op->vmult(d, s); };
      level.n_dofs = op->n_dofs();
      level.is_amg = !have_h;
      levels_.push_back(std::move(level));
    }

    // DG levels from low to high degree; these operators implement the
    // contract-v2 hooked cell loop, so the fused Chebyshev smoother's
    // per-batch updates ride the matrix-free traversal
    for (std::size_t s = dg_degrees_.size(); s-- > 0;)
    {
      Level level;
      const auto *op = &dg_ops_[s];
      level.op.apply = [op](LVec &d, const LVec &s2) { op->vmult(d, s2); };
      level.op.apply_hooked = [op](LVec &d, const LVec &s2,
                                   const RangeFn &pre, const RangeFn &post) {
        op->vmult(d, s2, pre, post);
      };
      level.n_dofs = op->n_dofs();
      levels_.push_back(std::move(level));
    }

    // transfers: levels_[l].to_coarser maps between levels_[l] and
    // levels_[l-1]
    unsigned int l = 1;
    if (have_h)
      for (std::size_t i = coarse_ops_.size() - 1; i-- > 0; ++l)
      {
        // fine = coarse_meshes_[i], coarse = coarse_meshes_[i+1]
        levels_[l].to_coarser = std::make_unique<SparseTransfer<LevelNumber>>(
          build_h_transfer(coarse_meshes_[i], coarse_spaces_[i],
                           coarse_meshes_[i + 1], coarse_spaces_[i + 1]));
      }
    if (have_h)
    {
      // fine-mesh Q1 -> first coarse mesh
      levels_[l].to_coarser = std::make_unique<SparseTransfer<LevelNumber>>(
        build_h_transfer(mf_fine_.mesh(), cfe_fine_, coarse_meshes_[0],
                         coarse_spaces_[0]));
      ++l;
    }
    // DG(1) -> Q1
    levels_[l].to_coarser = std::make_unique<SparseTransfer<LevelNumber>>(
      build_c_transfer(mf_fine_.mesh(), cfe_fine_));
    ++l;
    // p-transfers DG(next) -> DG(previous degree)
    for (std::size_t s = dg_degrees_.size() - 1; s-- > 0; ++l)
      levels_[l].to_coarser = std::make_unique<DGPTransfer<LevelNumber>>(
        mf_fine_, static_cast<unsigned int>(s),
        static_cast<unsigned int>(s + 1));
    DGFLOW_ASSERT(l == levels_.size(), "level/transfer bookkeeping mismatch");

    for (std::size_t lev = 0; lev < levels_.size(); ++lev)
      level_names_.push_back("level" + std::to_string(lev));

    // smoothers (skip the AMG-solved coarsest level)
    for (unsigned int lev = 0; lev < levels_.size(); ++lev)
    {
      Level &level = levels_[lev];
      level.x.reinit(level.n_dofs);
      level.b.reinit(level.n_dofs);
      level.r.reinit(level.n_dofs);
      if (lev == 0 && level.is_amg)
        continue;
      LVec diag = compute_level_diagonal(lev);
      level.smoother.reinit(level.op, diag, options_.smoother);
    }
  }

  LVec compute_level_diagonal(const unsigned int lev) const
  {
    // reverse the level layout bookkeeping
    const unsigned int n_coarse = coarse_ops_.size();
    LVec diag;
    if (lev < n_coarse)
      coarse_ops_[n_coarse - 1 - lev].compute_diagonal(diag);
    else if (lev == n_coarse)
      cfe_op_fine_.compute_diagonal(diag);
    else
      dg_ops_[dg_degrees_.size() - 1 - (lev - n_coarse - 1)].compute_diagonal(
        diag);
    return diag;
  }

  void vcycle(const unsigned int l, LVec &x, const LVec &b) const
  {
    if (level_seconds_.size() != levels_.size())
      level_seconds_.assign(levels_.size(), 0.);
    // scope per level: the recursion nests level l-1 under level l, so the
    // profile shows the full grid traversal as one branch of the tree
    DGFLOW_PROF_SCOPE(level_names_[l]);
    const Level &level = levels_[l];
    if (l == 0)
    {
      Timer t;
      if (level.is_amg)
      {
        DGFLOW_PROF_SCOPE("amg_coarse");
        constexpr unsigned int amg_cycles = 2; // V-cycles per coarse solve
        if (options_.sp_amg)
        {
          // float coarse solve: with LevelNumber = float the conversions
          // below are plain copies (no precision round-trip)
          amg_bf_.copy_and_convert(b);
          amg_xf_.reinit(amg_bf_.size());
          for (unsigned int c = 0; c < amg_cycles; ++c)
            amg_.vcycle(amg_xf_, amg_bf_);
          x.copy_and_convert(amg_xf_);
        }
        else
        {
          amg_b_.copy_and_convert(b);
          amg_x_.reinit(amg_b_.size());
          for (unsigned int c = 0; c < amg_cycles; ++c)
            amg_.vcycle(amg_x_, amg_b_);
          x.copy_and_convert(amg_x_);
        }
        amg_seconds_ += t.seconds();
      }
      else
      {
        DGFLOW_PROF_SCOPE("smoother");
        level.smoother.smooth(x, b, true);
        level_seconds_[l] += t.seconds();
      }
      return;
    }

    Timer t1;
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, true);
    }
    level.op.vmult(level.r, x);
    level.r.sadd(LevelNumber(-1), LevelNumber(1), b);
    const Level &coarse = levels_[l - 1];
    {
      DGFLOW_PROF_SCOPE("transfer");
      level.to_coarser->restrict_down(coarse.b, level.r);
    }
    coarse.x.reinit(coarse.b.size(), true);
    level_seconds_[l] += t1.seconds();

    vcycle(l - 1, coarse.x, coarse.b);

    Timer t2;
    {
      DGFLOW_PROF_SCOPE("transfer");
      level.to_coarser->prolongate(level.r, coarse.x);
    }
    x.add(LevelNumber(1), level.r);
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, false);
    }
    level_seconds_[l] += t2.seconds();
  }

  /// Distributed V-cycle over the DG levels. Pre/post-smoothing and the
  /// residual use only this rank's owned cell blocks (p-transfers are
  /// cell-local); at the DG(1) level the residual is restricted onto the
  /// replicated Q1 space through this rank's contiguous row range followed
  /// by a sum-allreduce, after which the serial vcycle() handles the whole
  /// Q1/AMG sub-hierarchy identically on every rank.
  void vcycle_dist(const unsigned int l, DVec &x, const DVec &b) const
  {
    if (level_seconds_.size() != levels_.size())
      level_seconds_.assign(levels_.size(), 0.);
    DGFLOW_PROF_SCOPE(level_names_[l]);
    const DistLevel &level = dist_levels_[l];

    Timer t1;
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, true);
    }
    level.op.vmult(level.r, x);
    level.r.sadd(LevelNumber(-1), LevelNumber(1), b);
    level_seconds_[l] += t1.seconds();

    if (l == q1_level_ + 1)
    {
      const auto *c = static_cast<const SparseTransfer<LevelNumber> *>(
        levels_[l].to_coarser.get());
      const std::size_t row_begin = level.r.first_local_index();
      const std::size_t row_end = row_begin + level.r.size();
      const Level &coarse = levels_[l - 1];
      Timer t2;
      {
        DGFLOW_PROF_SCOPE("transfer");
        coarse.b = LevelNumber(0);
        c->restrict_down_rows(coarse.b, level.r.data(), row_begin, row_end);
        c_allreduce_buf_.resize(coarse.b.size());
        for (std::size_t i = 0; i < coarse.b.size(); ++i)
          c_allreduce_buf_[i] = double(coarse.b.data()[i]);
        comm_->allreduce(c_allreduce_buf_,
                         vmpi::Communicator::Op::sum);
        for (std::size_t i = 0; i < coarse.b.size(); ++i)
          coarse.b.data()[i] = LevelNumber(c_allreduce_buf_[i]);
      }
      coarse.x.reinit(coarse.b.size(), true);
      level_seconds_[l] += t2.seconds();

      vcycle(l - 1, coarse.x, coarse.b);

      Timer t3;
      {
        DGFLOW_PROF_SCOPE("transfer");
        c->prolongate_rows(level.r.data(), coarse.x, row_begin, row_end);
      }
      level_seconds_[l] += t3.seconds();
    }
    else
    {
      const auto *p = static_cast<const DGPTransfer<LevelNumber> *>(
        levels_[l].to_coarser.get());
      const DistLevel &coarse = dist_levels_[l - 1];
      const index_t n_owned_cells = static_cast<index_t>(part_->n_owned());
      Timer t2;
      {
        DGFLOW_PROF_SCOPE("transfer");
        p->restrict_cells(coarse.b.data(), level.r.data(), n_owned_cells);
      }
      coarse.x.reinit_like(coarse.b, true);
      level_seconds_[l] += t2.seconds();

      vcycle_dist(l - 1, coarse.x, coarse.b);

      Timer t3;
      {
        DGFLOW_PROF_SCOPE("transfer");
        p->prolongate_cells(level.r.data(), coarse.x.data(), n_owned_cells);
      }
      level_seconds_[l] += t3.seconds();
    }

    Timer t4;
    x.add(LevelNumber(1), level.r);
    {
      DGFLOW_PROF_SCOPE("smoother");
      level.smoother.smooth(x, b, false);
    }
    level_seconds_[l] += t4.seconds();
  }

  Options options_;
  BoundaryMap bc_;

  std::vector<unsigned int> dg_degrees_;
  MatrixFree<LevelNumber> mf_fine_;
  std::vector<LaplaceOperator<LevelNumber>> dg_ops_;

  CFEDofHandler cfe_dofs_fine_;
  CFESpace cfe_fine_;
  CFELaplaceOperator<LevelNumber> cfe_op_fine_;

  std::vector<Mesh> coarse_meshes_;
  std::vector<MatrixFree<LevelNumber>> coarse_mfs_;
  std::vector<CFEDofHandler> coarse_dofs_;
  std::vector<CFESpace> coarse_spaces_;
  std::vector<CFELaplaceOperator<LevelNumber>> coarse_ops_;

  AMG amg_;
  mutable unsigned long long abft_vcycle_repairs_ = 0;

  mutable std::vector<Level> levels_;
  std::vector<std::string> level_names_;
  mutable LVec src_f_;
  mutable Vector<double> amg_x_, amg_b_;
  mutable Vector<float> amg_xf_, amg_bf_;
  mutable std::vector<double> level_seconds_;
  mutable double amg_seconds_ = 0.;

  // distributed mode (setup_distributed)
  vmpi::Communicator *comm_ = nullptr;
  const vmpi::Partitioner *part_ = nullptr;
  RecoveryHooks *recovery_ = nullptr;
  unsigned int q1_level_ = 0;
  mutable std::vector<DistLevel> dist_levels_;
  mutable DVec dist_src_f_;
  mutable std::vector<double> c_allreduce_buf_;
};

} // namespace dgflow
