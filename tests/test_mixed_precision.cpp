// Fused solver loops and end-to-end mixed precision (ctest label
// mixed_precision; also run under DGFLOW_SANITIZE=address by
// run_benchmarks.sh): the contract-v2 fused CG and Chebyshev paths must
// match the classic separate-sweep iteration bitwise in double precision,
// serially and on 4 logical ranks; the single-precision multigrid
// preconditioner must not change the outer DP iteration count by more than
// one on the lung geometry; and the single-precision ghost wire must
// round-trip values exactly (up to the float conversion), detect in-flight
// corruption through its checksum trailer, and keep the timeout/epoch
// semantics of the storage wire under fault injection.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "lung/lung_mesh.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/laplace_operator.h"
#include "resilience/fault_injection.h"
#include "solvers/cg.h"
#include "solvers/chebyshev.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

namespace
{
BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

Mesh make_mesh(const unsigned int refinements)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(refinements);
  return mesh;
}

/// Exposes only the plain vmult(dst, src) of @p Op, hiding the contract-v2
/// hooked overload: the solvers then take their classic separate-sweep
/// branch, the reference the fused iteration must match bitwise.
template <typename Op>
struct UnhookedView
{
  const Op &op;
  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    op.vmult(dst, src);
  }
};

/// A zero-guess and a nonzero-guess Chebyshev sweep with @p op, once through
/// its contract-v2 hooked vmult (the fused sweep) and once through the
/// classic separate sweeps: the iterates must agree bitwise after each.
template <typename Op, typename VectorType>
void expect_fused_chebyshev_matches_classic(const Op &op,
                                            const VectorType &diag,
                                            const char *what)
{
  using Number = typename VectorType::value_type;
  static_assert(HookedOperatorFor<Op, VectorType>);
  ChebyshevData cheb;
  cheb.degree = 4;
  ChebyshevSmoother<Op, VectorType> fused;
  fused.reinit(op, diag, cheb);
  using ClassicOp = UnhookedView<Op>;
  const ClassicOp classic_op{op};
  static_assert(!HookedOperatorFor<ClassicOp, VectorType>);
  ChebyshevSmoother<ClassicOp, VectorType> classic;
  classic.reinit(classic_op, diag, cheb);

  const std::size_t n = diag.size();
  VectorType b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = Number(std::sin(0.37 * double(i)) + 0.2);

  // zero initial guess (the pre-smoother) and a nonzero-guess sweep on top
  VectorType x_fused(n), x_classic(n);
  fused.smooth(x_fused, b, true);
  classic.smooth(x_classic, b, true);
  EXPECT_EQ(std::memcmp(x_fused.data(), x_classic.data(), n * sizeof(Number)),
            0)
    << what << ": fused zero-guess sweep deviates";

  fused.smooth(x_fused, b, false);
  classic.smooth(x_classic, b, false);
  EXPECT_EQ(std::memcmp(x_fused.data(), x_classic.data(), n * sizeof(Number)),
            0)
    << what << ": fused nonzero-guess sweep deviates";
}
} // namespace

// ---------------------------------------------------------------------------
// fused solver loops: bitwise equivalence with the classic iteration
// ---------------------------------------------------------------------------

TEST(FusedLoops, CGMatchesUnfusedBitwiseSerial)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {3};
  data.n_q_points_1d = {4};
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  static_assert(
    HookedOperatorFor<LaplaceOperator<double>, Vector<double>>,
    "the DG Laplacian must implement the contract-v2 hooked vmult");

  Vector<double> rhs;
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);

  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 400;

  Vector<double> x_fused(laplace.n_dofs()), x_classic(laplace.n_dofs());
  const auto stats_fused = solve_cg(laplace, x_fused, rhs, jacobi, control);
  const UnhookedView<LaplaceOperator<double>> classic_op{laplace};
  static_assert(!HookedOperatorFor<decltype(classic_op), Vector<double>>);
  const auto stats_classic =
    solve_cg(classic_op, x_classic, rhs, jacobi, control);

  ASSERT_TRUE(stats_fused.converged);
  EXPECT_EQ(stats_fused.iterations, stats_classic.iterations);
  EXPECT_EQ(stats_fused.final_residual, stats_classic.final_residual);
  EXPECT_EQ(std::memcmp(x_fused.data(), x_classic.data(),
                        x_fused.size() * sizeof(double)),
            0)
    << "fused CG iterate deviates from the classic iteration";
}

TEST(FusedLoops, ChebyshevMatchesUnfusedBitwiseSerial)
{
  // the DG Laplacian: the sweep rides the per-batch post hooks
  {
    const Mesh mesh = make_mesh(2);
    TrilinearGeometry geom(mesh.coarse());
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {2};
    data.n_q_points_1d = {3};
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, all_dirichlet());
    Vector<double> diag;
    laplace.compute_diagonal(diag);
    expect_fused_chebyshev_matches_classic(laplace, diag, "DG Laplacian");
  }

  // the float Q1 operator of the multigrid levels on a hanging-node mesh:
  // shared vertex DoFs degrade its hooks to one whole-range post after the
  // cell loop
  {
    Mesh mesh = make_mesh(2);
    std::vector<bool> flags(mesh.n_active_cells(), false);
    for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    {
      const auto lo = mesh.cell_lower_corner(i);
      if (lo[0] < 0.5 && lo[1] < 0.5 && lo[2] < 0.5)
        flags[i] = true;
    }
    mesh.refine(flags);
    TrilinearGeometry geom(mesh.coarse());
    MatrixFree<float> mf;
    MatrixFree<float>::AdditionalData data;
    data.degrees = {1};
    data.basis_types = {BasisType::lagrange_gauss_lobatto};
    data.n_q_points_1d = {2};
    mf.reinit(mesh, geom, data);
    CFEDofHandler dofs;
    dofs.reinit(mesh);
    ASSERT_GT(dofs.n_constraints(), 0u);
    const CFESpace q1 =
      make_q1_space(dofs, [](unsigned int) { return true; });
    CFELaplaceOperator<float> op;
    op.reinit(mf, 0, 0, q1);
    Vector<float> diag;
    op.compute_diagonal(diag);
    expect_fused_chebyshev_matches_classic(op, diag, "Q1 Laplacian");
  }
}

TEST(FusedLoops, CGAndChebyshevMatchUnfusedBitwiseOn4Ranks)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int block = mf.dofs_per_cell(0);
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  using DVec = vmpi::DistributedVector<double>;
  static_assert(HookedOperatorFor<LaplaceOperator<double>, DVec>,
                "hooked vmult must cover the distributed path");

  std::atomic<int> mismatches{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    DVec b(part, comm, block), ddiag(part, comm, block);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = std::sin(0.37 * double(b.first_local_index() + i)) + 0.2;
    ddiag.copy_owned_from(diag);

    PreconditionJacobi<double> jacobi;
    jacobi.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 400;

    DVec x_fused(part, comm, block), x_classic(part, comm, block);
    using ClassicOp = UnhookedView<LaplaceOperator<double>>;
    const ClassicOp classic_op{laplace};
    const auto sf = solve_cg(laplace, x_fused, b, jacobi, control);
    const auto sc = solve_cg(classic_op, x_classic, b, jacobi, control);
    if (sf.iterations != sc.iterations ||
        std::memcmp(x_fused.data(), x_classic.data(),
                    x_fused.size() * sizeof(double)) != 0)
      ++mismatches;

    ChebyshevSmoother<LaplaceOperator<double>, DVec> fused;
    fused.reinit(laplace, ddiag);
    ChebyshevSmoother<ClassicOp, DVec> classic;
    classic.reinit(classic_op, ddiag);
    x_fused = 0.;
    x_classic = 0.;
    fused.smooth(x_fused, b, true);
    classic.smooth(x_classic, b, true);
    fused.smooth(x_fused, b, false);
    classic.smooth(x_classic, b, false);
    if (std::memcmp(x_fused.data(), x_classic.data(),
                    x_fused.size() * sizeof(double)) != 0)
      ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// mixed-precision multigrid: SP levels must not cost iterations
// ---------------------------------------------------------------------------

namespace
{
template <typename LevelNumber>
unsigned int lung_poisson_iterations(const Mesh &mesh, const Geometry &geom,
                                     const BoundaryMap &bc)
{
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.geometry_degree = 1;
  data.penalty_safety = 4.;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, bc);

  HybridMultigrid<LevelNumber> mg;
  typename HybridMultigrid<LevelNumber>::Options opts;
  opts.geometry_degree = 1;
  opts.penalty_safety = 4.;
  mg.setup(mesh, geom, 2, bc, opts);

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  SolverControl control;
  control.rel_tol = 1e-8;
  control.max_iterations = 2000;
  const auto stats = solve_cg(laplace, x, rhs, mg, control);
  EXPECT_TRUE(stats.converged);
  return stats.iterations;
}
} // namespace

TEST(MixedPrecisionMG, LungIterationCountsWithinOneOfDouble)
{
  AirwayTreeParameters prm;
  prm.n_generations = 2;
  const LungMesh lung = build_lung_mesh(AirwayTree::generate(prm));
  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);
  Mesh mesh(lung.coarse);
  TrilinearGeometry geom(mesh.coarse());

  const unsigned int its_dp = lung_poisson_iterations<double>(mesh, geom, bc);
  const unsigned int its_sp = lung_poisson_iterations<float>(mesh, geom, bc);

  EXPECT_LE(std::abs(int(its_sp) - int(its_dp)), 1)
    << "SP V-cycle costs iterations: dp=" << its_dp << " sp=" << its_sp;
}

// ---------------------------------------------------------------------------
// single-precision ghost wire: round-trip, checksum, fault semantics
// ---------------------------------------------------------------------------

TEST(SPGhostWire, GhostRoundTripMatchesStorageWireUpToFloat)
{
  const Mesh mesh = make_mesh(1);
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  const unsigned int block = 3;

  std::atomic<int> mismatches{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, block),
      w(part, comm, block);
    for (std::size_t i = 0; i < v.size(); ++i)
    {
      // values with a fractional part that float actually rounds
      v[i] = 1. / 3. + 1e-3 * double(v.first_local_index() + i);
      w[i] = v[i];
    }
    w.set_wire_precision(vmpi::WirePrecision::single);
    v.update_ghost_values();
    w.update_ghost_values();
    for (std::size_t i = 0; i < v.ghost_size(); ++i)
    {
      const double expected = double(float(v[v.size() + i]));
      if (w[w.size() + i] != expected)
        ++mismatches;
    }

    // compress_add back: the float wire accumulates the float-rounded
    // ghost contributions
    vmpi::DistributedVector<double> cv(part, comm, block),
      cw(part, comm, block);
    cv = 0.;
    cw = 0.;
    cw.set_wire_precision(vmpi::WirePrecision::single);
    for (std::size_t i = 0; i < cv.ghost_size(); ++i)
    {
      cv[cv.size() + i] = 0.1 + 1e-4 * double(i);
      cw[cw.size() + i] = cv[cv.size() + i];
    }
    cv.compress_add();
    cw.compress_add();
    for (std::size_t i = 0; i < cv.size(); ++i)
    {
      // both wires accumulate the same set of contributions; the float
      // wire's terms are individually float-rounded
      const double tol = 1e-6 * (1. + std::abs(cv[i]));
      if (std::abs(cw[i] - cv[i]) > tol)
        ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SPGhostWire, ChecksumDetectsInFlightCorruption)
{
  const Mesh mesh = make_mesh(1);
  const int n_ranks = 2;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  resilience::FaultPlan::Config cfg;
  cfg.corrupt_rate = 1.; // flip bytes in every message payload
  cfg.corrupt_bytes = 2;
  resilience::FaultPlan plan(cfg);

  std::atomic<int> detections{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, 2);
    v = 1.;
    v.set_wire_precision(vmpi::WirePrecision::single);
    try
    {
      v.update_ghost_values();
      ADD_FAILURE() << "corrupted single-precision ghost payload was "
                       "accepted on rank "
                    << comm.rank();
    }
    catch (const vmpi::GhostCorruptionError &)
    {
      ++detections;
    }
  });
  // every rank with an inbound ghost message must detect the corruption
  EXPECT_EQ(detections.load(), n_ranks);
  EXPECT_GT(plan.counts().corrupted, 0ull);
}

TEST(SPGhostWire, DroppedMessageStillSurfacesAsTimeout)
{
  // the single wire must preserve the bounded-wait epoch protocol: a lost
  // payload is a TimeoutError (like the storage wire), never a hang or a
  // checksum error on garbage
  const Mesh mesh = make_mesh(1);
  const int n_ranks = 2;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  resilience::FaultPlan::Config cfg;
  cfg.drop_rate = 1.;
  resilience::FaultPlan plan(cfg);

  std::atomic<int> timeouts{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    comm.set_timeout(0.2);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, 2);
    v = 1.;
    v.set_wire_precision(vmpi::WirePrecision::single);
    try
    {
      v.update_ghost_values();
    }
    catch (const vmpi::TimeoutError &)
    {
      ++timeouts;
    }
  });
  EXPECT_EQ(timeouts.load(), n_ranks);
}

TEST(SPGhostWire, DelayAndReorderDoNotCorruptPayloads)
{
  // non-lossy faults: delayed/reordered float payloads must still verify
  // and land in the right slots across repeated exchanges
  const Mesh mesh = make_mesh(1);
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  resilience::FaultPlan::Config cfg;
  cfg.delay_rate = 0.4;
  cfg.delay_seconds = 2e-3;
  cfg.reorder_rate = 0.4;
  resilience::FaultPlan plan(cfg);

  std::atomic<int> mismatches{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, 2);
    v.set_wire_precision(vmpi::WirePrecision::single);
    for (unsigned int round = 0; round < 20; ++round)
    {
      for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = double(round) + 0.25 + 1e-3 * double(i % 97);
      v.update_ghost_values();
      for (std::size_t i = 0; i < v.ghost_size(); ++i)
      {
        const double got = v[v.size() + i];
        // every payload scalar of this round lies in [round, round+1)
        if (!(got >= double(round) && got < double(round) + 1.))
          ++mismatches;
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SPGhostWire, SolveWithSingleWireConvergesLikeStorageWire)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int block = mf.dofs_per_cell(0);
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  unsigned int its_storage = 0, its_single = 0;
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> b(part, comm, block),
      ddiag(part, comm, block);
    b = 1.;
    ddiag.copy_owned_from(diag);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-8;
    control.max_iterations = 1000;

    for (const auto wire :
         {vmpi::WirePrecision::storage, vmpi::WirePrecision::single})
    {
      vmpi::DistributedVector<double> x(part, comm, block);
      x.set_wire_precision(wire);
      b.set_wire_precision(wire);
      const auto stats = solve_cg(laplace, x, b, jacobi, control);
      EXPECT_TRUE(stats.converged);
      if (comm.rank() == 0)
        (wire == vmpi::WirePrecision::storage ? its_storage : its_single) =
          stats.iterations;
    }
  });
  // float ghost payloads perturb the operator slightly; the Krylov
  // iteration count must stay essentially unchanged
  EXPECT_LE(std::abs(int(its_single) - int(its_storage)), 2)
    << "storage=" << its_storage << " single=" << its_single;
}
