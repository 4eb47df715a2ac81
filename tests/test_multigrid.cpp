#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "lung/airway_tree.h"
#include "lung/lung_mesh.h"
#include "mesh/generators.h"
#include "multigrid/hybrid_multigrid.h"
#include "solvers/cg.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

// the level operators point into the instance's own MatrixFree and Q1
// spaces, and every smoother at its level's operator
static_assert(!std::is_copy_constructible_v<HybridMultigrid<float>> &&
                !std::is_copy_assignable_v<HybridMultigrid<float>> &&
                !std::is_move_constructible_v<HybridMultigrid<float>> &&
                !std::is_move_assignable_v<HybridMultigrid<float>>,
              "a copied or moved HybridMultigrid would apply the source's "
              "levels");

namespace
{
BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

/// Two uniform refinements of the unit cube, then one more in the octant
/// at the origin: hanging nodes on the Q1 levels.
Mesh hanging_node_cube()
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  std::vector<bool> flags(mesh.n_active_cells(), false);
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
  {
    const auto lo = mesh.cell_lower_corner(i);
    if (lo[0] < 0.5 && lo[1] < 0.5 && lo[2] < 0.5)
      flags[i] = true;
  }
  mesh.refine(flags);
  return mesh;
}

struct PoissonSetup
{
  MatrixFree<double> mf;
  LaplaceOperator<double> laplace;
  HybridMultigrid<float> mg;

  void init(const Mesh &mesh, const Geometry &geom, const unsigned int degree,
            const HybridMultigrid<float>::Options &opts = {})
  {
    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    mf.reinit(mesh, geom, data);
    laplace.reinit(mf, 0, 0, all_dirichlet());
    mg.setup(mesh, geom, degree, all_dirichlet(), opts);
  }

  SolveStats solve(Vector<double> &x, const double tol = 1e-10)
  {
    const auto exact = [](const Point &p) {
      return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
             std::sin(M_PI * p[2]);
    };
    const auto f = [&](const Point &p) { return 3 * M_PI * M_PI * exact(p); };
    Vector<double> rhs;
    laplace.assemble_rhs(rhs, f, exact);
    x.reinit(laplace.n_dofs());
    SolverControl control;
    control.max_iterations = 100;
    control.rel_tol = tol;
    return solve_cg(laplace, x, rhs, mg, control);
  }
};
} // namespace

TEST(HybridMultigridTest, FewIterationsOnCube)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(3);
  TrilinearGeometry geom(mesh.coarse());
  PoissonSetup s;
  s.init(mesh, geom, 3);
  Vector<double> x;
  const auto result = s.solve(x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 14u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, IterationCountIsMeshIndependent)
{
  unsigned int iters[2];
  for (unsigned int i = 0; i < 2; ++i)
  {
    Mesh mesh(unit_cube());
    mesh.refine_uniform(2 + i);
    TrilinearGeometry geom(mesh.coarse());
    PoissonSetup s;
    s.init(mesh, geom, 2);
    Vector<double> x;
    const auto result = s.solve(x);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.iterations, 11u) << "iterations: " << result.iterations;
    iters[i] = result.iterations;
  }
  EXPECT_LE(iters[1], iters[0] + 3)
    << "iterations grew: " << iters[0] << " -> " << iters[1];
}

TEST(HybridMultigridTest, SolvesAccurately)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(3);
  TrilinearGeometry geom(mesh.coarse());
  PoissonSetup s;
  s.init(mesh, geom, 2);
  Vector<double> x;
  const auto result = s.solve(x, 1e-11);
  EXPECT_LE(result.iterations, 11u) << "iterations: " << result.iterations;
  const auto exact = [](const Point &p) {
    return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
           std::sin(M_PI * p[2]);
  };
  // discretization error at k=2, 8^3 cells is ~7e-5; the solver must not
  // add to it
  EXPECT_LT(l2_error(s.mf, 0, 0, x, exact), 2e-4);
}

TEST(HybridMultigridTest, WorksWithHangingNodes)
{
  const Mesh mesh = hanging_node_cube();
  TrilinearGeometry geom(mesh.coarse());
  PoissonSetup s;
  s.init(mesh, geom, 3);
  Vector<double> x;
  const auto result = s.solve(x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 18u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, WorksOnDeformedGeometry)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(3);
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.08 * std::sin(M_PI * p[0]) * p[1],
                 p[1] - 0.06 * p[0] * p[2], p[2] + 0.05 * p[1]);
  });
  PoissonSetup s;
  s.init(mesh, geom, 3);
  Vector<double> x;
  const auto result = s.solve(x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 16u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, AblationWithoutHCoarsening)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(3);
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float>::Options opts;
  opts.h_coarsening = false; // AMG directly below the fine-mesh Q1 space
  PoissonSetup s;
  s.init(mesh, geom, 2, opts);
  Vector<double> x;
  const auto result = s.solve(x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 10u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, DegreeOneHasNoPTransfer)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  TrilinearGeometry geom(mesh.coarse());
  PoissonSetup s;
  s.init(mesh, geom, 1);
  Vector<double> x;
  const auto result = s.solve(x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 9u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, RejectsADegreeAboveTheCellBlockCapUpFront)
{
  // DG(9) cells would need 1000 x 1000 blocks: setup must refuse before it
  // builds a level, not after probing and inverting them
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float> mg;
  try
  {
    mg.setup(mesh, geom, 9, all_dirichlet());
    FAIL() << "degree 9 accepted";
  }
  catch (const std::runtime_error &e)
  {
    EXPECT_NE(std::string(e.what()).find("at most 729 rows (degree 8)"),
              std::string::npos)
      << e.what();
  }
  EXPECT_EQ(mg.n_levels(), 0u);
}

TEST(HybridMultigridTest, ConvergesOnLungJunctionCells)
{
  // the DG(2) pressure space of the generation-2 lung: the sheared
  // first-layer cells of its side-branch junctions are what the cell-block
  // smoother of the DG levels is for
  AirwayTreeParameters prm;
  prm.n_generations = 2;
  const LungMesh lung = build_lung_mesh(AirwayTree::generate(prm));
  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);
  const Mesh mesh(lung.coarse);
  TrilinearGeometry geom(mesh.coarse());

  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.geometry_degree = 1;
  data.penalty_safety = 4.;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, bc);
  HybridMultigrid<float> mg;
  HybridMultigrid<float>::Options opts;
  opts.geometry_degree = 1;
  opts.penalty_safety = 4.;
  mg.setup(mesh, geom, 2, bc, opts);

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 200;
  const auto result = solve_cg(laplace, x, rhs, mg, control);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 43u) << "iterations: " << result.iterations;
}

TEST(HybridMultigridTest, OneRankDistributedVcycleMatchesSerialBitwise)
{
  // degree 4 on the hanging-node cube gives DG4, DG2 and DG1, then four Q1
  // levels with the AMG on the coarsest: the p-, c- and h-transfers all run
  const Mesh mesh = hanging_node_cube();
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float>::Options opts;
  opts.rank_of_cell.assign(mesh.n_active_cells(), 0);
  opts.n_ranks = 1;

  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved_width = pool.n_threads();
  for (const unsigned int width : {1u, 4u})
  {
    pool.set_n_threads(width);
    HybridMultigrid<float> mg;
    mg.setup(mesh, geom, 4, all_dirichlet(), opts);
    ASSERT_EQ(mg.n_levels(), 7u);

    const std::size_t n = mg.level_dofs(mg.n_levels() - 1);
    Vector<double> src(n), serial, distributed(n);
    for (std::size_t i = 0; i < n; ++i)
      src[i] = std::sin(0.37 * double(i)) + 0.2;
    mg.vmult(serial, src);

    vmpi::run(1, [&](vmpi::Communicator &comm) {
      const auto part = vmpi::Partitioner::cell_partitioner(
        mesh, opts.rank_of_cell, comm.rank(), 1);
      mg.setup_distributed(comm, part);
      vmpi::DistributedVector<double> s(
        part, comm, mg.fine_matrix_free().dofs_per_cell(0)),
        d;
      s.copy_owned_from(src);
      mg.vmult(d, s);
      ASSERT_EQ(d.size(), n);
      std::memcpy(distributed.data(), d.data(), n * sizeof(double));
    });

    ASSERT_EQ(serial.size(), n);
    EXPECT_EQ(std::memcmp(serial.data(), distributed.data(),
                          n * sizeof(double)),
              0)
      << "one-rank distributed V-cycle deviates at pool width " << width;
  }
  pool.set_n_threads(saved_width);
}

TEST(HybridMultigridTest, VcycleIsBitwiseIdenticalAtAnyPoolWidth)
{
  // the hanging-node cube at degree 4: the p-, c- and h-transfers all run
  // on the pool, in chunks that depend on the width the multigrid is built
  // at; one V-cycle must give the same bytes at every width
  const Mesh mesh = hanging_node_cube();
  TrilinearGeometry geom(mesh.coarse());
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved_width = pool.n_threads();
  Vector<double> reference;
  for (const unsigned int width : {1u, 2u, 4u})
  {
    pool.set_n_threads(width);
    HybridMultigrid<float> mg;
    mg.setup(mesh, geom, 4, all_dirichlet());
    ASSERT_EQ(mg.n_levels(), 7u);
    const std::size_t n = mg.level_dofs(mg.n_levels() - 1);
    Vector<double> src(n), dst;
    for (std::size_t i = 0; i < n; ++i)
      src[i] = std::sin(0.37 * double(i)) + 0.2;
    mg.vmult(dst, src);
    ASSERT_EQ(dst.size(), n);
    if (width == 1)
    {
      reference = dst;
    }
    else
    {
      EXPECT_EQ(std::memcmp(dst.data(), reference.data(), n * sizeof(double)),
                0)
        << "V-cycle at pool width " << width << " deviates from width 1";
    }
  }
  pool.set_n_threads(saved_width);
}
