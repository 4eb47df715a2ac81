#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "mesh/generators.h"
#include "operators/cfe_laplace_operator.h"
#include "operators/laplace_operator.h"
#include "operators/mass_operator.h"
#include "solvers/cg.h"

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

void setup_mf(MatrixFree<double> &mf, const Mesh &mesh, const Geometry &geom,
              const unsigned int degree)
{
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  mf.reinit(mesh, geom, data);
}

Vector<double> random_vec(const std::size_t n, const unsigned int seed = 3)
{
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1., 1.);
  Vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = dist(rng);
  return v;
}

double solve_poisson_l2_error(const Mesh &mesh, const Geometry &geom,
                              const unsigned int degree)
{
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, degree);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  const auto exact = [](const Point &p) {
    return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
           std::sin(M_PI * p[2]);
  };
  const auto f = [&](const Point &p) { return 3 * M_PI * M_PI * exact(p); };

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, f, exact);

  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);

  SolverControl control;
  control.max_iterations = 10000;
  control.rel_tol = 1e-11;
  const auto result = solve_cg(laplace, x, rhs, jacobi, control);
  EXPECT_TRUE(result.converged);

  return l2_error(mf, 0, 0, x, exact);
}
} // namespace

class LaplaceDegree : public ::testing::TestWithParam<unsigned int>
{};

TEST_P(LaplaceDegree, OperatorIsSymmetric)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  std::vector<bool> flags(8, false);
  flags[2] = true;
  mesh.refine(flags); // include hanging faces in the symmetry check
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.05 * p[1] * p[2], p[1] - 0.04 * p[0],
                 p[2] + 0.03 * p[0] * p[1]);
  });
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, GetParam());
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  const auto u = random_vec(laplace.n_dofs(), 11);
  const auto v = random_vec(laplace.n_dofs(), 12);
  Vector<double> Au(u.size()), Av(u.size());
  laplace.vmult(Au, u);
  laplace.vmult(Av, v);
  const double a = Au.dot(v), b = Av.dot(u);
  EXPECT_NEAR(a, b, 1e-11 * std::abs(a));
}

TEST_P(LaplaceDegree, OperatorIsPositiveDefinite)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, GetParam());
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  for (unsigned int seed = 0; seed < 5; ++seed)
  {
    const auto u = random_vec(laplace.n_dofs(), seed);
    Vector<double> Au(u.size());
    laplace.vmult(Au, u);
    EXPECT_GT(Au.dot(u), 0.);
  }
}

TEST_P(LaplaceDegree, DiagonalMatchesUnitVectorProbing)
{
  // every DoF of a trilinear cube, and of a deformed cube with one refined
  // cell (hanging faces probed from both sides) and Neumann faces beside
  // Dirichlet ones (skipped boundary integrals)
  const auto check = [](const Mesh &mesh, const Geometry &geom,
                        const BoundaryMap &bc) {
    MatrixFree<double> mf;
    setup_mf(mf, mesh, geom, GetParam());
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);

    Vector<double> diag;
    laplace.compute_diagonal(diag);
    ASSERT_EQ(diag.size(), laplace.n_dofs());

    Vector<double> e(laplace.n_dofs()), Ae(laplace.n_dofs());
    e = 0.;
    for (std::size_t i = 0; i < laplace.n_dofs(); ++i)
    {
      e[i] = 1.;
      laplace.vmult(Ae, e);
      e[i] = 0.;
      ASSERT_NEAR(diag[i], Ae[i], 1e-11 * std::abs(Ae[i]))
        << "diagonal mismatch at dof " << i;
    }
  };

  Mesh cube(unit_cube());
  cube.refine_uniform(1);
  check(cube, TrilinearGeometry(cube.coarse()), all_dirichlet());

  Mesh refined(unit_cube());
  refined.refine_uniform(1);
  std::vector<bool> flags(8, false);
  flags[2] = true;
  refined.refine(flags);
  AnalyticGeometry deformed([](index_t, const Point &p) {
    return Point(p[0] + 0.05 * p[1] * p[2], p[1] - 0.04 * p[0],
                 p[2] + 0.03 * p[0] * p[1]);
  });
  BoundaryMap mixed = all_dirichlet();
  mixed.set(1, BoundaryType::neumann);
  check(refined, deformed, mixed);
}

TEST_P(LaplaceDegree, DirichletDataIsConsistentWithTheOperator)
{
  // SIP is consistent: a linear u lies in the space and is integrated
  // exactly on an affine mesh, so A I(u) equals the Dirichlet data terms of
  // u (f = -laplace u = 0) entry by entry
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  AnalyticGeometry affine([](index_t, const Point &p) {
    return Point(p[0] + 0.2 * p[1], p[1] + 0.1 * p[2] - 0.05 * p[0],
                 p[2] - 0.15 * p[0]);
  });
  MatrixFree<double> mf;
  setup_mf(mf, mesh, affine, GetParam());
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  const ScalarFunction u = [](const Point &p) {
    return 0.3 + p[0] - 2. * p[1] + 0.5 * p[2];
  };
  Vector<double> Iu, AIu, rhs;
  interpolate(mf, 0, 0, u, Iu);
  laplace.vmult(AIu, Iu);
  laplace.assemble_rhs(rhs, {}, u);
  const double scale = rhs.linfty_norm();
  ASSERT_GT(scale, 0.);
  for (std::size_t i = 0; i < rhs.size(); ++i)
    ASSERT_NEAR(AIu[i], rhs[i], 1e-12 * scale) << "dof " << i;
}

TEST_P(LaplaceDegree, ConvergesAtOptimalRate)
{
  const unsigned int k = GetParam();
  TrilinearGeometry *geom_ptr = nullptr;

  Mesh mesh_c(unit_cube());
  mesh_c.refine_uniform(k <= 2 ? 2 : 1);
  TrilinearGeometry geom_c(mesh_c.coarse());
  geom_ptr = &geom_c;
  const double err_c = solve_poisson_l2_error(mesh_c, *geom_ptr, k);

  Mesh mesh_f(unit_cube());
  mesh_f.refine_uniform(k <= 2 ? 3 : 2);
  TrilinearGeometry geom_f(mesh_f.coarse());
  const double err_f = solve_poisson_l2_error(mesh_f, geom_f, k);

  const double rate = std::log2(err_c / err_f);
  EXPECT_GT(rate, k + 0.6) << "errors: " << err_c << " -> " << err_f;
}

INSTANTIATE_TEST_SUITE_P(Degrees, LaplaceDegree, ::testing::Values(1u, 2u, 3u));

TEST(CellBlocks, MatchUnitVectorProbing)
{
  // the refined, deformed cube with a Neumann face of
  // LaplaceDegree.DiagonalMatchesUnitVectorProbing: hanging faces probed from
  // both sides, skipped boundary integrals beside Dirichlet ones
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  std::vector<bool> flags(8, false);
  flags[2] = true;
  mesh.refine(flags);
  AnalyticGeometry deformed([](index_t, const Point &p) {
    return Point(p[0] + 0.05 * p[1] * p[2], p[1] - 0.04 * p[0],
                 p[2] + 0.03 * p[0] * p[1]);
  });
  BoundaryMap mixed = all_dirichlet();
  mixed.set(1, BoundaryType::neumann);

  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved_width = pool.n_threads();
  for (const unsigned int degree : {1u, 2u, 3u})
  {
    Vector<double> reference;
    for (const unsigned int width : {1u, 4u})
    {
      // the loop driver's chunks are fixed when the MatrixFree is built
      pool.set_n_threads(width);
      MatrixFree<double> mf;
      setup_mf(mf, mesh, deformed, degree);
      LaplaceOperator<double> laplace;
      laplace.reinit(mf, 0, 0, mixed);
      const std::size_t n = mf.dofs_per_cell(0);
      const std::size_t n_cells = mesh.n_active_cells();

      Vector<double> blocks, diag;
      laplace.compute_cell_blocks(blocks);
      laplace.compute_diagonal(diag);
      ASSERT_EQ(blocks.size(), n_cells * n * n);
      if (width > 1)
      {
        EXPECT_EQ(std::memcmp(blocks.data(), reference.data(),
                              blocks.size() * sizeof(double)),
                  0)
          << "degree " << degree << ": blocks at pool width " << width
          << " deviate from width 1";
        continue;
      }
      reference = blocks;

      for (std::size_t c = 0; c < n_cells; ++c)
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::memcmp(&blocks[(c * n + i) * n + i],
                                &diag[c * n + i], sizeof(double)),
                    0)
            << "degree " << degree << ": block diagonal of cell " << c
            << " differs from compute_diagonal at " << i;

      Vector<double> e(laplace.n_dofs()), Ae(laplace.n_dofs());
      e = 0.;
      for (std::size_t c = 0; c < n_cells; ++c)
        for (std::size_t j = 0; j < n; ++j)
        {
          e[c * n + j] = 1.;
          laplace.vmult(Ae, e);
          e[c * n + j] = 0.;
          const double scale = Ae.linfty_norm();
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(blocks[(c * n + j) * n + i], Ae[c * n + i],
                        1e-12 * scale)
              << "degree " << degree << ": block entry (" << i << ", " << j
              << ") of cell " << c;
        }
    }
  }
  pool.set_n_threads(saved_width);
}

TEST(Laplace, ConvergesOnDeformedMesh)
{
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.06 * std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]),
                 p[1] + 0.05 * std::sin(M_PI * p[1]) * std::sin(M_PI * p[2]),
                 p[2]);
  });
  Mesh mesh_c(unit_cube());
  mesh_c.refine_uniform(2);
  const double err_c = solve_poisson_l2_error(mesh_c, geom, 2);
  Mesh mesh_f(unit_cube());
  mesh_f.refine_uniform(3);
  const double err_f = solve_poisson_l2_error(mesh_f, geom, 2);
  const double rate = std::log2(err_c / err_f);
  EXPECT_GT(rate, 2.6) << "errors: " << err_c << " -> " << err_f;
}

TEST(Laplace, ConvergesWithHangingNodes)
{
  // adaptive refinement toward the domain center
  auto make_mesh = [](const unsigned int base) {
    Mesh mesh(unit_cube());
    mesh.refine_uniform(base);
    std::vector<bool> flags(mesh.n_active_cells(), false);
    for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    {
      const auto lo = mesh.cell_lower_corner(i);
      const double h = mesh.cell_reference_size(i);
      const Point c(lo[0] + h / 2, lo[1] + h / 2, lo[2] + h / 2);
      if (norm(c - Point(0.5, 0.5, 0.5)) < 0.3)
        flags[i] = true;
    }
    mesh.refine(flags);
    return mesh;
  };
  Mesh mesh_c = make_mesh(1);
  TrilinearGeometry geom_c(mesh_c.coarse());
  const double err_c = solve_poisson_l2_error(mesh_c, geom_c, 2);
  Mesh mesh_f = make_mesh(2);
  TrilinearGeometry geom_f(mesh_f.coarse());
  const double err_f = solve_poisson_l2_error(mesh_f, geom_f, 2);
  EXPECT_GT(std::log2(err_c / err_f), 2.5)
    << "errors: " << err_c << " -> " << err_f;
}

TEST(Laplace, MixedDirichletNeumannBoundary)
{
  // u = x^2 + 2y - z with Neumann on x-faces, Dirichlet elsewhere:
  // -laplace u = -2
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, 2);

  BoundaryMap bc;
  bc.set(0, BoundaryType::neumann);
  bc.set(1, BoundaryType::neumann);
  for (unsigned int id = 2; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, bc);

  const auto exact = [](const Point &p) {
    return p[0] * p[0] + 2 * p[1] - p[2];
  };
  // du/dn on x=0: -du/dx = 0; on x=1: du/dx = 2
  const auto g_n = [](const Point &p) { return p[0] < 0.5 ? -0. : 2.; };
  const auto f = [](const Point &) { return -2.; };

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, f, exact, g_n);
  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);
  SolverControl control;
  control.max_iterations = 10000;
  control.rel_tol = 1e-12;
  const auto result = solve_cg(laplace, x, rhs, jacobi, control);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(l2_error(mf, 0, 0, x, exact), 0., 1e-9);
}

TEST(CFELaplace, DiagonalMatchesUnitVectorProbing)
{
  // the hanging-node mesh of HybridMultigridTest.WorksWithHangingNodes: a
  // master DoF's diagonal also collects the couplings of every cell that
  // holds both a hanging vertex and a vertex it is constrained to
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
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {1};
  data.basis_types = {BasisType::lagrange_gauss_lobatto};
  data.n_q_points_1d = {2};
  mf.reinit(mesh, geom, data);
  CFEDofHandler dofs;
  dofs.reinit(mesh);
  ASSERT_GT(dofs.n_constraints(), 0u);

  for (const bool with_dirichlet : {false, true})
  {
    const CFESpace space = make_q1_space(
      dofs, [&](const unsigned int id) { return with_dirichlet && id == 0; });
    CFELaplaceOperator<double> op;
    op.reinit(mf, 0, 0, space);
    Vector<double> diag;
    op.compute_diagonal(diag);
    ASSERT_EQ(diag.size(), op.n_dofs());

    Vector<double> e(op.n_dofs()), Ae;
    e = 0.;
    for (std::size_t i = 0; i < op.n_dofs(); ++i)
    {
      e[i] = 1.;
      op.vmult(Ae, e);
      e[i] = 0.;
      ASSERT_NEAR(diag[i], Ae[i], 1e-12 * std::abs(Ae[i]))
        << "dof " << i << (with_dirichlet ? " with" : " without")
        << " a Dirichlet id";
    }
  }
}

TEST(MassOperatorTest, InverseRoundtrip)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.1 * p[1], p[1], p[2] - 0.05 * p[0] * p[1]);
  });
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, 3);
  MassOperator<double, 1> mass;
  mass.reinit(mf, 0, 0);

  const auto u = random_vec(mass.n_dofs());
  Vector<double> Mu(u.size()), back(u.size());
  mass.vmult(Mu, u);
  mass.apply_inverse(back, Mu);
  for (std::size_t i = 0; i < u.size(); ++i)
    ASSERT_NEAR(back[i], u[i], 1e-12);
}

TEST(MassOperatorTest, IntegratesConstantToVolume)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  setup_mf(mf, mesh, geom, 2);
  MassOperator<double, 1> mass;
  mass.reinit(mf, 0, 0);

  Vector<double> ones(mass.n_dofs()), Mones(mass.n_dofs());
  ones = 1.;
  mass.vmult(Mones, ones);
  EXPECT_NEAR(Mones.dot(ones), 1.0, 1e-12); // unit cube volume
}

TEST(CGSolver, SolvesDiagonalSystemExactly)
{
  struct DiagOp
  {
    Vector<double> d;
    void vmult(Vector<double> &dst, const Vector<double> &src) const
    {
      dst = src;
      dst.scale_pointwise(d);
    }
  } A;
  A.d.reinit(50);
  for (std::size_t i = 0; i < 50; ++i)
    A.d[i] = 1. + double(i);
  const auto b = random_vec(50);
  Vector<double> x(50);
  PreconditionIdentity id;
  SolverControl ctrl;
  ctrl.rel_tol = 1e-14;
  ctrl.max_iterations = 200;
  const auto res = solve_cg(A, x, b, id, ctrl);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_NEAR(x[i], b[i] / A.d[i], 1e-10);
}

// ---------------------------------------------------------------------------
// Fast-path equivalence: the SIP Laplacian must produce the same action with
// and without metric compression, and with and without the specialized
// fixed-size kernels, on Cartesian, affine, and deformed meshes. Also checks
// that the geometry classifier assigns the expected GeometryType.
// ---------------------------------------------------------------------------

#include <memory>

#include "fem/kernel_backend.h"

namespace
{
/// Applies the SIP Laplacian to a fixed random vector with the given
/// compression / specialization settings.
Vector<double> laplace_action(const Mesh &mesh, const Geometry &geom,
                              const unsigned int degree,
                              const unsigned int n_q_1d,
                              const bool compress, const bool specialized,
                              GeometryType *observed_type = nullptr)
{
  set_default_kernel_backend(specialized ? KernelBackendType::batch
                                         : KernelBackendType::generic);
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {n_q_1d};
  data.compress_geometry = compress;
  mf.reinit(mesh, geom, data);
  if (observed_type)
    *observed_type = mf.cell_geometry_type(0);

  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const auto u = random_vec(laplace.n_dofs(), 99);
  Vector<double> au(u.size());
  laplace.vmult(au, u);
  set_default_kernel_backend(KernelBackendType::batch);
  return au;
}

void expect_vectors_near(const Vector<double> &a, const Vector<double> &b,
                         const double tol)
{
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], tol * (1. + std::abs(b[i]))) << "entry " << i;
}

struct FastPathMesh
{
  const char *name;
  Mesh mesh;
  std::unique_ptr<Geometry> geom;
  GeometryType expected_type;
};

std::vector<FastPathMesh> fast_path_meshes()
{
  std::vector<FastPathMesh> meshes;
  meshes.reserve(3); // geometries reference the stored meshes: no realloc

  meshes.push_back(
    {"cartesian", Mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1),
                                      {{2, 2, 2}})),
     nullptr, GeometryType::cartesian});
  meshes.back().geom =
    std::make_unique<TrilinearGeometry>(meshes.back().mesh.coarse());

  // sheared parallelepiped cells: constant but non-diagonal Jacobian
  Mesh affine(unit_cube());
  affine.refine_uniform(1);
  meshes.push_back(
    {"affine", affine,
     std::make_unique<AnalyticGeometry>([](index_t, const Point &p) {
       return Point(p[0] + 0.2 * p[1], p[1] + 0.1 * p[2], p[2]);
     }),
     GeometryType::affine});

  Mesh deformed(unit_cube());
  deformed.refine_uniform(1);
  meshes.push_back(
    {"deformed", deformed,
     std::make_unique<AnalyticGeometry>([](index_t, const Point &p) {
       return Point(p[0] + 0.06 * std::sin(M_PI * p[1]),
                    p[1] + 0.05 * p[0] * p[2], p[2] - 0.04 * p[0] * p[0]);
     }),
     GeometryType::general});

  return meshes;
}
} // namespace

TEST(LaplaceFastPath, CompressedMetricMatchesFullMetric)
{
  for (auto &m : fast_path_meshes())
    for (const unsigned int degree : {2u, 3u})
      for (const unsigned int n_q_1d : {degree + 1, (3 * (degree + 1)) / 2})
      {
        SCOPED_TRACE(std::string(m.name) + " degree " +
                     std::to_string(degree) + " n_q " + std::to_string(n_q_1d));
        GeometryType type;
        const auto compressed = laplace_action(m.mesh, *m.geom, degree,
                                               n_q_1d, true, true, &type);
        EXPECT_EQ(type, m.expected_type);
        const auto full =
          laplace_action(m.mesh, *m.geom, degree, n_q_1d, false, true);
        expect_vectors_near(compressed, full, 1e-12);
      }
}

TEST(LaplaceFastPath, SpecializedKernelsMatchGeneric)
{
  for (auto &m : fast_path_meshes())
    for (const unsigned int degree : {2u, 3u, 5u})
      for (const unsigned int n_q_1d : {degree + 1, (3 * (degree + 1)) / 2})
      {
        SCOPED_TRACE(std::string(m.name) + " degree " +
                     std::to_string(degree) + " n_q " + std::to_string(n_q_1d));
        const auto specialized =
          laplace_action(m.mesh, *m.geom, degree, n_q_1d, true, true);
        const auto generic =
          laplace_action(m.mesh, *m.geom, degree, n_q_1d, true, false);
        expect_vectors_near(specialized, generic, 1e-12);
      }
}

TEST(LaplaceFastPath, FullyGenericPathMatchesFullFastPath)
{
  // both levers off vs both on - the strongest end-to-end equivalence
  for (auto &m : fast_path_meshes())
  {
    SCOPED_TRACE(m.name);
    const auto fast = laplace_action(m.mesh, *m.geom, 3, 5, true, true);
    const auto slow = laplace_action(m.mesh, *m.geom, 3, 5, false, false);
    expect_vectors_near(fast, slow, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Kernel backends: the SIP Laplacian selected through AdditionalData::backend
// must be bitwise-identical to the default for the batch backend and to the
// process-wide generic default (the legacy toggle) for the generic backend —
// on Cartesian, affine, and deformed meshes, serially and on four vmpi ranks
// with threads.
// ---------------------------------------------------------------------------

#include <cstring>

#include "concurrency/thread_pool.h"
#include "mesh/partition.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

namespace
{
/// Applies the SIP Laplacian to a fixed random vector with the given kernel
/// backend request (std::nullopt = the process default resolution).
Vector<double> laplace_action_backend(const Mesh &mesh, const Geometry &geom,
                                      const unsigned int degree,
                                      const unsigned int n_q_1d,
                                      const std::optional<KernelBackendType> backend)
{
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {n_q_1d};
  data.backend = backend;
  mf.reinit(mesh, geom, data);
  if (backend)
  {
    EXPECT_EQ(mf.kernel_backend(), *backend);
  }

  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const auto u = random_vec(laplace.n_dofs(), 99);
  Vector<double> au(u.size());
  laplace.vmult(au, u);
  return au;
}

bool vectors_bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  // an empty vector may hold a null data(), which memcmp must not see
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
} // namespace

TEST(LaplaceBackend, BatchIsBitwiseIdenticalToDefault)
{
  ASSERT_EQ(default_kernel_backend(), KernelBackendType::batch);
  for (auto &m : fast_path_meshes())
    for (const unsigned int degree : {2u, 3u, 5u})
      for (const unsigned int n_q_1d : {degree + 1, (3 * (degree + 1)) / 2})
      {
        SCOPED_TRACE(std::string(m.name) + " degree " +
                     std::to_string(degree) + " n_q " + std::to_string(n_q_1d));
        const auto by_default = laplace_action_backend(m.mesh, *m.geom, degree,
                                                       n_q_1d, std::nullopt);
        const auto batch = laplace_action_backend(
          m.mesh, *m.geom, degree, n_q_1d, KernelBackendType::batch);
        EXPECT_TRUE(vectors_bitwise_equal(batch, by_default));
      }
}

TEST(LaplaceBackend, GenericIsBitwiseIdenticalToLegacyToggle)
{
  for (auto &m : fast_path_meshes())
  {
    SCOPED_TRACE(m.name);
    // the process-wide generic default vs the per-MatrixFree request
    const auto legacy = laplace_action(m.mesh, *m.geom, 3, 5, true, false);
    const auto generic = laplace_action_backend(m.mesh, *m.geom, 3, 5,
                                                KernelBackendType::generic);
    EXPECT_TRUE(vectors_bitwise_equal(generic, legacy));
  }
}

namespace
{
/// The distributed threaded Laplacian action on 4 vmpi ranks, gathered to a
/// full-length vector, with the given backend on every rank.
Vector<double> distributed_threaded_action(const Mesh &mesh,
                                           const unsigned int degree,
                                           const unsigned int nt,
                                           const KernelBackendType backend)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  data.backend = backend;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

  const auto src = random_vec(laplace.n_dofs(), 99);
  Vector<double> dst(laplace.n_dofs());
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), yd;
    xd.copy_owned_from(src);
    laplace.vmult(yd, xd);
    for (std::size_t i = 0; i < yd.size(); ++i)
      dst[yd.first_local_index() + i] = yd.data()[i];
  });
  concurrency::ThreadPool::instance().set_n_threads(1);
  return dst;
}
} // namespace

TEST(LaplaceBackend, FourRanksThreadedGenericMatchesBatch)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  const unsigned int degree = 2;
  const auto batch_serial =
    distributed_threaded_action(mesh, degree, 1, KernelBackendType::batch);
  // batch stays bitwise deterministic across thread counts...
  const auto batch_threaded =
    distributed_threaded_action(mesh, degree, 4, KernelBackendType::batch);
  EXPECT_TRUE(vectors_bitwise_equal(batch_threaded, batch_serial));
  // ...and so does generic, which agrees with batch to a few ULPs
  const auto generic_serial =
    distributed_threaded_action(mesh, degree, 1, KernelBackendType::generic);
  const auto generic_threaded =
    distributed_threaded_action(mesh, degree, 4, KernelBackendType::generic);
  EXPECT_TRUE(vectors_bitwise_equal(generic_threaded, generic_serial));
  expect_vectors_near(generic_serial, batch_serial, 1e-13);
}
