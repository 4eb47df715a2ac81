#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "dof/dof_handler.h"
#include "mesh/generators.h"
#include "matrixfree/fe_evaluation.h"
#include "multigrid/transfer.h"

using namespace dgflow;

namespace
{
Vector<float> random_vec(const std::size_t n, const unsigned int seed)
{
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.f, 1.f);
  Vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = dist(rng);
  return v;
}

/// One refinement of the unit cube, then one more of its first cell: the
/// Q1 space has hanging-node constraints.
Mesh mesh_with_hanging_nodes()
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  std::vector<bool> flags(8, false);
  flags[0] = true;
  mesh.refine(flags);
  return mesh;
}

/// Two uniform refinements of the unit cube, then one more in the octant
/// at the origin: 120 cells, 960 DG(1) rows.
Mesh cube_with_hanging_octant()
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

MatrixFree<float> make_mf(const Mesh &mesh, const Geometry &geom,
                          const std::vector<unsigned int> &degrees,
                          const std::vector<BasisType> &bases,
                          const std::vector<unsigned int> &quads)
{
  MatrixFree<float> mf;
  MatrixFree<float>::AdditionalData data;
  data.degrees = degrees;
  data.basis_types = bases;
  data.n_q_points_1d = quads;
  mf.reinit(mesh, geom, data);
  return mf;
}
} // namespace

TEST(DGPTransferTest, ProlongationPreservesCoarsePolynomials)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  const auto mf = make_mf(mesh, geom, {3, 1},
                          {BasisType::lagrange_gauss, BasisType::lagrange_gauss},
                          {4, 2});
  DGPTransfer<float> transfer(mf, 0, 1);

  // interpolate a tri-linear function on the coarse (k=1) space; its
  // prolongation to k=3 must represent the same function exactly
  Vector<float> coarse(mf.n_dofs(1, 1)), fine;
  const auto f = [](const Point &p) {
    return 1.0 + 2 * p[0] - p[1] + 0.5 * p[2];
  };
  {
    // nodal interpolation on the collocated coarse lattice
    FEEvaluation<float, 1> phi(mf, 1, 1);
    for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
    {
      phi.reinit(b);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        const auto xq = phi.quadrature_point(q);
        for (unsigned int l = 0; l < MatrixFree<float>::n_lanes; ++l)
          phi.begin_dof_values()[q][l] =
            float(f(Point(xq[0][l], xq[1][l], xq[2][l])));
      }
      phi.set_dof_values(coarse);
    }
  }
  fine.reinit(mf.n_dofs(0, 1));
  transfer.prolongate_cells(fine.data(), coarse.data(), mf.n_cells());
  // evaluate the fine field at its collocation points and compare
  FEEvaluation<float, 1> phi(mf, 0, 0);
  for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
  {
    phi.reinit(b);
    phi.read_dof_values(fine);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
    {
      const auto xq = phi.quadrature_point(q);
      for (unsigned int l = 0; l < phi.n_filled_lanes(); ++l)
        ASSERT_NEAR(phi.begin_dof_values()[q][l],
                    f(Point(xq[0][l], xq[1][l], xq[2][l])), 1e-5);
    }
  }
}

TEST(DGPTransferTest, RestrictionIsTransposeOfProlongation)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  const auto mf = make_mf(mesh, geom, {4, 2},
                          {BasisType::lagrange_gauss, BasisType::lagrange_gauss},
                          {5, 3});
  DGPTransfer<float> transfer(mf, 0, 1);

  const auto xc = random_vec(mf.n_dofs(1, 1), 1);
  const auto yf = random_vec(mf.n_dofs(0, 1), 2);
  Vector<float> Pxc(yf.size()), Rtyf(xc.size());
  transfer.prolongate_cells(Pxc.data(), xc.data(), mf.n_cells());
  transfer.restrict_cells(Rtyf.data(), yf.data(), mf.n_cells());
  const double a = Pxc.dot(yf), b = Rtyf.dot(xc);
  EXPECT_NEAR(a, b, 1e-4 * std::abs(a));
}

TEST(CTransferTest, ProlongationOfConstantIsConstant)
{
  const Mesh mesh = mesh_with_hanging_nodes();
  CFEDofHandler dofs;
  dofs.reinit(mesh);
  // no Dirichlet so the constant is representable
  const CFESpace cfe = make_q1_space(dofs, [](unsigned int) { return false; });
  const SparseMatrix P = build_c_transfer(mesh, cfe);
  SparseTransfer<float> transfer(P);
  ASSERT_EQ(P.n_rows(), 8u * mesh.n_active_cells());

  Vector<float> ones(cfe.n_dofs), dg(P.n_rows());
  ones = 1.f;
  transfer.prolongate_rows(dg.data(), ones, 0, dg.size());
  for (std::size_t i = 0; i < dg.size(); ++i)
    ASSERT_NEAR(dg[i], 1.f, 1e-6) << "dof " << i;
}

TEST(CTransferTest, RowRangesTileTheFullRangeBitwise)
{
  // the split the distributed cycle takes (the rows of each rank's cells,
  // cut at a cell boundary) against the full range the serial cycle takes,
  // at pool widths 1 and 4; the larger mesh splits both directions into
  // several chunks on the pool, and every width gives the same bytes
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved_width = pool.n_threads();
  const auto bytes_equal = [](const Vector<float> &a, const Vector<float> &b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (Mesh (*make_mesh)() :
       {mesh_with_hanging_nodes, cube_with_hanging_octant})
  {
    const Mesh mesh = make_mesh();
    CFEDofHandler dofs;
    dofs.reinit(mesh);
    const CFESpace cfe =
      make_q1_space(dofs, [](unsigned int id) { return id == 0; });
    const SparseMatrix P = build_c_transfer(mesh, cfe);
    const std::size_t n = P.n_rows();
    const std::size_t m = 8 * (mesh.n_active_cells() / 3);
    ASSERT_LT(0u, m);
    ASSERT_LT(m, n);
    const auto fine = random_vec(n, 3);
    const auto coarse = random_vec(cfe.n_dofs, 4);

    Vector<float> full_at_1, full_fine_at_1;
    for (const unsigned int width : {1u, 4u})
    {
      pool.set_n_threads(width);
      SparseTransfer<float> transfer(P);
      Vector<float> full(cfe.n_dofs), split(cfe.n_dofs);
      transfer.restrict_rows(full, fine.data(), 0, n);
      transfer.restrict_rows(split, fine.data(), 0, m);
      transfer.restrict_rows(split, fine.data() + m, m, n);
      EXPECT_TRUE(bytes_equal(split, full))
        << "split restriction deviates at pool width " << width;

      Vector<float> full_fine(n), split_fine(n);
      transfer.prolongate_rows(full_fine.data(), coarse, 0, n);
      transfer.prolongate_rows(split_fine.data(), coarse, 0, m);
      transfer.prolongate_rows(split_fine.data() + m, coarse, m, n);
      EXPECT_TRUE(bytes_equal(split_fine, full_fine))
        << "split prolongation deviates at pool width " << width;

      if (width == 1)
      {
        full_at_1 = full;
        full_fine_at_1 = full_fine;
      }
      else
      {
        EXPECT_TRUE(bytes_equal(full, full_at_1))
          << "restriction at pool width " << width << " deviates";
        EXPECT_TRUE(bytes_equal(full_fine, full_fine_at_1))
          << "prolongation at pool width " << width << " deviates";
      }
    }
  }
  pool.set_n_threads(saved_width);
}

TEST(HTransferTest, ProlongationOfLinearFieldIsExact)
{
  Mesh fine(unit_cube());
  fine.refine_uniform(2);
  const Mesh coarse = fine.coarsened();
  ASSERT_EQ(coarse.n_active_cells(), 8u);

  CFEDofHandler fine_dofs, coarse_dofs;
  fine_dofs.reinit(fine);
  coarse_dofs.reinit(coarse);
  const auto no_dirichlet = [](unsigned int) { return false; };
  const CFESpace fine_space = make_q1_space(fine_dofs, no_dirichlet);
  const CFESpace coarse_space = make_q1_space(coarse_dofs, no_dirichlet);

  const SparseMatrix P =
    build_h_transfer(fine, fine_space, coarse, coarse_space);
  EXPECT_EQ(P.n_rows(), fine_space.n_dofs);
  EXPECT_EQ(P.n_cols(), coarse_space.n_dofs);

  // a constant is reproduced exactly (row sums 1)
  Vector<double> ones(coarse_space.n_dofs), fine_vals;
  ones = 1.;
  P.vmult(fine_vals, ones);
  for (std::size_t i = 0; i < fine_vals.size(); ++i)
    ASSERT_NEAR(fine_vals[i], 1., 1e-12);
}

TEST(HTransferTest, WorksOnAdaptiveMeshes)
{
  const Mesh fine = mesh_with_hanging_nodes();
  const Mesh coarse = fine.coarsened();
  EXPECT_LT(coarse.n_active_cells(), fine.n_active_cells());

  CFEDofHandler fine_dofs, coarse_dofs;
  fine_dofs.reinit(fine);
  coarse_dofs.reinit(coarse);
  const auto no_dirichlet = [](unsigned int) { return false; };
  const CFESpace fine_space = make_q1_space(fine_dofs, no_dirichlet);
  const CFESpace coarse_space = make_q1_space(coarse_dofs, no_dirichlet);
  const SparseMatrix P =
    build_h_transfer(fine, fine_space, coarse, coarse_space);

  Vector<double> ones(coarse_space.n_dofs), fine_vals;
  ones = 1.;
  P.vmult(fine_vals, ones);
  for (std::size_t i = 0; i < fine_vals.size(); ++i)
    ASSERT_NEAR(fine_vals[i], 1., 1e-12);
}

TEST(MeshCoarsening, GlobalCoarseningHalvesEachDirection)
{
  Mesh mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1), {{2, 1, 1}}));
  mesh.refine_uniform(2);
  EXPECT_EQ(mesh.n_active_cells(), 128u);
  const Mesh c1 = mesh.coarsened();
  EXPECT_EQ(c1.n_active_cells(), 16u);
  const Mesh c2 = c1.coarsened();
  EXPECT_EQ(c2.n_active_cells(), 2u);
  const Mesh c3 = c2.coarsened();
  EXPECT_EQ(c3.n_active_cells(), 2u); // coarse cells cannot merge
}
