// Randomized property tests of the adaptive-mesh machinery: repeated random
// refinement must preserve 2:1 balance, face-list consistency, hanging-face
// subface completeness, and the exactness of constrained Q1 interpolation.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "dof/dof_handler.h"
#include "matrixfree/fe_face_evaluation.h"
#include "matrixfree/field_tools.h"
#include "mesh/generators.h"
#include "operators/cfe_space.h"

using namespace dgflow;

namespace
{
Mesh random_adaptive_mesh(const unsigned int seed, const unsigned int rounds)
{
  std::mt19937 rng(seed);
  Mesh mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1), {{2, 1, 1}}));
  mesh.refine_uniform(1);
  for (unsigned int round = 0; round < rounds; ++round)
  {
    std::vector<bool> flags(mesh.n_active_cells(), false);
    std::uniform_int_distribution<index_t> pick(0, mesh.n_active_cells() - 1);
    for (unsigned int i = 0; i < 1 + mesh.n_active_cells() / 10; ++i)
      flags[pick(rng)] = true;
    mesh.refine(flags);
  }
  return mesh;
}
} // namespace

class MeshFuzz : public ::testing::TestWithParam<unsigned int>
{};

TEST_P(MeshFuzz, BalanceAndFaceListInvariants)
{
  const Mesh mesh = random_adaptive_mesh(GetParam(), 3);

  // every neighbor query must succeed (asserts internally on 2:1
  // violations) and levels may differ by at most one
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    for (unsigned int f = 0; f < 6; ++f)
    {
      const auto nb = mesh.neighbor(i, f);
      if (nb.kind == Mesh::NeighborInfo::Kind::coarser)
      {
        ASSERT_EQ(mesh.cell(nb.cell).level + 1, mesh.cell(i).level);
      }
      if (nb.kind == Mesh::NeighborInfo::Kind::finer)
        for (const index_t c : nb.children)
        {
          ASSERT_EQ(mesh.cell(c).level, mesh.cell(i).level + 1);
        }
    }

  // face list: each interior conforming face appears exactly once; each
  // hanging coarse face is covered by exactly 4 subface entries
  std::map<std::pair<index_t, unsigned int>, unsigned int> seen;
  std::map<std::pair<index_t, unsigned int>, std::set<unsigned int>> subfaces;
  for (const auto &face : mesh.build_face_list())
  {
    if (face.is_boundary())
      continue;
    if (face.is_hanging())
      subfaces[{face.cell_p, face.face_no_p}].insert(face.subface0 +
                                                     2 * face.subface1);
    else
      ++seen[{std::min(face.cell_m, face.cell_p),
              face.cell_m < face.cell_p ? face.face_no_m : face.face_no_p}];
  }
  for (const auto &[key, count] : seen)
    ASSERT_EQ(count, 1u);
  for (const auto &[key, subs] : subfaces)
    ASSERT_EQ(subs.size(), 4u);
}

TEST_P(MeshFuzz, TracesMatchOnRandomAdaptiveMesh)
{
  const Mesh mesh = random_adaptive_mesh(GetParam() + 100, 2);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  mf.reinit(mesh, geom, data);

  Vector<double> v;
  interpolate(mf, 0, 0,
              [](const Point &p) { return 3 * p[0] - p[1] + 2 * p[2]; }, v);
  FEFaceEvaluation<double, 1> fm(mf, 0, 0, true), fp(mf, 0, 0, false);
  for (unsigned int b = 0; b < mf.n_inner_face_batches(); ++b)
  {
    fm.reinit(b);
    fp.reinit(b);
    fm.read_dof_values(v);
    fp.read_dof_values(v);
    fm.evaluate(true, false);
    fp.evaluate(true, false);
    for (unsigned int q = 0; q < fm.n_q_points; ++q)
      for (unsigned int l = 0; l < fm.n_filled_lanes(); ++l)
        ASSERT_NEAR(fm.get_value(q)[l], fp.get_value(q)[l], 1e-11);
  }
}

TEST_P(MeshFuzz, ConstrainedQ1InterpolationIsLinearExact)
{
  // resolve the hanging-node constraints of a linear function: the
  // constrained interpolation must reproduce it exactly everywhere
  const Mesh mesh = random_adaptive_mesh(GetParam() + 200, 3);
  CFEDofHandler dofs;
  dofs.reinit(mesh);
  const CFESpace space =
    make_q1_space(dofs, [](unsigned int) { return false; });

  // assign nodal values of f at the unconstrained dofs via cell corners
  const auto f = [](const Point &p) {
    return 0.3 + 1.7 * p[0] - 0.6 * p[1] + 0.9 * p[2];
  };
  TrilinearGeometry geom(mesh.coarse());
  Vector<double> values(space.n_dofs);
  std::vector<char> assigned(space.n_dofs, 0);
  for (index_t c = 0; c < mesh.n_active_cells(); ++c)
    for (unsigned int v = 0; v < 8; ++v)
    {
      const std::uint32_t e = space.cell_entries[8 * std::size_t(c) + v];
      if (CFESpace::is_constrained(e))
        continue;
      const auto lo = mesh.cell_lower_corner(c);
      const double h = mesh.cell_reference_size(c);
      const Point ref(lo[0] + h * (v & 1), lo[1] + h * ((v >> 1) & 1),
                      lo[2] + h * ((v >> 2) & 1));
      values[e] = f(geom.map(mesh.cell(c).tree, ref));
      assigned[e] = 1;
    }
  for (std::size_t i = 0; i < space.n_dofs; ++i)
    ASSERT_TRUE(assigned[i]) << "dof " << i << " never touched";

  // every constrained entry must resolve to the exact nodal value
  for (index_t c = 0; c < mesh.n_active_cells(); ++c)
    for (unsigned int v = 0; v < 8; ++v)
    {
      const std::uint32_t e = space.cell_entries[8 * std::size_t(c) + v];
      if (!CFESpace::is_constrained(e))
        continue;
      double interpolated = 0;
      for (const auto &ce : space.constraints[e & ~CFESpace::constraint_bit])
        interpolated += ce.weight * values[ce.dof];
      const auto lo = mesh.cell_lower_corner(c);
      const double h = mesh.cell_reference_size(c);
      const Point ref(lo[0] + h * (v & 1), lo[1] + h * ((v >> 1) & 1),
                      lo[2] + h * ((v >> 2) & 1));
      const double exact = f(geom.map(mesh.cell(c).tree, ref));
      ASSERT_NEAR(interpolated, exact, 1e-11)
        << "cell " << c << " corner " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshFuzz, ::testing::Range(0u, 6u));
