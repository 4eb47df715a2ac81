#include <gtest/gtest.h>

#include <set>

#include "mesh/generators.h"
#include "mesh/mesh.h"
#include "mesh/partition.h"

using namespace dgflow;

TEST(MeshUniform, RefinementCounts)
{
  Mesh mesh(unit_cube());
  EXPECT_EQ(mesh.n_active_cells(), 1u);
  mesh.refine_uniform(3);
  EXPECT_EQ(mesh.n_active_cells(), 512u);
  const auto hist = mesh.level_histogram();
  EXPECT_EQ(hist[3], 512u);
  EXPECT_EQ(hist[2], 0u);
}

TEST(MeshUniform, FaceCountsOnRefinedCube)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2); // 4x4x4 cells
  const auto faces = mesh.build_face_list();
  unsigned int n_boundary = 0, n_interior = 0, n_hanging = 0;
  for (const auto &f : faces)
  {
    if (f.is_boundary())
      ++n_boundary;
    else
      ++n_interior;
    if (f.is_hanging())
      ++n_hanging;
  }
  EXPECT_EQ(n_boundary, 6u * 16u);
  EXPECT_EQ(n_interior, 3u * 16u * 3u); // 3 * m^2 * (m-1), m=4
  EXPECT_EQ(n_hanging, 0u);
}

TEST(MeshUniform, NeighborsAreConsistent)
{
  Mesh mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1), {{2, 2, 2}}));
  mesh.refine_uniform(1);
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    for (unsigned int f = 0; f < 6; ++f)
    {
      const auto nb = mesh.neighbor(i, f);
      if (nb.kind == Mesh::NeighborInfo::Kind::same_level)
      {
        const auto back = mesh.neighbor(nb.cell, nb.face_no);
        ASSERT_EQ(back.kind, Mesh::NeighborInfo::Kind::same_level);
        EXPECT_EQ(back.cell, i);
        EXPECT_EQ(back.face_no, f);
        EXPECT_EQ(back.orientation, inverse_orientation(nb.orientation));
      }
    }
}

TEST(MeshAdaptive, LocalRefinementProducesHangingFaces)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1); // 8 cells
  std::vector<bool> flags(8, false);
  flags[0] = true;
  mesh.refine(flags);
  EXPECT_EQ(mesh.n_active_cells(), 7u + 8u);

  const auto faces = mesh.build_face_list();
  unsigned int n_hanging = 0;
  for (const auto &f : faces)
    if (f.is_hanging())
    {
      ++n_hanging;
      // fine side is minus: minus cell has higher level
      EXPECT_GT(mesh.cell(f.cell_m).level, mesh.cell(f.cell_p).level);
    }
  // refined corner cell: 3 faces to same-level former siblings, each split
  // into 4 subfaces
  EXPECT_EQ(n_hanging, 12u);
}

TEST(MeshAdaptive, TwoToOneBalanceEnforced)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  // refine the corner cell twice; balance must refine its neighbors once
  std::vector<bool> flags(mesh.n_active_cells(), false);
  flags[0] = true;
  mesh.refine(flags);
  std::vector<bool> flags2(mesh.n_active_cells(), false);
  // find a level-2 corner cell and refine it
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    if (mesh.cell(i).level == 2 && mesh.cell(i).x == 0 && mesh.cell(i).y == 0 &&
        mesh.cell(i).z == 0)
      flags2[i] = true;
  mesh.refine(flags2);

  // verify: no face or edge neighbor differs by more than one level
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    for (unsigned int f = 0; f < 6; ++f)
    {
      const auto nb = mesh.neighbor(i, f); // asserts internally on violation
      if (nb.kind == Mesh::NeighborInfo::Kind::coarser)
      {
        EXPECT_EQ(mesh.cell(nb.cell).level + 1, mesh.cell(i).level);
      }
    }
}

TEST(MeshAdaptive, SubfacePositionsCoverCoarseFace)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  std::vector<bool> flags(8, false);
  flags[0] = true;
  mesh.refine(flags);
  // group hanging faces by their coarse (plus) cell+face; each group must
  // contain all four subface positions
  std::map<std::pair<index_t, unsigned int>, std::set<unsigned int>> groups;
  for (const auto &f : mesh.build_face_list())
    if (f.is_hanging())
      groups[{f.cell_p, f.face_no_p}].insert(f.subface0 + 2 * f.subface1);
  EXPECT_EQ(groups.size(), 3u);
  for (const auto &[key, subs] : groups)
    EXPECT_EQ(subs.size(), 4u);
}

TEST(MeshCrossTree, RotatedTreesRefineConsistently)
{
  // same rotated two-cube setup as the coarse-mesh test
  std::vector<Point> vertices;
  for (unsigned int v = 0; v < 8; ++v)
    vertices.push_back(Point(v & 1, (v >> 1) & 1, (v >> 2) & 1));
  auto add_vertex = [&](const Point &p) {
    for (index_t i = 0; i < vertices.size(); ++i)
      if (norm(vertices[i] - p) < 1e-12)
        return i;
    vertices.push_back(p);
    return index_t(vertices.size() - 1);
  };
  std::vector<std::array<index_t, 8>> cells(2);
  for (unsigned int v = 0; v < 8; ++v)
  {
    const double a = v & 1, b = (v >> 1) & 1, c = (v >> 2) & 1;
    cells[0][v] = v;
    cells[1][v] = add_vertex(Point(1 + c, b, 1 - a));
  }
  Mesh mesh(from_lists(std::move(vertices), std::move(cells)));
  mesh.refine_uniform(2);
  EXPECT_EQ(mesh.n_active_cells(), 128u);

  // every interior face must be consistent from both sides
  unsigned int n_cross = 0;
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    for (unsigned int f = 0; f < 6; ++f)
    {
      const auto nb = mesh.neighbor(i, f);
      if (nb.kind != Mesh::NeighborInfo::Kind::same_level)
        continue;
      const auto back = mesh.neighbor(nb.cell, nb.face_no);
      ASSERT_EQ(back.kind, Mesh::NeighborInfo::Kind::same_level);
      EXPECT_EQ(back.cell, i);
      if (mesh.cell(i).tree != mesh.cell(nb.cell).tree)
      {
        ++n_cross;
        EXPECT_NE(nb.orientation, 0);
      }
    }
  EXPECT_EQ(n_cross, 2u * 16u); // 4x4 cross-tree faces, seen from both sides
}

TEST(MeshCrossTree, HangingAcrossRotatedTreeBoundary)
{
  std::vector<Point> vertices;
  for (unsigned int v = 0; v < 8; ++v)
    vertices.push_back(Point(v & 1, (v >> 1) & 1, (v >> 2) & 1));
  auto add_vertex = [&](const Point &p) {
    for (index_t i = 0; i < vertices.size(); ++i)
      if (norm(vertices[i] - p) < 1e-12)
        return i;
    vertices.push_back(p);
    return index_t(vertices.size() - 1);
  };
  std::vector<std::array<index_t, 8>> cells(2);
  for (unsigned int v = 0; v < 8; ++v)
  {
    const double a = v & 1, b = (v >> 1) & 1, c = (v >> 2) & 1;
    cells[0][v] = v;
    cells[1][v] = add_vertex(Point(1 + c, b, 1 - a));
  }
  Mesh mesh(from_lists(std::move(vertices), std::move(cells)));
  // refine only tree 0: its +x faces hang w.r.t. tree 1
  std::vector<bool> flags = {true, false};
  mesh.refine(flags);
  ASSERT_EQ(mesh.n_active_cells(), 9u);

  unsigned int n_hanging = 0;
  for (const auto &f : mesh.build_face_list())
    if (f.is_hanging())
    {
      ++n_hanging;
      EXPECT_NE(mesh.cell(f.cell_m).tree, mesh.cell(f.cell_p).tree);
      EXPECT_NE(f.orientation, 0);
    }
  EXPECT_EQ(n_hanging, 4u);
}

TEST(MeshPartition, SfcPartitionIsBalancedAndContiguous)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(3); // 512 cells
  const int n_ranks = 7;
  const auto rank = partition_cells(mesh, n_ranks);
  const auto stats = compute_partition_stats(mesh, rank, n_ranks);
  // contiguity in SFC order
  for (std::size_t i = 1; i < rank.size(); ++i)
    EXPECT_GE(rank[i], rank[i - 1]);
  // balance within one cell
  std::size_t mn = 1u << 30, mx = 0;
  for (const auto c : stats.cells_per_rank)
  {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  EXPECT_LE(mx - mn, 1u);
  // SFC locality: each rank talks to a small number of neighbors
  EXPECT_LE(stats.max_neighbors, std::size_t(n_ranks - 1));
  EXPECT_GT(stats.max_cut_faces, 0u);
}
