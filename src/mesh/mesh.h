#pragma once

// Forest-of-octrees mesh (p4est-style, paper Section 3.3): each coarse cell
// is the root of an octree whose leaves are the active cells. Supports
// uniform and local refinement with 2:1 face/edge balance; local refinement
// produces hanging faces, reported through build_face_list() with the
// subface information the DG face integrals and CFE constraints need.
//
// Cell anchors are integer lattice coordinates in [0, 2^level)^3 within the
// tree's unit cube; active cells are stored in space-filling-curve order
// (tree major, Morton within the tree), which is also the partition order.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mesh/coarse_mesh.h"

namespace dgflow
{
/// Location of a cell within the forest.
struct TreeCoord
{
  index_t tree;
  std::uint8_t level;
  std::uint32_t x, y, z;

  std::uint32_t coord(const unsigned int d) const
  {
    return d == 0 ? x : d == 1 ? y : z;
  }
};

class Mesh
{
public:
  static constexpr unsigned int max_level = 11;

  explicit Mesh(CoarseMesh coarse);

  const CoarseMesh &coarse() const { return coarse_; }

  index_t n_active_cells() const
  {
    return static_cast<index_t>(cells_.size());
  }

  const TreeCoord &cell(const index_t i) const { return cells_[i]; }

  /// Refines every active cell @p n times.
  void refine_uniform(const unsigned int n = 1);

  /// Refines all flagged cells, then adds refinements until the mesh is 2:1
  /// balanced across faces and edges.
  void refine(const std::vector<bool> &flags);

  /// Global coarsening (paper Section 3.4): returns the mesh in which every
  /// group of eight active siblings is replaced by its parent. Cells at
  /// level 0 or with missing siblings are kept. Returns an empty optional-
  /// like flag via n_active_cells comparison when nothing can be coarsened.
  Mesh coarsened() const;

  /// Exposes the active-cell lookup: index of the active cell at the given
  /// location, or invalid_index.
  index_t find_cell(const index_t tree, const unsigned int level,
                    const std::array<std::uint32_t, 3> &coords) const
  {
    return find_active(tree, level, coords);
  }

  /// Lower corner of the cell in the tree's unit-cube coordinates.
  Point cell_lower_corner(const index_t i) const
  {
    const auto &c = cells_[i];
    const double h = 1. / (1u << c.level);
    return Point(c.x * h, c.y * h, c.z * h);
  }

  /// Edge length of the cell in tree coordinates.
  double cell_reference_size(const index_t i) const
  {
    return 1. / (1u << cells_[i].level);
  }

  struct NeighborInfo
  {
    enum class Kind
    {
      boundary,
      same_level,
      coarser,
      finer
    };
    Kind kind = Kind::boundary;
    index_t cell = invalid_index; ///< neighbor (same_level / coarser)
    std::array<index_t, 4> children{
      {invalid_index, invalid_index, invalid_index,
       invalid_index}}; ///< finer: the four face-adjacent children
    unsigned char face_no = 0;     ///< the neighbor's local face number
    unsigned char orientation = 0; ///< my face coords -> neighbor face coords
    /// For coarser neighbors: which half of the neighbor's face I occupy,
    /// per neighbor-face direction (in the *neighbor's* coordinates).
    std::array<unsigned char, 2> subface{{0, 0}};
    unsigned int boundary_id = default_boundary_id;
  };

  NeighborInfo neighbor(const index_t cell_index,
                        const unsigned int face) const;

  /// One entry per unique mesh face. For hanging faces the fine cell is the
  /// minus side and one entry exists per subface; subface0/1 give the
  /// position within the coarse (plus) face in the plus side's face
  /// directions, or 255 when the face is conforming.
  struct Face
  {
    index_t cell_m = invalid_index;
    index_t cell_p = invalid_index; ///< invalid for boundary faces
    unsigned char face_no_m = 0;
    unsigned char face_no_p = 0;
    unsigned char orientation = 0; ///< minus face coords -> plus face coords
    unsigned char subface0 = 255, subface1 = 255;
    unsigned int boundary_id = default_boundary_id;

    bool is_boundary() const { return cell_p == invalid_index; }
    bool is_hanging() const { return subface0 != 255; }
  };

  std::vector<Face> build_face_list() const;

  /// Number of active cells per refinement level (diagnostics).
  std::array<index_t, max_level + 1> level_histogram() const;

private:
  static std::uint64_t pack(const index_t tree, const unsigned int level,
                            const std::uint32_t x, const std::uint32_t y,
                            const std::uint32_t z)
  {
    return (std::uint64_t(tree) << 40) | (std::uint64_t(level) << 36) |
           (std::uint64_t(x) << 24) | (std::uint64_t(y) << 12) |
           std::uint64_t(z);
  }
  static std::uint64_t pack(const TreeCoord &c)
  {
    return pack(c.tree, c.level, c.x, c.y, c.z);
  }

  /// Transforms integer coordinates at resolution 2^level that exceed the
  /// tree bounds in exactly direction @p d (by any positive penetration)
  /// across coarse face 2*d+s into the neighbor tree's frame. Returns false
  /// at domain boundaries.
  bool transform_across_coarse_face(const index_t tree, const unsigned int d,
                                    const unsigned int s,
                                    const unsigned int level,
                                    std::array<std::int64_t, 3> &coords,
                                    index_t &neighbor_tree) const;

  /// Resolves possibly out-of-range coordinates into (tree, in-range coords),
  /// walking across up to three coarse faces (face, edge, corner neighbors).
  /// Returns false if a domain boundary is hit.
  bool canonicalize(index_t tree, const unsigned int level,
                    std::array<std::int64_t, 3> coords, index_t &out_tree,
                    std::array<std::uint32_t, 3> &out_coords) const;

  void rebuild_index();

  index_t find_active(const index_t tree, const unsigned int level,
                      const std::array<std::uint32_t, 3> &c) const;

  bool is_ancestor(const index_t tree, const unsigned int level,
                   const std::array<std::uint32_t, 3> &c) const;

  CoarseMesh coarse_;
  std::vector<TreeCoord> cells_;
  std::unordered_map<std::uint64_t, index_t> active_index_;
  std::unordered_set<std::uint64_t> ancestors_;
};

/// Morton (z-order) key of a cell scaled to the finest level; cells_ are
/// kept sorted by (tree, morton_key).
std::uint64_t morton_key(const TreeCoord &c);

} // namespace dgflow
