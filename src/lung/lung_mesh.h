#pragma once

// Hex-only lung mesh generator (paper Section 3.3, Figure 4): each airway is
// a swept square-section tube of 3x3 cells per cross section (square-to-disc
// mapped) with axial subdivisions keeping the cell aspect ratio near one.
// Bifurcations use a conforming side-branch template: the major child
// continues the parent tube (sharing the outlet section), the minor child
// glues its 4x4 inlet lattice onto a 3x3-face patch of the parent wall. The
// resulting mesh is watertight and hex-only for arbitrary binary trees; the
// junction cells are deformed, reproducing the iteration-count growth the
// paper reports for the lung geometry. See DESIGN.md for the substitution
// rationale versus the paper's merged-cylinder mesher.

#include "lung/airway_tree.h"
#include "mesh/mesh.h"

namespace dgflow
{
struct LungMesh
{
  static constexpr unsigned int wall_id = 0;
  static constexpr unsigned int inlet_id = 1;
  static constexpr unsigned int first_outlet_id = 2;

  CoarseMesh coarse;
  /// boundary id of each terminal airway's outlet (aligned with
  /// AirwayTree::terminal_airways()).
  std::vector<unsigned int> outlet_ids;
  /// airway index and generation of every coarse cell
  std::vector<unsigned int> cell_airway;
  std::vector<unsigned int> cell_generation;

  /// Refinement flags marking all cells of generations <= g (for the local
  /// refinement of the upper airways).
  std::vector<bool> refine_flags_upto_generation(const unsigned int g) const
  {
    std::vector<bool> flags(cell_generation.size());
    for (std::size_t i = 0; i < flags.size(); ++i)
      flags[i] = cell_generation[i] <= g;
    return flags;
  }
};

LungMesh build_lung_mesh(const AirwayTree &tree);

} // namespace dgflow
