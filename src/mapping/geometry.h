#pragma once

// Geometry description: a smooth map from each coarse cell's (tree's) unit
// cube to physical space. Following Heltai et al. (paper Section 3.3), the
// analytic geometry is sampled once per active cell on a Gauss-Lobatto
// lattice during setup; all metric terms are computed from that per-cell
// polynomial and the analytic map is never consulted again.

#include <functional>

#include "common/exceptions.h"
#include "common/tensor.h"
#include "mesh/coarse_mesh.h"

namespace dgflow
{
class Geometry
{
public:
  virtual ~Geometry() = default;

  /// Maps reference coordinates within coarse cell @p tree to physical space.
  virtual Point map(index_t tree, const Point &ref) const = 0;
};

/// Standard isoparametric geometry from the coarse-mesh vertices.
class TrilinearGeometry : public Geometry
{
public:
  explicit TrilinearGeometry(const CoarseMesh &mesh) : mesh_(mesh) {}

  Point map(const index_t tree, const Point &ref) const override
  {
    Point p;
    for (unsigned int v = 0; v < 8; ++v)
    {
      double w = 1.;
      for (unsigned int d = 0; d < dim; ++d)
        w *= ((v >> d) & 1) ? ref[d] : (1. - ref[d]);
      p += w * mesh_.vertex_of_cell(tree, v);
    }
    return p;
  }

private:
  const CoarseMesh &mesh_;
};

/// Geometry given by an arbitrary callable (deformations, manufactured
/// geometry tests).
class AnalyticGeometry : public Geometry
{
public:
  using MapFn = std::function<Point(index_t, const Point &)>;

  explicit AnalyticGeometry(MapFn fn) : fn_(std::move(fn)) {}

  Point map(const index_t tree, const Point &ref) const override
  {
    return fn_(tree, ref);
  }

private:
  MapFn fn_;
};

} // namespace dgflow
