#include "lung/lung_mesh.h"

#include <cmath>

#include "common/exceptions.h"

namespace dgflow
{
namespace
{
Point rotate(const Point &v, const Point &axis, const double angle)
{
  const double c = std::cos(angle), s = std::sin(angle);
  return c * v + s * cross(axis, v) + (1. - c) * dot(axis, v) * axis;
}

/// Per-airway sweeping data.
struct TubeGeom
{
  Point c0, c1;   ///< meshing centerline (c0 may sit on the parent wall)
  Point dir;      ///< normalized axis
  Point e1_in;    ///< inlet cross-section frame (perpendicular to dir)
  double twist;   ///< rotation towards the tree's outlet frame
  double radius;
  unsigned int n_ax;
  /// axial parameter of section 1; side branches push their first disc
  /// section clear of the curved parent wall patch
  double first_section_w = 0.;

  double section_w(const unsigned int s) const
  {
    if (s == 0)
      return 0.;
    if (first_section_w <= 0.)
      return double(s) / n_ax;
    return first_section_w +
           (1. - first_section_w) * double(s - 1) / (n_ax - 1);
  }
};

/// Elliptical square-to-disc map: [-1,1]^2 -> unit disc.
void square_to_disc(const double u, const double v, double &x, double &y)
{
  x = u * std::sqrt(1. - 0.5 * v * v);
  y = v * std::sqrt(1. - 0.5 * u * u);
}

Point section_point(const TubeGeom &t, const unsigned int s,
                    const unsigned int i, const unsigned int j)
{
  const double w = t.section_w(s);
  const Point center = t.c0 + w * (t.c1 - t.c0);
  const Point e1 = rotate(t.e1_in, t.dir, t.twist * w);
  const Point e2 = cross(t.dir, e1);
  const double u = 2. * i / 3. - 1., v = 2. * j / 3. - 1.;
  double x, y;
  square_to_disc(u, v, x, y);
  return center + t.radius * (x * e1 + y * e2);
}

double signed_angle(const Point &from, const Point &to, const Point &axis)
{
  return std::atan2(dot(cross(from, to), axis), dot(from, to));
}

/// The square 3x3 cross-section lattice is invariant under quarter turns:
/// reduce the tube twist to [-45 deg, 45 deg].
double reduce_twist(const double twist)
{
  double t = twist;
  while (t > M_PI / 4.)
    t -= M_PI / 2.;
  while (t < -M_PI / 4.)
    t += M_PI / 2.;
  return t;
}

Point project_perp(const Point &v, const Point &dir)
{
  Point p = v - dot(v, dir) * dir;
  const double n = norm(p);
  DGFLOW_ASSERT(n > 1e-10, "degenerate frame projection");
  return (1. / n) * p;
}
} // namespace

LungMesh build_lung_mesh(const AirwayTree &tree)
{
  // target axial cell length in units of the local diameter
  constexpr double axial_spacing_factor = 1. / 3.;
  // axial cells of non-terminal airways are at least this many (the
  // side-branch patch occupies three of them plus clearance)
  constexpr unsigned int min_axial_cells_branching = 5;
  constexpr unsigned int min_axial_cells_terminal = 3;

  const auto &airways = tree.airways();
  LungMesh mesh;

  std::vector<TubeGeom> tubes(airways.size());
  // vertex grids: grid[a][(s * 4 + j) * 4 + i]
  std::vector<std::vector<index_t>> grids(airways.size());

  auto axial_cells = [&](const Airway &a) {
    const unsigned int min_n =
      a.terminal() ? min_axial_cells_terminal : min_axial_cells_branching;
    const double target = a.length() / (axial_spacing_factor * a.diameter);
    return std::max(min_n, static_cast<unsigned int>(std::lround(target)));
  };

  auto add_vertex = [&](const Point &p) {
    mesh.coarse.vertices.push_back(p);
    return static_cast<index_t>(mesh.coarse.vertices.size() - 1);
  };

  // process in tree order: parents precede children
  for (unsigned int a = 0; a < airways.size(); ++a)
  {
    const Airway &aw = airways[a];
    TubeGeom &t = tubes[a];
    t.radius = aw.diameter / 2.;
    t.n_ax = axial_cells(aw);
    grids[a].assign(std::size_t(t.n_ax + 1) * 16, invalid_index);

    const bool is_minor =
      aw.parent >= 0 && airways[aw.parent].child_minor == int(a);

    if (aw.parent < 0)
    {
      // trachea
      t.c0 = aw.start;
      t.c1 = aw.end;
      t.dir = normalize(t.c1 - t.c0);
      t.e1_in = project_perp(aw.e1, t.dir);
      t.twist = 0.;
      for (unsigned int s = 0; s <= t.n_ax; ++s)
        for (unsigned int j = 0; j < 4; ++j)
          for (unsigned int i = 0; i < 4; ++i)
            grids[a][(s * 4 + j) * 4 + i] = add_vertex(section_point(t, s, i, j));
    }
    else if (!is_minor)
    {
      // major child: inherits the parent's outlet section
      const TubeGeom &pt = tubes[aw.parent];
      t.c0 = pt.c1;
      t.c1 = aw.end;
      t.dir = normalize(t.c1 - t.c0);
      // parallel-transport the parent's outlet frame, then twist to the
      // tree's designated outlet frame along the tube
      const Point parent_e1_out = rotate(pt.e1_in, pt.dir, pt.twist);
      t.e1_in = project_perp(parent_e1_out, t.dir);
      t.twist = reduce_twist(
        signed_angle(t.e1_in, project_perp(aw.e1, t.dir), t.dir));

      for (unsigned int j = 0; j < 4; ++j)
        for (unsigned int i = 0; i < 4; ++i)
          grids[a][(0 * 4 + j) * 4 + i] =
            grids[aw.parent][(pt.n_ax * 4 + j) * 4 + i];
      for (unsigned int s = 1; s <= t.n_ax; ++s)
        for (unsigned int j = 0; j < 4; ++j)
          for (unsigned int i = 0; i < 4; ++i)
            grids[a][(s * 4 + j) * 4 + i] = add_vertex(section_point(t, s, i, j));
    }
    else
    {
      // minor child: the inlet lattice is a 4x4 wall patch of the parent
      // tube over axial cells [s0, s0+3]. The wall side (+-e1, +-e2 of the
      // parent frame) is chosen to align best with the branch direction;
      // the child-to-patch index map of each side is right-handed.
      const TubeGeom &pt = tubes[aw.parent];
      DGFLOW_ASSERT(pt.n_ax >= 4, "parent tube too short for a side branch");
      const unsigned int s0 = pt.n_ax - 4;

      const Point parent_e1_out = rotate(pt.e1_in, pt.dir, pt.twist);
      const Point parent_e2_out = cross(pt.dir, parent_e1_out);
      const Point branch_dir = normalize(aw.end - aw.start);
      const double a1 = dot(branch_dir, parent_e1_out);
      const double a2 = dot(branch_dir, parent_e2_out);
      // side 0: +e1 (i=3), 1: -e1 (i=0), 2: +e2 (j=3), 3: -e2 (j=0)
      const unsigned int side =
        std::abs(a1) >= std::abs(a2) ? (a1 >= 0 ? 0 : 1) : (a2 >= 0 ? 2 : 3);

      // parent lattice index of patch point (ic, jc), right-handed per side
      auto patch_index = [&](const unsigned int ic, const unsigned int jc) {
        switch (side)
        {
          case 0: // i = 3: (i_c -> +e2, j_c -> axis)
            return ((s0 + jc) * 4 + ic) * 4 + 3;
          case 1: // i = 0: (i_c -> -e2, j_c -> axis)
            return ((s0 + jc) * 4 + (3 - ic)) * 4 + 0;
          case 2: // j = 3: (i_c -> axis, j_c -> +e1)
            return ((s0 + ic) * 4 + 3) * 4 + jc;
          default: // j = 0: (i_c -> +e1, j_c -> axis)
            return ((s0 + jc) * 4 + 0) * 4 + ic;
        }
      };
      // direction of the child's i_c axis in the parent frame
      const Point ic_dir = side == 0   ? parent_e2_out
                           : side == 1 ? -parent_e2_out
                           : side == 2 ? pt.dir
                                       : parent_e1_out;

      Point patch_center;
      for (unsigned int jc = 0; jc < 4; ++jc)
        for (unsigned int ic = 0; ic < 4; ++ic)
        {
          const index_t vid = grids[aw.parent][patch_index(ic, jc)];
          DGFLOW_ASSERT(vid != invalid_index, "patch vertex missing");
          patch_center += 0.0625 * mesh.coarse.vertices[vid];
        }
      t.c0 = patch_center;
      t.c1 = aw.end;
      t.dir = normalize(t.c1 - t.c0);
      t.e1_in = project_perp(ic_dir, t.dir);
      t.twist = reduce_twist(
        signed_angle(t.e1_in, project_perp(aw.e1, t.dir), t.dir));

      for (unsigned int jc = 0; jc < 4; ++jc)
        for (unsigned int ic = 0; ic < 4; ++ic)
          grids[a][(0 * 4 + jc) * 4 + ic] =
            grids[aw.parent][patch_index(ic, jc)];

      // choose the first disc section's axial offset adaptively: branches
      // leave the parent wall at a shallow angle, so the first section must
      // move far enough that every junction-layer cell stays right-handed
      const double L = norm(t.c1 - t.c0);
      const double base = 1.2 * t.radius / L;
      t.first_section_w = std::min(0.45, base);
      for (int attempt = 0; attempt < 6; ++attempt)
      {
        bool positive = true;
        for (unsigned int j = 0; j < 3 && positive; ++j)
          for (unsigned int i = 0; i < 3 && positive; ++i)
          {
            Point corners[8];
            for (unsigned int v = 0; v < 8; ++v)
            {
              const unsigned int di = v & 1, dj = (v >> 1) & 1,
                                 ds = (v >> 2) & 1;
              corners[v] =
                ds == 0
                  ? mesh.coarse.vertices[grids[a][((j + dj) * 4 + (i + di))]]
                  : section_point(t, 1, i + di, j + dj);
            }
            // corner Jacobians of the trilinear cell (the extremal values)
            const double scale = t.radius / 1.5;
            for (unsigned int v = 0; v < 8 && positive; ++v)
            {
              Tensor2<double> J;
              for (unsigned int d = 0; d < 3; ++d)
              {
                const unsigned int step = 1u << d;
                const Point e =
                  corners[v | step] - corners[v & ~step];
                for (unsigned int r = 0; r < 3; ++r)
                  J[r][d] = e[r];
              }
              if (determinant(J) < 0.01 * scale * scale * scale)
                positive = false;
            }
          }
        if (positive)
          break;
        t.first_section_w = std::min(0.75, t.first_section_w * 1.35 + 0.03);
      }

      for (unsigned int s = 1; s <= t.n_ax; ++s)
        for (unsigned int j = 0; j < 4; ++j)
          for (unsigned int i = 0; i < 4; ++i)
            grids[a][(s * 4 + j) * 4 + i] = add_vertex(section_point(t, s, i, j));
    }
  }

  // cells and boundary ids
  const auto terminals = tree.terminal_airways();
  mesh.outlet_ids.resize(terminals.size());
  std::vector<unsigned int> outlet_of_airway(airways.size(), 0);
  for (unsigned int ti = 0; ti < terminals.size(); ++ti)
  {
    mesh.outlet_ids[ti] = LungMesh::first_outlet_id + ti;
    outlet_of_airway[terminals[ti]] = mesh.outlet_ids[ti];
  }

  for (unsigned int a = 0; a < airways.size(); ++a)
  {
    const Airway &aw = airways[a];
    const TubeGeom &t = tubes[a];
    for (unsigned int s = 0; s < t.n_ax; ++s)
      for (unsigned int j = 0; j < 3; ++j)
        for (unsigned int i = 0; i < 3; ++i)
        {
          CoarseMesh::Cell cell;
          for (unsigned int v = 0; v < 8; ++v)
          {
            const unsigned int di = v & 1, dj = (v >> 1) & 1, ds = (v >> 2) & 1;
            cell.vertices[v] = grids[a][((s + ds) * 4 + (j + dj)) * 4 + (i + di)];
            DGFLOW_ASSERT(cell.vertices[v] != invalid_index,
                          "unassigned lung mesh vertex");
          }
          mesh.coarse.cells.push_back(cell);
          std::array<unsigned int, 6> bids{};
          bids.fill(LungMesh::wall_id);
          if (a == 0 && s == 0)
            bids[4] = LungMesh::inlet_id;
          if (aw.terminal() && s == t.n_ax - 1)
            bids[5] = outlet_of_airway[a];
          mesh.coarse.boundary_ids.push_back(bids);
          mesh.cell_airway.push_back(a);
          mesh.cell_generation.push_back(aw.generation);
        }
  }

  mesh.coarse.compute_connectivity();
  return mesh;
}

} // namespace dgflow
