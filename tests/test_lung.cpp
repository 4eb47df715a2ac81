#include <gtest/gtest.h>

#include <cmath>

#include "lung/lung_mesh.h"
#include "lung/ventilation.h"
#include "matrixfree/field_tools.h"

using namespace dgflow;

TEST(AirwayTreeTest, CountsAndGenerations)
{
  AirwayTreeParameters prm;
  prm.n_generations = 5;
  const AirwayTree tree = AirwayTree::generate(prm);
  // full binary tree of generations 0..5: 2^6 - 1 airways, 2^5 terminal
  EXPECT_EQ(tree.airways().size(), 63u);
  EXPECT_EQ(tree.n_terminal(), 32u);
  for (const auto &a : tree.airways())
    EXPECT_LE(a.generation, 5u);
}

TEST(AirwayTreeTest, MorphometricScaling)
{
  AirwayTreeParameters prm;
  prm.n_generations = 6;
  prm.jitter = 0.;
  const AirwayTree tree = AirwayTree::generate(prm);
  for (const auto &a : tree.airways())
  {
    EXPECT_NEAR(a.diameter,
                prm.trachea_diameter *
                  std::pow(prm.diameter_ratio, double(a.generation)),
                1e-12);
    if (a.generation > 0)
    {
      EXPECT_NEAR(a.length(), prm.length_to_diameter * a.diameter,
                  1e-12 + prm.jitter * a.length());
    }
    // frames orthonormal and perpendicular to the axis
    EXPECT_NEAR(norm(a.e1), 1., 1e-12);
    EXPECT_NEAR(dot(a.e1, a.e2), 0., 1e-12);
    EXPECT_NEAR(dot(a.e1, a.direction()), 0., 1e-10);
  }
}

TEST(AirwayTreeTest, ResistanceMatchesClosedForm)
{
  AirwayTreeParameters prm;
  prm.n_generations = 3;
  prm.jitter = 0.;
  const AirwayTree tree = AirwayTree::generate(prm);
  const double mu = 1.2 * 1.7e-5;
  // one-generation subtree: R(branch at gen 3)/1 summed with halving
  const double r3 = tree.subtree_resistance(mu, 3, 3);
  const double d3 = prm.trachea_diameter * std::pow(prm.diameter_ratio, 3.);
  EXPECT_NEAR(r3,
              AirwayTree::airway_resistance(
                mu, prm.length_to_diameter * d3, d3),
              1e-8 * r3);
  // two generations: add half of the next generation's branch resistance
  const double r34 = tree.subtree_resistance(mu, 3, 4);
  const double d4 = d3 * prm.diameter_ratio;
  EXPECT_NEAR(r34,
              r3 + 0.5 * AirwayTree::airway_resistance(
                           mu, prm.length_to_diameter * d4, d4),
              1e-8 * r34);
}

TEST(AirwayTreeTest, PhysiologicalTotalResistance)
{
  // the airway share of the total resistance should be of the order of the
  // physiological 0.12 kPa s/l (80% of 0.15); the idealized symmetric
  // morphometry lands in the right decade
  AirwayTreeParameters prm;
  prm.n_generations = 11;
  const AirwayTree tree = AirwayTree::generate(prm);
  const double mu = 1.2 * 1.7e-5;
  const double R = tree.total_resistance(mu, 25);
  EXPECT_GT(R, 0.01e3 / liter);
  EXPECT_LT(R, 1.0e3 / liter);
}

class LungMeshTest : public ::testing::TestWithParam<unsigned int>
{};

TEST_P(LungMeshTest, BuildsWatertightManifoldMesh)
{
  AirwayTreeParameters prm;
  prm.n_generations = GetParam();
  const AirwayTree tree = AirwayTree::generate(prm);
  // compute_connectivity inside asserts manifoldness and right-handedness
  const LungMesh lung = build_lung_mesh(tree);
  EXPECT_GT(lung.coarse.cells.size(), 9u * 3u * tree.airways().size());
  EXPECT_EQ(lung.outlet_ids.size(), tree.n_terminal());
  EXPECT_EQ(lung.cell_airway.size(), lung.coarse.cells.size());
}

TEST_P(LungMeshTest, BoundaryIdsCoverInletAndOutlets)
{
  AirwayTreeParameters prm;
  prm.n_generations = GetParam();
  const AirwayTree tree = AirwayTree::generate(prm);
  const LungMesh lung = build_lung_mesh(tree);

  std::map<unsigned int, unsigned int> face_count;
  for (index_t c = 0; c < lung.coarse.n_cells(); ++c)
    for (unsigned int f = 0; f < 6; ++f)
    {
      const unsigned int id = lung.coarse.boundary_ids[c][f];
      if (id != interior_face_id)
        ++face_count[id];
    }
  EXPECT_EQ(face_count[LungMesh::inlet_id], 9u);
  for (const unsigned int id : lung.outlet_ids)
    EXPECT_EQ(face_count[id], 9u) << "outlet id " << id;
  EXPECT_GT(face_count[LungMesh::wall_id], 0u);
}

INSTANTIATE_TEST_SUITE_P(Generations, LungMeshTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(LungMeshGeometry, MetricTermsAreValidThroughMatrixFree)
{
  // building MatrixFree runs the positive-Jacobian and two-sided face
  // consistency assertions over the whole lung mesh including junctions
  AirwayTreeParameters prm;
  prm.n_generations = 2;
  const AirwayTree tree = AirwayTree::generate(prm);
  const LungMesh lung = build_lung_mesh(tree);
  Mesh mesh(lung.coarse);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.geometry_degree = 1; // lung geometry is vertex-based (trilinear)
  mf.reinit(mesh, geom, data);

  // the mesh volume should be close to the sum of the tube volumes
  double tube_volume = 0;
  for (const auto &a : tree.airways())
    tube_volume += M_PI * 0.25 * a.diameter * a.diameter * a.length();
  const double mesh_volume = domain_volume(mf);
  EXPECT_GT(mesh_volume, 0.55 * tube_volume);
  EXPECT_LT(mesh_volume, 1.3 * tube_volume);
}

TEST(LungMeshGeometry, SupportsLocalRefinementOfUpperAirways)
{
  AirwayTreeParameters prm;
  prm.n_generations = 2;
  const AirwayTree tree = AirwayTree::generate(prm);
  const LungMesh lung = build_lung_mesh(tree);
  Mesh mesh(lung.coarse);
  const auto flags = lung.refine_flags_upto_generation(0);
  mesh.refine(flags);
  unsigned int n_hanging = 0;
  for (const auto &f : mesh.build_face_list())
    n_hanging += f.is_hanging() ? 1 : 0;
  EXPECT_GT(n_hanging, 0u);
  EXPECT_GT(mesh.n_active_cells(), lung.coarse.n_cells());
}

TEST(VentilationModelTest, OutletParametersFollowTheParallelRule)
{
  AirwayTreeParameters tp;
  tp.n_generations = 3;
  tp.jitter = 0.;
  const AirwayTree tree = AirwayTree::generate(tp);
  LungModelParameters lung;
  VentilatorSettings vent;
  const VentilationModel model(tree, lung, vent);

  ASSERT_EQ(model.n_outlets(), 8u);
  // uniform compliance distribution
  for (unsigned int o = 0; o < model.n_outlets(); ++o)
    EXPECT_NEAR(model.outlet_compliance(o), lung.total_compliance / 8.,
                1e-18);
  // symmetric tree: all outlet resistances equal and dominated by the
  // prescribed tissue share in parallel
  double inv = 0;
  for (unsigned int o = 0; o < model.n_outlets(); ++o)
    inv += 1. / model.outlet_resistance(o);
  const double parallel_R = 1. / inv;
  EXPECT_GT(parallel_R, lung.tissue_fraction * lung.total_resistance);
}

TEST(VentilationModelTest, VentilatorWaveformAndTubusDrop)
{
  AirwayTreeParameters tp;
  tp.n_generations = 1;
  const AirwayTree tree = AirwayTree::generate(tp);
  VentilatorSettings vent;
  vent.dp = 10 * cmH2O;
  const VentilationModel model(tree, LungModelParameters(), vent);

  EXPECT_NEAR(model.ventilator_pressure(0.1), 10 * cmH2O, 1e-12);
  EXPECT_NEAR(model.ventilator_pressure(1.5), 0., 1e-12); // exhale
  EXPECT_NEAR(model.ventilator_pressure(3.2), 10 * cmH2O, 1e-12);
  // no flow yet: no tubus drop
  EXPECT_NEAR(model.inlet_pressure(0.1), 10 * cmH2O, 1e-12);
}

TEST(VentilationModelTest, CompartmentIntegratesVolumeAndPressure)
{
  AirwayTreeParameters tp;
  tp.n_generations = 1;
  tp.jitter = 0.;
  const AirwayTree tree = AirwayTree::generate(tp);
  LungModelParameters lung;
  VentilationModel model(tree, lung, VentilatorSettings());

  // constant inflow into both outlets for 0.1 s
  const double q = 0.1 * liter;
  std::vector<double> fluxes(2, q);
  const double dt = 1e-3;
  for (int i = 0; i < 100; ++i)
    model.update(i * dt, dt, 2 * q, fluxes);
  const double V = q * 0.1;
  const double expected_p =
    model.outlet_resistance(0) * q + V / model.outlet_compliance(0);
  EXPECT_NEAR(model.outlet_pressure(0), expected_p, 1e-8 * expected_p);
  EXPECT_NEAR(model.inhaled_volume_current_cycle(), 2 * V, 1e-12);
}

TEST(VentilationModelTest, ControllerConvergesOnSurrogate)
{
  // 0D surrogate: treat the whole system as one RC; the controller should
  // bring the tidal volume to the target within a few cycles
  AirwayTreeParameters tp;
  tp.n_generations = 2;
  tp.jitter = 0.;
  const AirwayTree tree = AirwayTree::generate(tp);
  LungModelParameters lung;
  VentilatorSettings vent;
  vent.dp = 4 * cmH2O; // deliberately too low
  VentilationModel model(tree, lung, vent);

  const double dt = 2e-4;
  const unsigned int n_out = model.n_outlets();
  std::vector<double> fluxes(n_out, 0.);
  std::vector<double> volume(n_out, 0.);
  // quasi-static surrogate: the inlet pressure drives each outlet's RC
  // compartment directly, q = (p_in - V/C) / R solved per step
  double vt = 0;
  for (unsigned int cycle = 0; cycle < 10; ++cycle)
  {
    for (double t = cycle * 3.; t < (cycle + 1) * 3. - 1e-9; t += dt)
    {
      double total = 0;
      for (unsigned int o = 0; o < n_out; ++o)
      {
        const double q =
          (model.inlet_pressure(t) - volume[o] / model.outlet_compliance(o)) /
          model.outlet_resistance(o);
        fluxes[o] = q;
        volume[o] += dt * q;
        total += q;
      }
      model.update(t, dt, total, fluxes);
    }
    vt = model.tidal_volume_last_cycle();
  }
  EXPECT_NEAR(vt, 500e-6, 0.1 * 500e-6)
    << "tidal volume " << vt / liter << " l";
}
