#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "mesh/generators.h"
#include "matrixfree/field_tools.h"
#include "operators/convective_operator.h"
#include "operators/divergence_gradient.h"
#include "operators/helmholtz_operator.h"
#include "operators/mass_operator.h"
#include "operators/penalty_operator.h"

using namespace dgflow;

namespace
{
FlowBoundaryMap mixed_bc()
{
  // x+ face is a pressure outlet, everything else no-slip walls
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [](const Point &, double) { return 0.; };
    }
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [](const Point &, double) { return Tensor1<double>(); };
    }
    bc[id] = b;
  }
  return bc;
}

struct OpSetup
{
  Mesh mesh;
  AnalyticGeometry geom;
  MatrixFree<double> mf;
  FlowBoundaryMap bc;
  static constexpr unsigned int k = 3;

  OpSetup()
    : mesh(unit_cube()),
      geom([](index_t, const Point &p) {
        return Point(p[0] + 0.04 * p[1] * p[2], p[1] - 0.03 * p[0] * p[2],
                     p[2] + 0.02 * p[0] * p[1]);
      }),
      bc(mixed_bc())
  {
    mesh.refine_uniform(1);
    MatrixFree<double>::AdditionalData data;
    data.degrees = {k, k - 1};
    data.n_q_points_1d = {k + 1, k, k + 2};
    mf.reinit(mesh, geom, data);
  }
};

Vector<double> random_vec(const std::size_t n, const unsigned int seed)
{
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1., 1.);
  Vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = dist(rng);
  return v;
}
} // namespace

TEST(DivergenceGradient, NegativeAdjointsWithHomogeneousData)
{
  OpSetup s;
  DivergenceOperator<double> div;
  GradientOperator<double> grad;
  div.reinit(s.mf, 0, 1, 0, s.bc);
  grad.reinit(s.mf, 0, 1, 0, s.bc);

  const auto u = random_vec(s.mf.n_dofs(0, 3), 1);
  const auto p = random_vec(s.mf.n_dofs(1, 1), 2);
  Vector<double> Du, Gp;
  div.vmult(Du, u);
  grad.vmult(Gp, p);
  const double a = Gp.dot(u), b = Du.dot(p);
  EXPECT_NEAR(a, -b, 1e-11 * std::abs(a));
}

TEST(DivergenceGradient, DivergenceOfLinearSolenoidalFieldIsZero)
{
  OpSetup s;
  DivergenceOperator<double> div;
  div.reinit(s.mf, 0, 1, 0, s.bc);

  // u = (x + 2y, y - z, x - 2z) is linear and divergence-free. The wall
  // faces take their central flux from the boundary data, so apply with
  // the matching data g = u makes the weak divergence vanish.
  FlowBoundaryMap bc;
  const auto uf = [](const Point &p, double) {
    return Tensor1<double>(p[0] + 2 * p[1], p[1] - p[2], -2 * p[2] + p[0]);
  };
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [](const Point &, double) { return 0.; };
    }
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = uf;
    }
    bc[id] = b;
  }
  div.reinit(s.mf, 0, 1, 0, bc);

  Vector<double> u;
  interpolate_vector(s.mf, 0, 0,
                     [&](const Point &p) { return uf(p, 0.); }, u);
  Vector<double> Du;
  div.apply(Du, u, 0.);
  EXPECT_NEAR(double(Du.l2_norm()), 0., 1e-11);
}

TEST(DivergenceGradient, ApplyWithZeroDataEqualsVmult)
{
  // homogeneous data through the flow binders: walls without velocity
  // data, a pressure outlet whose data is 0
  OpSetup s;
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [](const Point &, double) { return 0.; };
    }
    bc[id] = b;
  }
  DivergenceOperator<double> div;
  GradientOperator<double> grad;
  div.reinit(s.mf, 0, 1, 0, bc);
  grad.reinit(s.mf, 0, 1, 0, bc);

  const auto u = random_vec(s.mf.n_dofs(0, 3), 3);
  const auto p = random_vec(s.mf.n_dofs(1, 1), 4);
  Vector<double> applied, multiplied;
  div.apply(applied, u, 0.7);
  div.vmult(multiplied, u);
  ASSERT_EQ(applied.size(), multiplied.size());
  EXPECT_EQ(std::memcmp(applied.data(), multiplied.data(),
                        applied.size() * sizeof(double)),
            0);
  grad.apply(applied, p, 0.7);
  grad.vmult(multiplied, p);
  ASSERT_EQ(applied.size(), multiplied.size());
  EXPECT_EQ(std::memcmp(applied.data(), multiplied.data(),
                        applied.size() * sizeof(double)),
            0);
}

TEST(ConvectiveOperatorTest, VanishesForConstantField)
{
  OpSetup s;
  const Tensor1<double> c(0.7, -0.3, 0.2);
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    b.kind = FlowBoundary::Kind::velocity_dirichlet;
    b.velocity = [c](const Point &, double) { return c; };
    bc[id] = b;
  }
  ConvectiveOperator<double> conv;
  conv.reinit(s.mf, 0, 2, bc);

  Vector<double> u;
  interpolate_vector(s.mf, 0, 0, [&](const Point &) { return c; }, u);
  Vector<double> Cu;
  conv.apply(Cu, u, 0.);
  EXPECT_NEAR(double(Cu.linfty_norm()), 0., 1e-12);
}

TEST(ConvectiveOperatorTest, EnergyConsistency)
{
  // with upwind stabilization, <C(u), u> >= boundary production for
  // divergence-free u with homogeneous BCs; here we only verify the operator
  // produces finite, mesh-consistent output and reacts to the sign of u
  OpSetup s;
  ConvectiveOperator<double> conv;
  conv.reinit(s.mf, 0, 2, s.bc);
  Vector<double> u;
  interpolate_vector(s.mf, 0, 0,
                     [](const Point &p) {
                       return Tensor1<double>(std::sin(p[1]), std::cos(p[2]),
                                              p[0] * p[1]);
                     },
                     u);
  Vector<double> Cu, Cmu;
  conv.apply(Cu, u, 0.);
  Vector<double> mu(u.size());
  mu.equ(-1., u);
  conv.apply(Cmu, mu, 0.);
  // C is quadratic: C(-u) = C(u) up to the Lax-Friedrichs term sign; check
  // the quadratic scaling C(2u) = 4 C(u) for the interior-dominated part
  Vector<double> u2(u.size()), Cu2;
  u2.equ(2., u);
  conv.apply(Cu2, u2, 0.);
  // boundary Dirichlet data is zero here, so C is exactly homogeneous of
  // degree 2
  Vector<double> diff(u.size());
  diff.equ(1., Cu2, -4., Cu);
  EXPECT_NEAR(double(diff.l2_norm()), 0., 1e-10 * double(Cu2.l2_norm()));
}

TEST(HelmholtzOperatorTest, SymmetricPositiveDefinite)
{
  OpSetup s;
  HelmholtzOperator<double> helm;
  helm.reinit(s.mf, 0, 0, s.bc, 0.1);
  helm.set_mass_factor(2.5);

  const auto u = random_vec(helm.n_dofs(), 3);
  const auto v = random_vec(helm.n_dofs(), 4);
  Vector<double> Au, Av;
  helm.vmult(Au, u);
  helm.vmult(Av, v);
  const double a = Au.dot(v), b = Av.dot(u);
  EXPECT_NEAR(a, b, 1e-11 * std::abs(a));
  EXPECT_GT(Au.dot(u), 0.);
}

TEST(HelmholtzOperatorTest, DiagonalMatchesProbing)
{
  // every DoF of all three components: the scalar diagonal must land in
  // each component block of each cell
  OpSetup s;
  HelmholtzOperator<double> helm;
  helm.reinit(s.mf, 0, 0, s.bc, 0.05);
  for (const double mass_factor : {0., 1.})
  {
    helm.set_mass_factor(mass_factor);
    Vector<double> diag;
    helm.compute_diagonal(diag);
    ASSERT_EQ(diag.size(), helm.n_dofs());

    Vector<double> e(helm.n_dofs()), Ae;
    e = 0.;
    for (std::size_t i = 0; i < helm.n_dofs(); ++i)
    {
      e[i] = 1.;
      helm.vmult(Ae, e);
      e[i] = 0.;
      ASSERT_NEAR(diag[i], Ae[i], 1e-10 * std::abs(Ae[i]))
        << "dof " << i << " at mass factor " << mass_factor;
    }
  }
}

TEST(HelmholtzOperatorTest, DirichletDataIsConsistentWithTheOperator)
{
  // the viscous operator (mass factor 0) is SIP-consistent: a linear
  // velocity lies in the space and is integrated exactly on an affine mesh,
  // so V I(u) equals the Dirichlet data terms of u entry by entry
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  AnalyticGeometry affine([](index_t, const Point &p) {
    return Point(p[0] + 0.2 * p[1], p[1] + 0.1 * p[2] - 0.05 * p[0],
                 p[2] - 0.15 * p[0]);
  });
  const unsigned int k = OpSetup::k;
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {k, k - 1};
  data.n_q_points_1d = {k + 1, k, k + 2};
  mf.reinit(mesh, affine, data);

  const auto u = [](const Point &p, double) {
    return Tensor1<double>(0.3 + p[0] - 2. * p[1], p[2] - 0.7 * p[0],
                           1. + 0.5 * p[1] + p[2]);
  };
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    b.velocity = u;
    bc[id] = b;
  }
  HelmholtzOperator<double> helm;
  helm.reinit(mf, 0, 0, bc, 0.05);
  helm.set_mass_factor(0.);

  Vector<double> Iu, AIu, rhs(helm.n_dofs());
  interpolate_vector(mf, 0, 0, [&](const Point &p) { return u(p, 0.); }, Iu);
  helm.vmult(AIu, Iu);
  helm.add_boundary_rhs(rhs, 0.);
  const double scale = rhs.linfty_norm();
  ASSERT_GT(scale, 0.);
  for (std::size_t i = 0; i < rhs.size(); ++i)
    ASSERT_NEAR(AIu[i], rhs[i], 1e-12 * scale) << "dof " << i;
}

TEST(PenaltyOperatorTest, ReducesToMassForZeroDt)
{
  OpSetup s;
  PenaltyOperator<double> pen;
  pen.reinit(s.mf, 0, 0);
  Vector<double> u;
  interpolate_vector(s.mf, 0, 0,
                     [](const Point &p) {
                       return Tensor1<double>(p[0] * p[0], p[1], -p[2]);
                     },
                     u);
  pen.update(u, 0.);
  Vector<double> Pu, Mu;
  pen.vmult(Pu, u);
  MassOperator<double, 3> mass;
  mass.reinit(s.mf, 0, 0);
  mass.vmult(Mu, u);
  for (std::size_t i = 0; i < u.size(); ++i)
    ASSERT_NEAR(Pu[i], Mu[i], 1e-12);
}

TEST(PenaltyOperatorTest, SymmetricAndPenalizesDivergence)
{
  OpSetup s;
  PenaltyOperator<double> pen;
  pen.reinit(s.mf, 0, 0);
  Vector<double> uref;
  interpolate_vector(s.mf, 0, 0,
                     [](const Point &) { return Tensor1<double>(1, 1, 1); },
                     uref);
  pen.update(uref, 0.1);

  const auto u = random_vec(pen.n_dofs(), 5);
  const auto v = random_vec(pen.n_dofs(), 6);
  Vector<double> Au, Av;
  pen.vmult(Au, u);
  pen.vmult(Av, v);
  EXPECT_NEAR(Au.dot(v), Av.dot(u), 1e-11 * std::abs(Au.dot(v)));

  // a strongly divergent field is penalized more than under pure mass
  Vector<double> udiv;
  interpolate_vector(s.mf, 0, 0,
                     [](const Point &p) {
                       return Tensor1<double>(p[0], p[1], p[2]);
                     },
                     udiv);
  Vector<double> Pu, Mu;
  pen.vmult(Pu, udiv);
  MassOperator<double, 3> mass;
  mass.reinit(s.mf, 0, 0);
  mass.vmult(Mu, udiv);
  EXPECT_GT(Pu.dot(udiv), Mu.dot(udiv) * 1.0001);
}
