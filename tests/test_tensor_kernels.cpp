#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fem/tensor_kernels.h"
#include "matrixfree/fe_evaluation.h"
#include "mesh/generators.h"
#include "simd/vectorized_array.h"

using namespace dgflow;

namespace
{
std::mt19937 rng(42);

std::vector<double> random_vector(const std::size_t n)
{
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<double> v(n);
  for (auto &x : v)
    x = dist(rng);
  return v;
}

/// Reference implementation: dense application of M along one direction.
std::vector<double> reference_apply(const std::vector<double> &M,
                                    const unsigned int m, const unsigned int n,
                                    const std::vector<double> &in,
                                    const unsigned int dir,
                                    std::array<unsigned int, 3> e,
                                    const bool transpose)
{
  const unsigned int n_in = transpose ? m : n;
  const unsigned int n_out = transpose ? n : m;
  EXPECT_EQ(e[dir], n_in);
  std::array<unsigned int, 3> eo = e;
  eo[dir] = n_out;
  std::vector<double> out(eo[0] * eo[1] * eo[2], 0.);
  for (unsigned int i2 = 0; i2 < eo[2]; ++i2)
    for (unsigned int i1 = 0; i1 < eo[1]; ++i1)
      for (unsigned int i0 = 0; i0 < eo[0]; ++i0)
      {
        std::array<unsigned int, 3> oi{{i0, i1, i2}};
        double sum = 0;
        for (unsigned int c = 0; c < n_in; ++c)
        {
          std::array<unsigned int, 3> ii = oi;
          ii[dir] = c;
          const double mv =
            transpose ? M[c * n + oi[dir]] : M[oi[dir] * n + c];
          sum += mv * in[(ii[2] * e[1] + ii[1]) * e[0] + ii[0]];
        }
        out[(i2 * eo[1] + i1) * eo[0] + i0] = sum;
      }
  return out;
}
} // namespace

struct KernelCase
{
  unsigned int m, n, dir;
};

class ApplyMatrix1D : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(ApplyMatrix1D, MatchesDenseReference)
{
  const auto [m, n, dir] = GetParam();
  std::array<unsigned int, 3> e{{4, 3, 5}};
  e[dir] = n;
  const auto M = random_vector(m * n);
  const auto in = random_vector(e[0] * e[1] * e[2]);
  const auto ref = reference_apply(M, m, n, in, dir, e, false);

  std::array<unsigned int, 3> eo = e;
  eo[dir] = m;
  std::vector<double> out(eo[0] * eo[1] * eo[2], 0.);
  apply_matrix_1d<false, false>(M.data(), m, n, in.data(), out.data(), dir, e);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], ref[i], 1e-13);

  // additive application accumulates
  apply_matrix_1d<false, true>(M.data(), m, n, in.data(), out.data(), dir, e);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], 2. * ref[i], 1e-13);
}

TEST_P(ApplyMatrix1D, TransposeMatchesDenseReference)
{
  const auto [m, n, dir] = GetParam();
  std::array<unsigned int, 3> e{{4, 3, 5}};
  e[dir] = m; // transpose contracts over rows
  const auto M = random_vector(m * n);
  const auto in = random_vector(e[0] * e[1] * e[2]);
  const auto ref = reference_apply(M, m, n, in, dir, e, true);

  std::array<unsigned int, 3> eo = e;
  eo[dir] = n;
  std::vector<double> out(eo[0] * eo[1] * eo[2], 0.);
  apply_matrix_1d<true, false>(M.data(), m, n, in.data(), out.data(), dir, e);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], ref[i], 1e-13);
}

TEST_P(ApplyMatrix1D, AdjointIdentity)
{
  // <M x, y> == <x, M^T y> for the same direction
  const auto [m, n, dir] = GetParam();
  std::array<unsigned int, 3> ex{{4, 3, 5}}, ey{{4, 3, 5}};
  ex[dir] = n;
  ey[dir] = m;
  const auto M = random_vector(m * n);
  const auto x = random_vector(ex[0] * ex[1] * ex[2]);
  const auto y = random_vector(ey[0] * ey[1] * ey[2]);

  std::vector<double> Mx(y.size());
  apply_matrix_1d<false, false>(M.data(), m, n, x.data(), Mx.data(), dir, ex);
  std::vector<double> Mty(x.size());
  apply_matrix_1d<true, false>(M.data(), m, n, y.data(), Mty.data(), dir, ey);

  double a = 0, b = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    a += Mx[i] * y[i];
  for (std::size_t i = 0; i < x.size(); ++i)
    b += x[i] * Mty[i];
  EXPECT_NEAR(a, b, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
  Shapes, ApplyMatrix1D,
  ::testing::Values(KernelCase{4, 4, 0}, KernelCase{4, 4, 1},
                    KernelCase{4, 4, 2}, KernelCase{6, 4, 0},
                    KernelCase{6, 4, 1}, KernelCase{6, 4, 2},
                    KernelCase{2, 5, 0}, KernelCase{2, 5, 2},
                    KernelCase{1, 3, 1}, KernelCase{8, 8, 1}));

TEST(FaceContraction, InterpolatesConstantExactly)
{
  // contract with a vector summing to 1 (partition of unity at a face point)
  const unsigned int n = 4;
  std::array<unsigned int, 3> e{{n, n, n}};
  std::vector<double> v{0.1, 0.4, 0.3, 0.2};
  std::vector<double> in(n * n * n, 2.5);
  std::vector<double> out(n * n);
  for (unsigned int dir = 0; dir < 3; ++dir)
  {
    contract_to_face<false>(v.data(), n, in.data(), out.data(), dir, e);
    for (const double x : out)
      EXPECT_NEAR(x, 2.5, 1e-14);
  }
}

TEST(FaceContraction, ExpandIsAdjointOfContract)
{
  const unsigned int n = 5;
  std::array<unsigned int, 3> e{{n, n, n}};
  const auto v = random_vector(n);
  const auto x = random_vector(n * n * n);
  const auto y = random_vector(n * n);
  for (unsigned int dir = 0; dir < 3; ++dir)
  {
    std::vector<double> face(n * n);
    contract_to_face<false>(v.data(), n, x.data(), face.data(), dir, e);
    std::vector<double> cell(n * n * n, 0.);
    expand_from_face<false>(v.data(), n, y.data(), cell.data(), dir, e);
    double a = 0, b = 0;
    for (unsigned int i = 0; i < face.size(); ++i)
      a += face[i] * y[i];
    for (unsigned int i = 0; i < cell.size(); ++i)
      b += cell[i] * x[i];
    EXPECT_NEAR(a, b, 1e-12);
  }
}

TEST(FaceContraction, WorksWithVectorizedArray)
{
  using VA = VectorizedArray<double>;
  const unsigned int n = 3;
  std::array<unsigned int, 3> e{{n, n, n}};
  const auto v = random_vector(n);
  std::vector<VA> in(n * n * n);
  for (unsigned int i = 0; i < in.size(); ++i)
    for (unsigned int l = 0; l < VA::width; ++l)
      in[i][l] = double(i) + 0.01 * l;
  std::vector<VA> out(n * n);
  contract_to_face<false>(v.data(), n, in.data(), out.data(), 1, e);

  // compare against per-lane scalar computation
  for (unsigned int l = 0; l < VA::width; ++l)
  {
    std::vector<double> in_l(in.size()), out_l(out.size());
    for (unsigned int i = 0; i < in.size(); ++i)
      in_l[i] = in[i][l];
    contract_to_face<false>(v.data(), n, in_l.data(), out_l.data(), 1, e);
    for (unsigned int i = 0; i < out.size(); ++i)
      EXPECT_NEAR(out[i][l], out_l[i], 1e-14);
  }
}

// ---------------------------------------------------------------------------
// even-odd decomposition
// ---------------------------------------------------------------------------

namespace
{
/// builds a random matrix with the (anti)symmetry of symmetric point sets
std::vector<double> random_symmetric_matrix(const unsigned int m,
                                            const unsigned int n,
                                            const int sign)
{
  std::vector<double> M(m * n);
  std::uniform_real_distribution<double> dist(-1., 1.);
  for (unsigned int r = 0; r < (m + 1) / 2; ++r)
    for (unsigned int c = 0; c < n; ++c)
    {
      const double v = dist(rng);
      M[r * n + c] = v;
      M[(m - 1 - r) * n + (n - 1 - c)] = sign * v;
    }
  // the center entry of an odd anti-symmetric matrix must vanish
  if (sign < 0 && m % 2 == 1 && n % 2 == 1)
    M[(m / 2) * n + n / 2] = 0.;
  return M;
}
} // namespace

struct EoCase
{
  unsigned int m, n, dir;
  int sign;
};

class EvenOddKernel : public ::testing::TestWithParam<EoCase>
{};

TEST_P(EvenOddKernel, MatchesGenericKernel)
{
  const auto [m, n, dir, sign] = GetParam();
  const auto M = random_symmetric_matrix(m, n, sign);
  const unsigned int mh = (m + 1) / 2, nh = (n + 1) / 2;
  std::vector<double> Me(mh * nh), Mo(mh * nh);
  build_even_odd_matrices(M.data(), m, n, Me.data(), Mo.data());

  std::array<unsigned int, 3> e{{3, 4, 5}};
  e[dir] = n;
  const auto in = random_vector(e[0] * e[1] * e[2]);
  std::array<unsigned int, 3> eo_ext = e;
  eo_ext[dir] = m;
  std::vector<double> ref(eo_ext[0] * eo_ext[1] * eo_ext[2]);
  apply_matrix_1d<false, false>(M.data(), m, n, in.data(), ref.data(), dir, e);
  std::vector<double> out(ref.size(), -7.);
  apply_matrix_1d_evenodd<false, false>(Me.data(), Mo.data(), m, n, sign,
                                        in.data(), out.data(), dir, e);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(out[i], ref[i], 1e-13) << "fwd entry " << i;

  // additive variant
  apply_matrix_1d_evenodd<false, true>(Me.data(), Mo.data(), m, n, sign,
                                       in.data(), out.data(), dir, e);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(out[i], 2. * ref[i], 1e-13);

  // transpose
  const auto in_t = random_vector(eo_ext[0] * eo_ext[1] * eo_ext[2]);
  std::vector<double> ref_t(e[0] * e[1] * e[2]);
  apply_matrix_1d<true, false>(M.data(), m, n, in_t.data(), ref_t.data(), dir,
                               eo_ext);
  std::vector<double> out_t(ref_t.size(), -3.);
  apply_matrix_1d_evenodd<true, false>(Me.data(), Mo.data(), m, n, sign,
                                       in_t.data(), out_t.data(), dir,
                                       eo_ext);
  for (std::size_t i = 0; i < ref_t.size(); ++i)
    ASSERT_NEAR(out_t[i], ref_t[i], 1e-13) << "transpose entry " << i;
}

INSTANTIATE_TEST_SUITE_P(
  Shapes, EvenOddKernel,
  ::testing::Values(EoCase{4, 4, 0, 1}, EoCase{4, 4, 1, -1},
                    EoCase{5, 5, 2, 1}, EoCase{5, 5, 0, -1},
                    EoCase{6, 4, 1, 1}, EoCase{6, 4, 2, -1},
                    EoCase{5, 4, 0, 1}, EoCase{5, 4, 1, -1},
                    EoCase{3, 3, 2, -1}, EoCase{8, 8, 0, 1}));

TEST(EvenOddFEEvaluation, MatchesGenericPath)
{
  // full operator-level check: evaluate+integrate with and without even-odd
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.05 * p[1], p[1] - 0.04 * p[2], p[2]);
  });
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {3};
  data.n_q_points_1d = {5}; // non-collocated: exercises interpolation too
  mf.reinit(mesh, geom, data);

  Vector<double> src(mf.n_dofs(0, 1)), dst_eo(src.size()), dst_gen(src.size());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.01 * double(i));

  for (const bool eo : {true, false})
  {
    FEEvaluation<double, 1> phi(mf, 0, 0, eo);
    Vector<double> &dst = eo ? dst_eo : dst_gen;
    for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
    {
      phi.reinit(b);
      phi.read_dof_values(src);
      phi.evaluate(true, true);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        phi.submit_value(phi.get_value(q), q);
        phi.submit_gradient(phi.get_gradient(q), q);
      }
      phi.integrate(true, true);
      phi.distribute_local_to_global(dst);
    }
  }
  for (std::size_t i = 0; i < src.size(); ++i)
    ASSERT_NEAR(dst_eo[i], dst_gen[i], 1e-12 * (1. + std::abs(dst_gen[i])));
}

// ---------------------------------------------------------------------------
// Specialized (compile-time-extent) kernel dispatch vs the generic
// runtime-extent kernels: every (degree, n_q_1d) pair published through
// DGFLOW_KERNEL_DISPATCH_SIZES must reproduce the generic results to a few
// ULPs (identical operation order; only FMA contraction may differ).
// ---------------------------------------------------------------------------

#include "fem/kernel_dispatch.h"
#include "fem/kernel_dispatch_sizes.h"

namespace
{
using VAd = VectorizedArray<double>;

AlignedVector<VAd> random_batch(const std::size_t n)
{
  std::uniform_real_distribution<double> dist(-1., 1.);
  AlignedVector<VAd> v(n);
  for (std::size_t i = 0; i < n; ++i)
    for (unsigned int l = 0; l < VAd::width; ++l)
      v[i][l] = dist(rng);
  return v;
}

void expect_batches_near(const AlignedVector<VAd> &a,
                         const AlignedVector<VAd> &b, const double tol,
                         const char *what)
{
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (unsigned int l = 0; l < VAd::width; ++l)
      ASSERT_NEAR(a[i][l], b[i][l], tol * (1. + std::abs(b[i][l])))
        << what << " entry " << i << " lane " << l;
}

std::vector<std::pair<unsigned int, unsigned int>> dispatch_sizes()
{
  std::vector<std::pair<unsigned int, unsigned int>> sizes;
#define DGFLOW_COLLECT_SIZE(deg, nq) sizes.emplace_back(deg, nq);
  DGFLOW_KERNEL_DISPATCH_SIZES(DGFLOW_COLLECT_SIZE)
#undef DGFLOW_COLLECT_SIZE
  return sizes;
}
} // namespace

TEST(KernelDispatch, CoversAllListedSizesAndOnlyThose)
{
  for (const auto &[deg, nq] : dispatch_sizes())
  {
    EXPECT_NE(lookup_cell_kernels<double>(deg, nq), nullptr)
      << "degree " << deg << " n_q " << nq;
    EXPECT_NE(lookup_face_kernels<double>(deg, nq), nullptr);
    EXPECT_NE(lookup_cell_kernels<float>(deg, nq), nullptr);
    EXPECT_NE(lookup_face_kernels<float>(deg, nq), nullptr);
  }
  // uncovered sizes fall back to the generic path
  EXPECT_EQ(lookup_cell_kernels<double>(10, 11), nullptr);
  EXPECT_EQ(lookup_face_kernels<double>(3, 9), nullptr);
}

TEST(KernelDispatch, DisableSwitchForcesGenericPath)
{
  ASSERT_EQ(default_kernel_backend(), KernelBackendType::batch);
  set_default_kernel_backend(KernelBackendType::generic);
  EXPECT_EQ(lookup_cell_kernels<double>(3, 4), nullptr);
  EXPECT_EQ(lookup_face_kernels<double>(3, 4), nullptr);
  set_default_kernel_backend(KernelBackendType::batch);
  EXPECT_NE(lookup_cell_kernels<double>(3, 4), nullptr);
}

TEST(KernelDispatch, CellKernelsMatchGeneric)
{
  for (const auto &[deg, nq] : dispatch_sizes())
  {
    SCOPED_TRACE("degree " + std::to_string(deg) + " n_q " +
                 std::to_string(nq));
    const ShapeInfo<double> shape(deg, nq);
    const auto *k = lookup_cell_kernels<double>(deg, nq);
    ASSERT_NE(k, nullptr);

    const unsigned int n = deg + 1;
    const unsigned int n3 = n * n * n, nq3 = nq * nq * nq;
    const unsigned int scratch = std::max(n, nq) * std::max(n, nq) *
                                 std::max(n, nq);
    AlignedVector<VAd> tmp1(scratch), tmp2(scratch);

    // interpolate_to_quad
    const auto dofs = random_batch(n3);
    AlignedVector<VAd> vq(nq3), vq_ref(nq3);
    k->interpolate_to_quad(shape, dofs.data(), vq.data(), tmp1.data(),
                           tmp2.data());
    apply_matrix_1d_evenodd<false, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      dofs.data(), tmp1.data(), 0, {{n, n, n}});
    apply_matrix_1d_evenodd<false, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      tmp1.data(), tmp2.data(), 1, {{nq, n, n}});
    apply_matrix_1d_evenodd<false, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      tmp2.data(), vq_ref.data(), 2, {{nq, nq, n}});
    expect_batches_near(vq, vq_ref, 1e-14, "interpolate_to_quad");

    // collocation_gradients
    AlignedVector<VAd> gq(3 * nq3), gq_ref(3 * nq3);
    k->collocation_gradients(shape, vq_ref.data(), gq.data());
    for (unsigned int d = 0; d < 3; ++d)
      apply_matrix_1d_evenodd<false, false>(
        shape.grad_colloc_eo_e.data(), shape.grad_colloc_eo_o.data(), nq, nq,
        -1, vq_ref.data(), gq_ref.data() + d * nq3, d, {{nq, nq, nq}});
    expect_batches_near(gq, gq_ref, 1e-14, "collocation_gradients");

    // collocation_gradients_transpose, both overwrite modes
    for (const bool overwrite : {true, false})
    {
      AlignedVector<VAd> acc = random_batch(nq3);
      AlignedVector<VAd> acc_ref = acc;
      k->collocation_gradients_transpose(shape, gq_ref.data(), acc.data(),
                                         overwrite);
      for (unsigned int d = 0; d < 3; ++d)
      {
        if (overwrite && d == 0)
          apply_matrix_1d_evenodd<true, false>(
            shape.grad_colloc_eo_e.data(), shape.grad_colloc_eo_o.data(), nq,
            nq, -1, gq_ref.data() + d * nq3, acc_ref.data(), d,
            {{nq, nq, nq}});
        else
          apply_matrix_1d_evenodd<true, true>(
            shape.grad_colloc_eo_e.data(), shape.grad_colloc_eo_o.data(), nq,
            nq, -1, gq_ref.data() + d * nq3, acc_ref.data(), d,
            {{nq, nq, nq}});
      }
      expect_batches_near(acc, acc_ref, 1e-13,
                          "collocation_gradients_transpose");
    }

    // integrate_from_quad
    AlignedVector<VAd> out(n3), out_ref(n3);
    k->integrate_from_quad(shape, vq_ref.data(), out.data(), tmp1.data(),
                           tmp2.data());
    apply_matrix_1d_evenodd<true, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      vq_ref.data(), tmp1.data(), 2, {{nq, nq, nq}});
    apply_matrix_1d_evenodd<true, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      tmp1.data(), tmp2.data(), 1, {{nq, nq, n}});
    apply_matrix_1d_evenodd<true, false>(
      shape.values_eo_e.data(), shape.values_eo_o.data(), nq, n, 1,
      tmp2.data(), out_ref.data(), 0, {{nq, n, n}});
    expect_batches_near(out, out_ref, 1e-14, "integrate_from_quad");
  }
}

TEST(KernelDispatch, FaceKernelsMatchGeneric)
{
  for (const auto &[deg, nq] : dispatch_sizes())
  {
    SCOPED_TRACE("degree " + std::to_string(deg) + " n_q " +
                 std::to_string(nq));
    const ShapeInfo<double> shape(deg, nq);
    const auto *k = lookup_face_kernels<double>(deg, nq);
    ASSERT_NE(k, nullptr);

    const unsigned int n = deg + 1;
    const unsigned int n3 = n * n * n;
    const unsigned int plane = std::max(n, nq) * std::max(n, nq);
    AlignedVector<VAd> tmp(plane);
    const std::array<unsigned int, 3> cell_e{{n, n, n}};

    const auto dofs = random_batch(n3);
    for (unsigned int dir = 0; dir < 3; ++dir)
    {
      AlignedVector<VAd> p(plane), p_ref(plane);
      k->contract_to_face[dir](shape.face_value[1].data(), dofs.data(),
                               p.data());
      contract_to_face<false>(shape.face_value[1].data(), n, dofs.data(),
                              p_ref.data(), dir, cell_e);
      for (unsigned int i = 0; i < n * n; ++i)
        for (unsigned int l = 0; l < VAd::width; ++l)
          ASSERT_NEAR(p[i][l], p_ref[i][l], 1e-14) << "contract dir " << dir;

      AlignedVector<VAd> acc = random_batch(n3);
      AlignedVector<VAd> acc_ref = acc;
      k->expand_from_face_add[dir](shape.face_grad[0].data(), p_ref.data(),
                                   acc.data());
      expand_from_face<true>(shape.face_grad[0].data(), n, p_ref.data(),
                             acc_ref.data(), dir, cell_e);
      expect_batches_near(acc, acc_ref, 1e-13, "expand_from_face_add");
    }

    // 2D plane interpolation with the regular and subface matrices
    for (const double *M0 : {shape.values.data(), shape.subface_values[0].data()})
      for (const double *M1 :
           {shape.gradients.data(), shape.subface_values[1].data()})
      {
        const auto in = random_batch(n * n);
        AlignedVector<VAd> out(nq * nq), out_ref(nq * nq);
        k->interp_plane(M0, M1, in.data(), out.data(), tmp.data());
        apply_matrix_2d<false, false>(M0, nq, n, in.data(), tmp.data(), 0,
                                      {{n, n}});
        apply_matrix_2d<false, false>(M1, nq, n, tmp.data(), out_ref.data(),
                                      1, {{nq, n}});
        expect_batches_near(out, out_ref, 1e-14, "interp_plane");

        const auto qin = random_batch(nq * nq);
        AlignedVector<VAd> back(n * n), back_ref(n * n);
        k->interp_plane_transpose(M0, M1, qin.data(), back.data(),
                                  tmp.data());
        apply_matrix_2d<true, false>(M1, nq, n, qin.data(), tmp.data(), 1,
                                     {{nq, nq}});
        apply_matrix_2d<true, false>(M0, nq, n, tmp.data(), back_ref.data(),
                                     0, {{nq, n}});
        expect_batches_near(back, back_ref, 1e-14, "interp_plane_transpose");

        AlignedVector<VAd> acc = random_batch(n * n);
        AlignedVector<VAd> acc_ref = acc;
        k->interp_plane_transpose_add(M0, M1, qin.data(), acc.data(),
                                      tmp.data());
        apply_matrix_2d<true, false>(M1, nq, n, qin.data(), tmp.data(), 1,
                                     {{nq, nq}});
        apply_matrix_2d<true, true>(M0, nq, n, tmp.data(), acc_ref.data(), 0,
                                    {{nq, n}});
        expect_batches_near(acc, acc_ref, 1e-13,
                            "interp_plane_transpose_add");
      }
  }
}

// ---------------------------------------------------------------------------
// Kernel backends (fem/kernel_backend.h): every dispatch size x backend pair.
// The batch backend must be bitwise-identical to the fixed-size tables it
// wraps, and to the generic sweeps where no table exists.
// ---------------------------------------------------------------------------

#include <cstring>

#include "fem/kernel_backend.h"

namespace
{
bool batches_bitwise_equal(const AlignedVector<VAd> &a,
                           const AlignedVector<VAd> &b)
{
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(VAd)) == 0);
}

/// First @p count entries of @p v: the face-plane buffers are sized for the
/// larger of the dof/quad extents, but only the dof-plane prefix is defined
/// output of the transpose kernels (the rest is scratch territory).
AlignedVector<VAd> prefix(const AlignedVector<VAd> &v, unsigned int count)
{
  AlignedVector<VAd> p(count);
  for (unsigned int i = 0; i < count; ++i)
    p[i] = v[i];
  return p;
}

} // namespace

TEST(KernelBackend, NamesRoundTrip)
{
  EXPECT_STREQ(kernel_backend_name(KernelBackendType::batch), "batch");
  EXPECT_STREQ(kernel_backend_name(KernelBackendType::generic), "generic");
}

/// Sweeps the full cell + face entry-point chain of one backend and returns
/// all outputs concatenated, from identical inputs per call.
struct BackendSweep
{
  AlignedVector<VAd> vq, gq, vq_acc, dofs_out;       // cell chain
  AlignedVector<VAd> plane, cell_acc, interp, back;  // face chain
};

namespace
{
/// When @p ref is non-null, each stage consumes the reference chain's
/// intermediate results instead of this backend's own — so the comparison
/// tests every entry point in isolation rather than compounding per-stage
/// rounding differences through the whole sweep.
BackendSweep sweep_backend(KernelBackend<double> &backend,
                           const ShapeInfo<double> &shape,
                           const AlignedVector<VAd> &dofs,
                           const AlignedVector<VAd> &acc_seed,
                           const BackendSweep *ref = nullptr)
{
  const unsigned int n = shape.n_dofs_1d, nq = shape.n_q_1d;
  const unsigned int n3 = n * n * n, nq3 = nq * nq * nq;
  BackendSweep s;
  s.vq.resize(nq3);
  backend.interpolate_to_quad(dofs.data(), s.vq.data());
  const AlignedVector<VAd> &vq_in = ref ? ref->vq : s.vq;
  s.gq.resize(3 * nq3);
  backend.collocation_gradients(vq_in.data(), s.gq.data());
  s.vq_acc = vq_in;
  backend.collocation_gradients_transpose((ref ? ref->gq : s.gq).data(),
                                          s.vq_acc.data(), false);
  s.dofs_out.resize(n3);
  backend.integrate_from_quad((ref ? ref->vq_acc : s.vq_acc).data(),
                              s.dofs_out.data());

  const unsigned int plane_n = std::max(n, nq) * std::max(n, nq);
  s.plane.resize(plane_n);
  backend.contract_to_face(shape.face_value[0].data(), dofs.data(),
                           s.plane.data(), 1);
  const AlignedVector<VAd> &plane_in = ref ? ref->plane : s.plane;
  s.cell_acc = acc_seed;
  backend.expand_from_face_add(shape.face_grad[1].data(), plane_in.data(),
                               s.cell_acc.data(), 1);
  s.interp.resize(nq * nq);
  backend.interp_plane(shape.values.data(), shape.gradients.data(),
                       plane_in.data(), s.interp.data());
  s.back.resize(plane_n);
  for (unsigned int i = 0; i < plane_n; ++i)
    s.back[i] = acc_seed[i];
  backend.interp_plane_transpose(shape.values.data(), shape.gradients.data(),
                                 (ref ? ref->interp : s.interp).data(),
                                 s.back.data(), true);
  return s;
}
} // namespace

TEST(KernelBackend, BatchIsBitwiseIdenticalToDispatchTablesEverySize)
{
  for (const auto &[deg, nq] : dispatch_sizes())
  {
    SCOPED_TRACE("degree " + std::to_string(deg) + " n_q " +
                 std::to_string(nq));
    const ShapeInfo<double> shape(deg, nq);
    const unsigned int n = deg + 1;
    const auto dofs = random_batch(n * n * n);
    const auto acc = random_batch(n * n * n);

    KernelBackend<double> batch(KernelBackendType::batch, shape);
    const BackendSweep got = sweep_backend(batch, shape, dofs, acc);

    // reference: the raw fixed-size tables, exactly as the pre-backend
    // evaluators called them
    const auto *ck = lookup_cell_kernels<double>(deg, nq);
    const auto *fk = lookup_face_kernels<double>(deg, nq);
    ASSERT_NE(ck, nullptr);
    ASSERT_NE(fk, nullptr);
    const unsigned int n3 = n * n * n, nq3 = nq * nq * nq;
    const unsigned int scratch =
      std::max(n, nq) * std::max(n, nq) * std::max(n, nq);
    AlignedVector<VAd> tmp1(scratch), tmp2(scratch);
    BackendSweep ref;
    ref.vq.resize(nq3);
    ck->interpolate_to_quad(shape, dofs.data(), ref.vq.data(), tmp1.data(),
                            tmp2.data());
    ref.gq.resize(3 * nq3);
    ck->collocation_gradients(shape, ref.vq.data(), ref.gq.data());
    ref.vq_acc = ref.vq;
    ck->collocation_gradients_transpose(shape, ref.gq.data(),
                                        ref.vq_acc.data(), false);
    ref.dofs_out.resize(n3);
    ck->integrate_from_quad(shape, ref.vq_acc.data(), ref.dofs_out.data(),
                            tmp1.data(), tmp2.data());
    const unsigned int plane_n = std::max(n, nq) * std::max(n, nq);
    AlignedVector<VAd> ptmp(plane_n);
    ref.plane.resize(plane_n);
    fk->contract_to_face[1](shape.face_value[0].data(), dofs.data(),
                            ref.plane.data());
    ref.cell_acc = acc;
    fk->expand_from_face_add[1](shape.face_grad[1].data(), ref.plane.data(),
                                ref.cell_acc.data());
    ref.interp.resize(nq * nq);
    fk->interp_plane(shape.values.data(), shape.gradients.data(),
                     ref.plane.data(), ref.interp.data(), ptmp.data());
    ref.back.resize(plane_n);
    for (unsigned int i = 0; i < plane_n; ++i)
      ref.back[i] = acc[i];
    fk->interp_plane_transpose_add(shape.values.data(),
                                   shape.gradients.data(), ref.interp.data(),
                                   ref.back.data(), ptmp.data());

    EXPECT_TRUE(batches_bitwise_equal(got.vq, ref.vq));
    EXPECT_TRUE(batches_bitwise_equal(got.gq, ref.gq));
    EXPECT_TRUE(batches_bitwise_equal(got.vq_acc, ref.vq_acc));
    EXPECT_TRUE(batches_bitwise_equal(got.dofs_out, ref.dofs_out));
    EXPECT_TRUE(batches_bitwise_equal(got.plane, ref.plane));
    EXPECT_TRUE(batches_bitwise_equal(got.cell_acc, ref.cell_acc));
    EXPECT_TRUE(batches_bitwise_equal(got.interp, ref.interp));
    EXPECT_TRUE(batches_bitwise_equal(got.back, ref.back));
  }
}

TEST(KernelBackend, GenericMatchesBatchEverySize)
{
  // the batch backend's tables share the even-odd summation order with the
  // generic runtime sweeps, so they agree to a few ULPs on every size
  for (const auto &[deg, nq] : dispatch_sizes())
  {
    SCOPED_TRACE("degree " + std::to_string(deg) + " n_q " +
                 std::to_string(nq));
    const ShapeInfo<double> shape(deg, nq);
    const unsigned int n = deg + 1;
    const auto dofs = random_batch(n * n * n);
    const auto acc = random_batch(n * n * n);

    KernelBackend<double> batch(KernelBackendType::batch, shape);
    KernelBackend<double> gen(KernelBackendType::generic, shape);
    const BackendSweep b = sweep_backend(batch, shape, dofs, acc);
    const BackendSweep g = sweep_backend(gen, shape, dofs, acc, &b);

    expect_batches_near(g.vq, b.vq, 1e-13, "generic interpolate_to_quad");
    expect_batches_near(g.gq, b.gq, 1e-13, "generic collocation_gradients");
    expect_batches_near(g.dofs_out, b.dofs_out, 1e-13,
                        "generic integrate_from_quad");
    expect_batches_near(g.cell_acc, b.cell_acc, 1e-13,
                        "generic expand_from_face_add");
    expect_batches_near(prefix(g.back, n * n), prefix(b.back, n * n), 1e-13,
                        "generic interp_plane_transpose");
  }
}

TEST(KernelBackend, UncoveredSizeFallsBackOnEveryBackend)
{
  // (degree 10, n_q 11) has no fixed-size instantiation: batch falls back
  // to exactly the generic sweeps, so the two agree bitwise
  const ShapeInfo<double> shape(10, 11);
  const unsigned int n = 11;
  const auto dofs = random_batch(n * n * n);
  const auto acc = random_batch(n * n * n);
  KernelBackend<double> batch(KernelBackendType::batch, shape);
  KernelBackend<double> gen(KernelBackendType::generic, shape);
  const BackendSweep b = sweep_backend(batch, shape, dofs, acc);
  const BackendSweep g = sweep_backend(gen, shape, dofs, acc, &b);
  EXPECT_TRUE(batches_bitwise_equal(b.vq, g.vq));
  EXPECT_TRUE(batches_bitwise_equal(b.dofs_out, g.dofs_out));
}
