#pragma once

// Implementation backing fem/kernel_dispatch.h: the fixed-size kernel bodies
// as thin forwarders into the fixed-extent templates of
// fem/tensor_kernels.h, plus the lookup tables. Included only by the
// per-number-type instantiation translation units
// (kernel_dispatch_double.cpp, kernel_dispatch_float.cpp) - everything here
// is template code that the explicit instantiations at the bottom of those
// files turn into object code once, keeping the unrolled kernels out of
// every including TU.
//
// The sweep structure mirrors the runtime-extent sweeps of KernelBackend
// exactly (same kernels, same order, same even-odd decomposition); only the
// extents are compile-time constants. The fast path is therefore bit-identical to the
// generic path by construction - the equivalence tests in
// tests/test_tensor_kernels.cpp pin that down.

#include "fem/kernel_backend.h"
#include "fem/kernel_dispatch.h"
#include "fem/kernel_dispatch_sizes.h"
#include "fem/tensor_kernels.h"

namespace dgflow
{
namespace internal
{
template <typename Number, int deg, int nq>
struct FixedCellKernels
{
  using VA = VectorizedArray<Number>;
  static constexpr int n = deg + 1;
  static constexpr int nqp = nq * nq * nq;

  static void interpolate_to_quad(const ShapeInfo<Number> &s, const VA *dofs,
                                  VA *vq, VA *t1, VA *t2)
  {
    apply_matrix_1d_evenodd_fixed<false, false, nq, n, 1, 0, n, n, n>(
      s.values_eo_e.data(), s.values_eo_o.data(), dofs, t1);
    apply_matrix_1d_evenodd_fixed<false, false, nq, n, 1, 1, nq, n, n>(
      s.values_eo_e.data(), s.values_eo_o.data(), t1, t2);
    apply_matrix_1d_evenodd_fixed<false, false, nq, n, 1, 2, nq, nq, n>(
      s.values_eo_e.data(), s.values_eo_o.data(), t2, vq);
  }

  static void integrate_from_quad(const ShapeInfo<Number> &s, const VA *vq,
                                  VA *dofs, VA *t1, VA *t2)
  {
    apply_matrix_1d_evenodd_fixed<true, false, nq, n, 1, 2, nq, nq, nq>(
      s.values_eo_e.data(), s.values_eo_o.data(), vq, t1);
    apply_matrix_1d_evenodd_fixed<true, false, nq, n, 1, 1, nq, nq, n>(
      s.values_eo_e.data(), s.values_eo_o.data(), t1, t2);
    apply_matrix_1d_evenodd_fixed<true, false, nq, n, 1, 0, nq, n, n>(
      s.values_eo_e.data(), s.values_eo_o.data(), t2, dofs);
  }

  static void collocation_gradients(const ShapeInfo<Number> &s, const VA *vq,
                                    VA *gq)
  {
    apply_matrix_1d_evenodd_fixed<false, false, nq, nq, -1, 0, nq, nq, nq>(
      s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), vq, gq);
    apply_matrix_1d_evenodd_fixed<false, false, nq, nq, -1, 1, nq, nq, nq>(
      s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), vq, gq + nqp);
    apply_matrix_1d_evenodd_fixed<false, false, nq, nq, -1, 2, nq, nq, nq>(
      s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), vq,
      gq + 2 * nqp);
  }

  static void collocation_gradients_transpose(const ShapeInfo<Number> &s,
                                              const VA *gq, VA *vq,
                                              const bool overwrite)
  {
    if (overwrite)
      apply_matrix_1d_evenodd_fixed<true, false, nq, nq, -1, 0, nq, nq, nq>(
        s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), gq, vq);
    else
      apply_matrix_1d_evenodd_fixed<true, true, nq, nq, -1, 0, nq, nq, nq>(
        s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), gq, vq);
    apply_matrix_1d_evenodd_fixed<true, true, nq, nq, -1, 1, nq, nq, nq>(
      s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), gq + nqp, vq);
    apply_matrix_1d_evenodd_fixed<true, true, nq, nq, -1, 2, nq, nq, nq>(
      s.grad_colloc_eo_e.data(), s.grad_colloc_eo_o.data(), gq + 2 * nqp,
      vq);
  }
};

template <typename Number, int deg, int nq>
struct FixedFaceKernels
{
  using VA = VectorizedArray<Number>;
  static constexpr int n = deg + 1;

  template <int direction>
  static void contract(const Number *v, const VA *dofs, VA *plane)
  {
    contract_to_face_fixed<false, n, direction, n, n, n>(v, dofs, plane);
  }

  template <int direction>
  static void expand_add(const Number *v, const VA *plane, VA *dofs)
  {
    expand_from_face_fixed<true, n, direction, n, n, n>(v, plane, dofs);
  }

  static void interp_plane(const Number *M0, const Number *M1, const VA *in,
                           VA *out, VA *tmp)
  {
    apply_matrix_1d_fixed<false, false, nq, n, 0, n, n, 1>(M0, in, tmp);
    apply_matrix_1d_fixed<false, false, nq, n, 1, nq, n, 1>(M1, tmp, out);
  }

  template <bool add>
  static void interp_plane_transpose(const Number *M0, const Number *M1,
                                     const VA *in, VA *out, VA *tmp)
  {
    apply_matrix_1d_fixed<true, false, nq, n, 1, nq, nq, 1>(M1, in, tmp);
    apply_matrix_1d_fixed<true, add, nq, n, 0, nq, n, 1>(M0, tmp, out);
  }
};

template <typename Number, int deg, int nq>
CellKernels<Number> make_cell_kernels()
{
  using K = FixedCellKernels<Number, deg, nq>;
  return {&K::interpolate_to_quad, &K::integrate_from_quad,
          &K::collocation_gradients, &K::collocation_gradients_transpose};
}

template <typename Number, int deg, int nq>
FaceKernels<Number> make_face_kernels()
{
  using K = FixedFaceKernels<Number, deg, nq>;
  return {{&K::template contract<0>, &K::template contract<1>,
           &K::template contract<2>},
          {&K::template expand_add<0>, &K::template expand_add<1>,
           &K::template expand_add<2>},
          &K::interp_plane, &K::template interp_plane_transpose<false>,
          &K::template interp_plane_transpose<true>};
}

} // namespace internal

template <typename Number>
const CellKernels<Number> *lookup_cell_kernels(const unsigned int degree,
                                               const unsigned int n_q_1d)
{
  if (default_kernel_backend() == KernelBackendType::generic)
    return nullptr;
  switch (degree * 100 + n_q_1d)
  {
#define DGFLOW_KERNEL_CASE(d, q)                                              \
  case d * 100 + q:                                                           \
  {                                                                           \
    static const CellKernels<Number> table =                                  \
      internal::make_cell_kernels<Number, d, q>();                            \
    return &table;                                                            \
  }
    DGFLOW_KERNEL_DISPATCH_SIZES(DGFLOW_KERNEL_CASE)
#undef DGFLOW_KERNEL_CASE
    default:
      return nullptr;
  }
}

template <typename Number>
const FaceKernels<Number> *lookup_face_kernels(const unsigned int degree,
                                               const unsigned int n_q_1d)
{
  if (default_kernel_backend() == KernelBackendType::generic)
    return nullptr;
  switch (degree * 100 + n_q_1d)
  {
#define DGFLOW_KERNEL_CASE(d, q)                                              \
  case d * 100 + q:                                                           \
  {                                                                           \
    static const FaceKernels<Number> table =                                  \
      internal::make_face_kernels<Number, d, q>();                            \
    return &table;                                                            \
  }
    DGFLOW_KERNEL_DISPATCH_SIZES(DGFLOW_KERNEL_CASE)
#undef DGFLOW_KERNEL_CASE
    default:
      return nullptr;
  }
}

} // namespace dgflow
