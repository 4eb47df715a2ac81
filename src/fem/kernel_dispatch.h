#pragma once

// Compile-time kernel dispatch (paper Section 3.1: fully-unrolled fixed-size
// sum-factorization kernels are a prerequisite for operating near the
// memory-bandwidth roofline). For the (degree, n_q_1d) combinations the
// paper exercises - k = 1..9 with n_q = k+1 (collocated) and
// ceil(3(k+1)/2) (overintegrated) - dedicated translation units instantiate
// the fixed-extent kernels of fem/tensor_kernels.h and publish them through
// small function-pointer tables. The batch KernelBackend
// (fem/kernel_backend.h) looks the tables up once at construction and falls
// back to the runtime-extent kernels whenever no instantiation exists, so
// uncovered sizes keep working through the verified generic path.
//
// Adding a new (degree, n_q_1d) instantiation is a one-line change to
// DGFLOW_KERNEL_DISPATCH_SIZES in fem/kernel_dispatch_sizes.h; see
// docs/DEVELOPING.md ("Specialized kernel fast path").

#include "fem/shape_info.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
/// Fixed-size kernels for the cell-local evaluation chain of FEEvaluation
/// (one scalar component per call). All pointers are non-null in a published
/// table. Scratch buffers must hold max(n, n_q_1d)^3 entries.
template <typename Number>
struct CellKernels
{
  using VA = VectorizedArray<Number>;
  /// Basis-change sweeps dofs -> quad values (tmp1/tmp2 are scratch).
  void (*interpolate_to_quad)(const ShapeInfo<Number> &shape, const VA *dofs,
                              VA *values_quad, VA *tmp1, VA *tmp2);
  /// Transpose of interpolate_to_quad: quad values -> dofs.
  void (*integrate_from_quad)(const ShapeInfo<Number> &shape,
                              const VA *values_quad, VA *dofs, VA *tmp1,
                              VA *tmp2);
  /// Collocation derivatives: values at quad points -> the three gradient
  /// slabs at gradients_quad + d * n_q_1d^3, d = 0,1,2.
  void (*collocation_gradients)(const ShapeInfo<Number> &shape,
                                const VA *values_quad, VA *gradients_quad);
  /// Transpose of collocation_gradients, accumulating into values_quad;
  /// with overwrite set, the first sweep overwrites instead (used when no
  /// value contributions were submitted).
  void (*collocation_gradients_transpose)(const ShapeInfo<Number> &shape,
                                          const VA *gradients_quad,
                                          VA *values_quad,
                                          const bool overwrite);
};

/// Fixed-size kernels for the face evaluation chain of FEFaceEvaluation.
/// The 1D matrices stay runtime arguments so the same instantiation serves
/// the regular, hanging-subface, and gradient matrices.
template <typename Number>
struct FaceKernels
{
  using VA = VectorizedArray<Number>;
  /// Contracts the (degree+1)^3 dof tensor with the length-(degree+1)
  /// vector v along direction d (array index), producing a face plane.
  void (*contract_to_face[3])(const Number *v, const VA *dofs, VA *plane);
  /// Transpose of contract_to_face; always accumulates into the dof tensor.
  void (*expand_from_face_add[3])(const Number *v, const VA *plane, VA *dofs);
  /// Applies the n_q_1d x (degree+1) matrix M0 along axis 0 and M1 along
  /// axis 1 of the (degree+1)^2 plane, producing the n_q_1d^2 output (tmp is
  /// scratch of max(n, n_q_1d)^2 entries).
  void (*interp_plane)(const Number *M0, const Number *M1, const VA *in,
                       VA *out, VA *tmp);
  /// Transpose of interp_plane (overwrites out).
  void (*interp_plane_transpose)(const Number *M0, const Number *M1,
                                 const VA *in, VA *out, VA *tmp);
  /// Transpose of interp_plane, accumulating into out.
  void (*interp_plane_transpose_add)(const Number *M0, const Number *M1,
                                     const VA *in, VA *out, VA *tmp);
};

/// Returns the specialized cell-kernel table for (degree, n_q_1d), or
/// nullptr when no instantiation exists or the process default backend is
/// generic (set_default_kernel_backend, the ABFT repair).
/// The returned pointer is valid for the process lifetime.
template <typename Number>
const CellKernels<Number> *lookup_cell_kernels(const unsigned int degree,
                                               const unsigned int n_q_1d);

/// Face-kernel analog of lookup_cell_kernels.
template <typename Number>
const FaceKernels<Number> *lookup_face_kernels(const unsigned int degree,
                                               const unsigned int n_q_1d);

} // namespace dgflow
