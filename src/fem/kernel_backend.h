#pragma once

// The sum-factorization sweeps behind FEEvaluation / FEFaceEvaluation. All
// tensors use the AoSoA layout: every entry is a VectorizedArray whose lanes
// are the cells of one batch. Two backends differ only in which sweeps run:
//
//   batch (default)  the fixed-size even-odd tables of fem/kernel_dispatch.h
//                    where an instantiation for (degree, n_q_1d) exists, the
//                    runtime-extent sweeps otherwise;
//   generic          always the runtime-extent sweeps - the reference the
//                    tests compare against, and the ABFT repair target when a
//                    dispatch table fails its checksum.
//
// Selection: MatrixFree::AdditionalData::backend, else the process default
// (set_default_kernel_backend). Evaluators build their KernelBackend from
// MatrixFree::kernel_backend() at construction, so each evaluator - and
// therefore each thread chunk of the parallel cell loops - owns private
// scratch.

#include "common/aligned_vector.h"
#include "fem/kernel_dispatch.h"
#include "fem/shape_info.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
/// Numeric values are the ones the profiler gauge mf_backend reports.
enum class KernelBackendType : unsigned char
{
  batch = 0,  ///< fixed-size even-odd dispatch tables, runtime sweeps beyond
  generic = 2 ///< runtime-extent sweeps only (the verified fallback)
};

/// "batch" / "generic".
const char *kernel_backend_name(KernelBackendType type);

/// Process-wide default backend used when AdditionalData::backend is unset.
/// Also the lever the ABFT table guard pulls: routing the default to generic
/// disables every fixed-size dispatch table (lookup_* return nullptr), so
/// evaluators constructed afterwards - including batch ones on live
/// MatrixFree objects - run the verified runtime-extent arithmetic.
void set_default_kernel_backend(KernelBackendType type);
KernelBackendType default_kernel_backend();

/// The sweeps of one evaluation chain: each entry point applies its
/// fixed-size table when one was resolved at construction, else the
/// runtime-extent sweep. Owns the scratch buffers, so instances are not
/// thread-safe - the loop drivers construct one evaluator per thread chunk.
/// Instantiated for double and float in kernel_backend.cpp.
template <typename Number>
class KernelBackend
{
public:
  using VA = VectorizedArray<Number>;

  /// generic resolves no tables. @p use_even_odd mirrors the FEEvaluation
  /// ablation knob: with it off the cell sweeps run the plain (non-even-odd)
  /// runtime kernels and skip the cell table, which builds on the even-odd
  /// decomposition.
  KernelBackend(KernelBackendType type, const ShapeInfo<Number> &shape,
                bool use_even_odd = true);

  // ---- cell chain (one scalar component per call) ----

  /// Basis change dofs (n^3) -> quadrature values (nq^3).
  void interpolate_to_quad(const VA *dofs, VA *values_quad);
  /// Transpose of interpolate_to_quad.
  void integrate_from_quad(const VA *values_quad, VA *dofs);
  /// Collocation derivatives: values -> three gradient slabs at
  /// gradients_quad + d * nq^3.
  void collocation_gradients(const VA *values_quad, VA *gradients_quad);
  /// Transpose of collocation_gradients, accumulating into values_quad
  /// (overwriting on the first sweep when @p overwrite is set).
  void collocation_gradients_transpose(const VA *gradients_quad,
                                       VA *values_quad, bool overwrite);

  // ---- face chain ----

  /// Contracts the n^3 dof tensor with v[n] along @p direction -> plane.
  void contract_to_face(const Number *v, const VA *dofs, VA *plane,
                        unsigned int direction);
  /// Transpose of contract_to_face, accumulating into the dof tensor.
  void expand_from_face_add(const Number *v, const VA *plane, VA *dofs,
                            unsigned int direction);
  /// Applies the nq x n matrices M0 along axis 0 and M1 along axis 1 of the
  /// n^2 plane, producing the nq^2 output.
  void interp_plane(const Number *M0, const Number *M1, const VA *in,
                    VA *out);
  /// Transpose of interp_plane; accumulates into out when @p add is set.
  void interp_plane_transpose(const Number *M0, const Number *M1,
                              const VA *in, VA *out, bool add);

private:
  // scratch sized on first use: an evaluator serving only the face chain
  // never allocates the (larger) cell sweep buffers and vice versa
  void ensure_cell_scratch();
  void ensure_face_scratch();

  const ShapeInfo<Number> &shape_;
  unsigned int n_, nq_;
  bool even_odd_;
  const CellKernels<Number> *cell_;
  const FaceKernels<Number> *face_;
  AlignedVector<VA> tmp1_, tmp2_, ftmp_;
};

} // namespace dgflow
