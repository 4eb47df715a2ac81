// The process-wide backend default and the KernelBackend sweeps, instantiated
// for double and float. The fixed-size tables themselves live in the kernel
// dispatch translation units.

#include "fem/kernel_backend.h"

#include <algorithm>
#include <atomic>

#include "fem/tensor_kernels.h"

namespace dgflow
{
namespace
{
std::atomic<KernelBackendType> default_backend{KernelBackendType::batch};
} // namespace

const char *kernel_backend_name(const KernelBackendType type)
{
  return type == KernelBackendType::batch ? "batch" : "generic";
}

void set_default_kernel_backend(const KernelBackendType type)
{
  default_backend.store(type, std::memory_order_relaxed);
}

KernelBackendType default_kernel_backend()
{
  return default_backend.load(std::memory_order_relaxed);
}

template <typename Number>
KernelBackend<Number>::KernelBackend(const KernelBackendType type,
                                     const ShapeInfo<Number> &shape,
                                     const bool use_even_odd)
  : shape_(shape), n_(shape.n_dofs_1d), nq_(shape.n_q_1d),
    even_odd_(use_even_odd),
    cell_(type == KernelBackendType::batch && use_even_odd
            ? lookup_cell_kernels<Number>(shape.degree, shape.n_q_1d)
            : nullptr),
    face_(type == KernelBackendType::batch
            ? lookup_face_kernels<Number>(shape.degree, shape.n_q_1d)
            : nullptr)
{
}

template <typename Number>
void KernelBackend<Number>::interpolate_to_quad(const VA *dofs, VA *vq)
{
  ensure_cell_scratch();
  if (cell_)
    cell_->interpolate_to_quad(shape_, dofs, vq, tmp1_.data(), tmp2_.data());
  else if (even_odd_)
  {
    apply_matrix_1d_evenodd<false, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1, dofs,
      tmp1_.data(), 0, {{n_, n_, n_}});
    apply_matrix_1d_evenodd<false, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1,
      tmp1_.data(), tmp2_.data(), 1, {{nq_, n_, n_}});
    apply_matrix_1d_evenodd<false, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1,
      tmp2_.data(), vq, 2, {{nq_, nq_, n_}});
  }
  else
  {
    apply_matrix_1d<false, false>(shape_.values.data(), nq_, n_, dofs,
                                  tmp1_.data(), 0, {{n_, n_, n_}});
    apply_matrix_1d<false, false>(shape_.values.data(), nq_, n_, tmp1_.data(),
                                  tmp2_.data(), 1, {{nq_, n_, n_}});
    apply_matrix_1d<false, false>(shape_.values.data(), nq_, n_, tmp2_.data(),
                                  vq, 2, {{nq_, nq_, n_}});
  }
}

template <typename Number>
void KernelBackend<Number>::integrate_from_quad(const VA *vq, VA *dofs)
{
  ensure_cell_scratch();
  if (cell_)
    cell_->integrate_from_quad(shape_, vq, dofs, tmp1_.data(), tmp2_.data());
  else if (even_odd_)
  {
    apply_matrix_1d_evenodd<true, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1, vq,
      tmp1_.data(), 2, {{nq_, nq_, nq_}});
    apply_matrix_1d_evenodd<true, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1,
      tmp1_.data(), tmp2_.data(), 1, {{nq_, nq_, n_}});
    apply_matrix_1d_evenodd<true, false>(
      shape_.values_eo_e.data(), shape_.values_eo_o.data(), nq_, n_, 1,
      tmp2_.data(), dofs, 0, {{nq_, n_, n_}});
  }
  else
  {
    apply_matrix_1d<true, false>(shape_.values.data(), nq_, n_, vq,
                                 tmp1_.data(), 2, {{nq_, nq_, nq_}});
    apply_matrix_1d<true, false>(shape_.values.data(), nq_, n_, tmp1_.data(),
                                 tmp2_.data(), 1, {{nq_, nq_, n_}});
    apply_matrix_1d<true, false>(shape_.values.data(), nq_, n_, tmp2_.data(),
                                 dofs, 0, {{nq_, n_, n_}});
  }
}

template <typename Number>
void KernelBackend<Number>::collocation_gradients(const VA *vq, VA *gq)
{
  if (cell_)
  {
    cell_->collocation_gradients(shape_, vq, gq);
    return;
  }
  const unsigned int nqp = nq_ * nq_ * nq_;
  for (unsigned int d = 0; d < 3; ++d)
  {
    if (even_odd_)
      apply_matrix_1d_evenodd<false, false>(
        shape_.grad_colloc_eo_e.data(), shape_.grad_colloc_eo_o.data(), nq_,
        nq_, -1, vq, gq + d * nqp, d, {{nq_, nq_, nq_}});
    else
      apply_matrix_1d<false, false>(shape_.grad_colloc.data(), nq_, nq_, vq,
                                    gq + d * nqp, d, {{nq_, nq_, nq_}});
  }
}

template <typename Number>
void KernelBackend<Number>::collocation_gradients_transpose(
  const VA *gq, VA *vq, const bool overwrite)
{
  if (cell_)
  {
    cell_->collocation_gradients_transpose(shape_, gq, vq, overwrite);
    return;
  }
  const unsigned int nqp = nq_ * nq_ * nq_;
  for (unsigned int d = 0; d < 3; ++d)
  {
    // D^T accumulates into the value array; with overwrite, the first
    // sweep overwrites instead (no value contributions were submitted)
    const VA *g = gq + d * nqp;
    if (even_odd_)
    {
      if (overwrite && d == 0)
        apply_matrix_1d_evenodd<true, false>(
          shape_.grad_colloc_eo_e.data(), shape_.grad_colloc_eo_o.data(), nq_,
          nq_, -1, g, vq, d, {{nq_, nq_, nq_}});
      else
        apply_matrix_1d_evenodd<true, true>(
          shape_.grad_colloc_eo_e.data(), shape_.grad_colloc_eo_o.data(), nq_,
          nq_, -1, g, vq, d, {{nq_, nq_, nq_}});
    }
    else
    {
      if (overwrite && d == 0)
        apply_matrix_1d<true, false>(shape_.grad_colloc.data(), nq_, nq_, g,
                                     vq, d, {{nq_, nq_, nq_}});
      else
        apply_matrix_1d<true, true>(shape_.grad_colloc.data(), nq_, nq_, g,
                                    vq, d, {{nq_, nq_, nq_}});
    }
  }
}

template <typename Number>
void KernelBackend<Number>::contract_to_face(const Number *v, const VA *dofs,
                                             VA *plane,
                                             const unsigned int direction)
{
  if (face_)
    face_->contract_to_face[direction](v, dofs, plane);
  else
    dgflow::contract_to_face<false>(v, n_, dofs, plane, direction,
                                    {{n_, n_, n_}});
}

template <typename Number>
void KernelBackend<Number>::expand_from_face_add(const Number *v,
                                                 const VA *plane, VA *dofs,
                                                 const unsigned int direction)
{
  if (face_)
    face_->expand_from_face_add[direction](v, plane, dofs);
  else
    dgflow::expand_from_face<true>(v, n_, plane, dofs, direction,
                                   {{n_, n_, n_}});
}

template <typename Number>
void KernelBackend<Number>::interp_plane(const Number *M0, const Number *M1,
                                         const VA *in, VA *out)
{
  ensure_face_scratch();
  if (face_)
    face_->interp_plane(M0, M1, in, out, ftmp_.data());
  else
  {
    apply_matrix_2d<false, false>(M0, nq_, n_, in, ftmp_.data(), 0,
                                  {{n_, n_}});
    apply_matrix_2d<false, false>(M1, nq_, n_, ftmp_.data(), out, 1,
                                  {{nq_, n_}});
  }
}

template <typename Number>
void KernelBackend<Number>::interp_plane_transpose(const Number *M0,
                                                   const Number *M1,
                                                   const VA *in, VA *out,
                                                   const bool add)
{
  ensure_face_scratch();
  if (face_)
    (add ? face_->interp_plane_transpose_add
         : face_->interp_plane_transpose)(M0, M1, in, out, ftmp_.data());
  else
  {
    apply_matrix_2d<true, false>(M1, nq_, n_, in, ftmp_.data(), 1,
                                 {{nq_, nq_}});
    if (add)
      apply_matrix_2d<true, true>(M0, nq_, n_, ftmp_.data(), out, 0,
                                  {{nq_, n_}});
    else
      apply_matrix_2d<true, false>(M0, nq_, n_, ftmp_.data(), out, 0,
                                   {{nq_, n_}});
  }
}

template <typename Number>
void KernelBackend<Number>::ensure_cell_scratch()
{
  if (tmp1_.empty())
  {
    const unsigned int m = std::max(n_, nq_);
    tmp1_.resize(m * m * m);
    tmp2_.resize(m * m * m);
  }
}

template <typename Number>
void KernelBackend<Number>::ensure_face_scratch()
{
  if (ftmp_.empty())
  {
    const unsigned int m = std::max(n_, nq_);
    ftmp_.resize(m * m);
  }
}

template class KernelBackend<double>;
template class KernelBackend<float>;

} // namespace dgflow
