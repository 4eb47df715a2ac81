#pragma once

// Cell-wise evaluator: gathers the SIMD batch of cell dof values, evaluates
// values/gradients at quadrature points by sum factorization, exposes the
// quadrature-point loop (get_*/submit_*), and integrates back (the
// G_e^T I_e^T D_e I_e G_e chain of Eq. (7) in the paper).
//
// The evaluation uses the change-of-basis optimization: values are first
// interpolated to the (Gauss) quadrature points, then all derivatives are
// taken with the collocation derivative matrix - 6 instead of 9 1D kernel
// sweeps for value+gradient evaluation. With the collocated Gauss basis
// (n_q_1d == degree+1) the interpolation step disappears entirely.
//
// Two fast paths resolve at construction/reinit:
//  * kernel backend: the sum-factorization sweeps are delegated to a
//    KernelBackend built for the backend the MatrixFree resolved at reinit
//    (fem/kernel_backend.h): batch applies the fixed-size dispatch tables
//    when an instantiation for (degree, n_q_1d) exists, generic (and batch
//    on uncovered sizes) the verified runtime-extent sweeps. The
//    collocation shortcut (n_q_1d == degree+1 skips interpolation) stays
//    here, in front of the backend;
//  * metric compression: get_gradient/submit_gradient/JxW branch on the
//    batch's GeometryType - Cartesian batches multiply by the constant
//    diagonal of J^{-T}, affine batches by the constant full tensor, and
//    only general batches stream per-q metric data.

#include <type_traits>

#include "fem/kernel_backend.h"
#include "matrixfree/matrix_free.h"

namespace dgflow
{
template <typename Number, int n_components_ = 1>
class FEEvaluation
{
public:
  using VA = VectorizedArray<Number>;
  static constexpr unsigned int n_lanes = VA::width;
  static constexpr int n_components = n_components_;
  static_assert(n_components == 1 || n_components == 3);

  using value_type = std::conditional_t<n_components == 1, VA, Tensor1<VA>>;
  using gradient_type =
    std::conditional_t<n_components == 1, Tensor1<VA>, Tensor2<VA>>;

  /// @p use_even_odd selects the flop-reduced even-odd kernels (ablation
  /// studies may disable them; disabling also bypasses the specialized
  /// fixed-size kernels, which build on the even-odd decomposition).
  FEEvaluation(const MatrixFree<Number> &mf, const unsigned int space,
               const unsigned int quad, const bool use_even_odd = true)
    : mf_(mf), space_(space), quad_(quad), shape_(mf.shape_info(space, quad)),
      n_(shape_.n_dofs_1d), nq_(shape_.n_q_1d),
      backend_(mf.kernel_backend(), shape_, use_even_odd),
      q_weight_(mf.cell_metric(quad).q_weight.data())
  {
    n_q_points = nq_ * nq_ * nq_;
    dofs_per_component = n_ * n_ * n_;
    values_dofs_.resize(n_components * dofs_per_component);
    values_quad_.resize(n_components * n_q_points);
    gradients_quad_.resize(n_components * dim * n_q_points);
  }

  void reinit(const unsigned int cell_batch)
  {
    batch_ = cell_batch;
    metric_offset_ = std::size_t(cell_batch) * n_q_points;
    const auto &metric = mf_.cell_metric(quad_);
    geom_type_ = metric.type[cell_batch];
    const std::size_t slot = metric.data_index[cell_batch];
    if (geom_type_ == GeometryType::general)
    {
      jac_q_ = metric.inv_jac_t.data() + slot * n_q_points;
      jxw_q_ = metric.JxW.data() + slot * n_q_points;
    }
    else
    {
      jit_const_ = metric.batch_inv_jac_t[slot];
      det_const_ = metric.batch_det[slot];
      jac_q_ = nullptr;
      jxw_q_ = nullptr;
    }
  }

  unsigned int cell_batch() const { return batch_; }

  unsigned int n_filled_lanes() const
  {
    return mf_.cell_batch(batch_).n_filled;
  }

  /// Gathers the dof values of all lanes (AoS -> SoA transpose). Cell blocks
  /// resolve through the vector's local_dof_offset(), so a Vector, a
  /// vmpi::DistributedVector (owned and ghost cells alike; ghost reads
  /// debug-assert an up-to-date ghost section) and the loop driver's chunk
  /// view all read through this one gather.
  template <typename VectorLike>
  void read_dof_values(const VectorLike &src)
  {
    const auto &batch = mf_.cell_batch(batch_);
    const unsigned int n_cell_dofs = n_components * dofs_per_component;
    std::size_t offsets[n_lanes];
    for (unsigned int l = 0; l < n_lanes; ++l)
      offsets[l] = src.local_dof_offset(batch.cells[l], n_cell_dofs);
    vectorized_load_and_transpose(n_cell_dofs, src.data(), offsets,
                                  values_dofs_.data());
  }

  /// Adds the local integration results into the vector, skipping
  /// duplicated padding lanes and lanes whose cell the vector does not own
  /// (both-sides-evaluate scheme: a distributed dst needs no compress()
  /// afterwards and stays owned-only; a chunk view keeps its own cells).
  template <typename VectorLike>
  void distribute_local_to_global(VectorLike &dst) const
  {
    const auto &batch = mf_.cell_batch(batch_);
    const unsigned int n_cell_dofs = n_components * dofs_per_component;
    for (unsigned int l = 0; l < batch.n_filled; ++l)
    {
      if (!dst.is_owned_element(batch.cells[l]))
        continue;
      Number *DGFLOW_RESTRICT out =
        dst.data() + dst.local_dof_offset(batch.cells[l], n_cell_dofs);
      for (unsigned int i = 0; i < n_cell_dofs; ++i)
        out[i] += values_dofs_[i][l];
    }
  }

  /// Overwrites the global values (projections, inverse mass application).
  void set_dof_values(Vector<Number> &dst) const
  {
    const auto &batch = mf_.cell_batch(batch_);
    const unsigned int n_cell_dofs = n_components * dofs_per_component;
    for (unsigned int l = 0; l < batch.n_filled; ++l)
    {
      Number *DGFLOW_RESTRICT out =
        dst.data() + std::size_t(batch.cells[l]) * n_cell_dofs;
      for (unsigned int i = 0; i < n_cell_dofs; ++i)
        out[i] = values_dofs_[i][l];
    }
  }

  void evaluate(const bool values, const bool gradients)
  {
    for (int c = 0; c < n_components; ++c)
    {
      const VA *dofs = values_dofs_.data() + c * dofs_per_component;
      VA *vq = values_quad_.data() + c * n_q_points;
      interpolate_to_quad(dofs, vq);
      if (gradients)
        backend_.collocation_gradients(
          vq, gradients_quad_.data() + c * dim * n_q_points);
    }
    (void)values; // values are always produced as part of the chain
  }

  void integrate(const bool values, const bool gradients)
  {
    for (int c = 0; c < n_components; ++c)
    {
      VA *vq = values_quad_.data() + c * n_q_points;
      if (gradients)
        backend_.collocation_gradients_transpose(
          gradients_quad_.data() + c * dim * n_q_points, vq, !values);
      integrate_from_quad(vq, values_dofs_.data() + c * dofs_per_component);
    }
  }

  // ---- quadrature point access ----

  value_type get_value(const unsigned int q) const
  {
    if constexpr (n_components == 1)
      return values_quad_[q];
    else
    {
      Tensor1<VA> v;
      for (int c = 0; c < n_components; ++c)
        v[c] = values_quad_[c * n_q_points + q];
      return v;
    }
  }

  gradient_type get_gradient(const unsigned int q) const
  {
    if constexpr (n_components == 1)
    {
      Tensor1<VA> g;
      for (unsigned int d = 0; d < dim; ++d)
        g[d] = gradients_quad_[d * n_q_points + q];
      return transform_gradient(g, q);
    }
    else
    {
      Tensor2<VA> g;
      for (int c = 0; c < n_components; ++c)
      {
        Tensor1<VA> gr;
        for (unsigned int d = 0; d < dim; ++d)
          gr[d] = gradients_quad_[(c * dim + d) * n_q_points + q];
        const Tensor1<VA> gp = transform_gradient(gr, q);
        for (unsigned int d = 0; d < dim; ++d)
          g[c][d] = gp[d];
      }
      return g;
    }
  }

  VA get_divergence(const unsigned int q) const
  {
    static_assert(n_components == 3);
    const gradient_type g = get_gradient(q);
    return g[0][0] + g[1][1] + g[2][2];
  }

  void submit_value(const value_type &v, const unsigned int q)
  {
    const VA jxw = JxW(q);
    if constexpr (n_components == 1)
      values_quad_[q] = v * jxw;
    else
      for (int c = 0; c < n_components; ++c)
        values_quad_[c * n_q_points + q] = v[c] * jxw;
  }

  void submit_gradient(const gradient_type &g, const unsigned int q)
  {
    const VA jxw = JxW(q);
    if constexpr (n_components == 1)
    {
      const Tensor1<VA> t = transform_gradient_transpose(g, q);
      for (unsigned int d = 0; d < dim; ++d)
        gradients_quad_[d * n_q_points + q] = t[d] * jxw;
    }
    else
      for (int c = 0; c < n_components; ++c)
      {
        Tensor1<VA> gc;
        for (unsigned int d = 0; d < dim; ++d)
          gc[d] = g[c][d];
        const Tensor1<VA> t = transform_gradient_transpose(gc, q);
        for (unsigned int d = 0; d < dim; ++d)
          gradients_quad_[(c * dim + d) * n_q_points + q] = t[d] * jxw;
      }
  }

  /// Submits lambda * I as gradient test contribution (divergence penalty).
  void submit_divergence(const VA &lambda, const unsigned int q)
  {
    static_assert(n_components == 3);
    Tensor2<VA> g;
    for (unsigned int d = 0; d < dim; ++d)
      g[d][d] = lambda;
    submit_gradient(g, q);
  }

  Tensor1<VA> quadrature_point(const unsigned int q) const
  {
    return mf_.cell_metric(quad_).q_points[metric_offset_ + q];
  }

  VA JxW(const unsigned int q) const
  {
    if (geom_type_ == GeometryType::general)
      return jxw_q_[q];
    return det_const_ * q_weight_[q];
  }

  GeometryType geometry_type() const { return geom_type_; }

  VA *begin_dof_values() { return values_dofs_.data(); }
  const VA *begin_dof_values() const { return values_dofs_.data(); }

  unsigned int n_q_points;
  unsigned int dofs_per_component;

private:
  /// Pulls a reference-space gradient to real space (J^{-T} g), picking the
  /// cheapest form the batch's GeometryType allows.
  Tensor1<VA> transform_gradient(const Tensor1<VA> &g, const unsigned int q) const
  {
    switch (geom_type_)
    {
      case GeometryType::cartesian:
      {
        Tensor1<VA> t;
        for (unsigned int d = 0; d < dim; ++d)
          t[d] = jit_const_[d][d] * g[d];
        return t;
      }
      case GeometryType::affine:
        return apply(jit_const_, g);
      default:
        return apply(jac_q_[q], g);
    }
  }

  /// Pushes a real-space test gradient back to reference space (J^{-1} g).
  Tensor1<VA> transform_gradient_transpose(const Tensor1<VA> &g,
                                           const unsigned int q) const
  {
    switch (geom_type_)
    {
      case GeometryType::cartesian:
      {
        Tensor1<VA> t;
        for (unsigned int d = 0; d < dim; ++d)
          t[d] = jit_const_[d][d] * g[d];
        return t;
      }
      case GeometryType::affine:
        return apply_transpose(jit_const_, g);
      default:
        return apply_transpose(jac_q_[q], g);
    }
  }

  void interpolate_to_quad(const VA *dofs, VA *vq)
  {
    if (shape_.collocation)
    {
      for (unsigned int i = 0; i < n_q_points; ++i)
        vq[i] = dofs[i];
      return;
    }
    backend_.interpolate_to_quad(dofs, vq);
  }

  void integrate_from_quad(const VA *vq, VA *dofs)
  {
    if (shape_.collocation)
    {
      for (unsigned int i = 0; i < n_q_points; ++i)
        dofs[i] = vq[i];
      return;
    }
    backend_.integrate_from_quad(vq, dofs);
  }

  const MatrixFree<Number> &mf_;
  unsigned int space_, quad_;
  const ShapeInfo<Number> &shape_;
  unsigned int n_, nq_;
  /// Sum-factorization sweeps (dispatch tables and scratch).
  KernelBackend<Number> backend_;
  /// Tensorized reference quadrature weights (for compressed-metric JxW).
  const Number *q_weight_ = nullptr;
  unsigned int batch_ = 0;
  std::size_t metric_offset_ = 0;

  // Per-batch metric state cached by reinit().
  GeometryType geom_type_ = GeometryType::general;
  const Tensor2<VA> *jac_q_ = nullptr; ///< per-q J^{-T} (general batches)
  const VA *jxw_q_ = nullptr;          ///< per-q JxW (general batches)
  Tensor2<VA> jit_const_;              ///< batch J^{-T} (compressed batches)
  VA det_const_;                       ///< batch |det J| (compressed batches)

  AlignedVector<VA> values_dofs_, values_quad_, gradients_quad_;
};

} // namespace dgflow
