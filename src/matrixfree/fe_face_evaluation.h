#pragma once

// Face-wise evaluator for DG numerical fluxes: interpolates the adjacent
// cells' dof values onto the face quadrature points (values and full
// gradients), including the orientation permutation for unstructured
// cross-tree faces and the subface interpolation on hanging faces (the
// coarse side of a 2:1 interface is evaluated on the fine side's quadrature
// points). The fine cell is always the "interior" (minus) side; its ordering
// defines the quadrature layout shared by both sides and the stored metric.
//
// Mirrors the two fast paths of FEEvaluation: the face sum-factorization
// sweeps are delegated to the KernelBackend built at construction
// (fem/kernel_backend.h - batch applies the fixed-size face tables where
// they exist), and per-batch constant metric data (normal, surface Jacobian,
// J^{-T}) cached by reinit for Cartesian/affine face batches. The
// collocation plane shortcut and the orientation permutation stay here.

#include "fem/kernel_backend.h"
#include "matrixfree/matrix_free.h"

namespace dgflow
{
template <typename Number, int n_components_ = 1>
class FEFaceEvaluation
{
public:
  using VA = VectorizedArray<Number>;
  static constexpr unsigned int n_lanes = VA::width;
  static constexpr int n_components = n_components_;
  static_assert(n_components == 1 || n_components == 3);

  using value_type = std::conditional_t<n_components == 1, VA, Tensor1<VA>>;
  using gradient_type =
    std::conditional_t<n_components == 1, Tensor1<VA>, Tensor2<VA>>;

  FEFaceEvaluation(const MatrixFree<Number> &mf, const unsigned int space,
                   const unsigned int quad, const bool interior)
    : mf_(mf), space_(space), quad_(quad), interior_(interior),
      shape_(mf.shape_info(space, quad)), n_(shape_.n_dofs_1d),
      nq_(shape_.n_q_1d),
      backend_(mf.kernel_backend(), shape_),
      q_weight_(mf.face_metric(quad).q_weight.data())
  {
    n_q_points = nq_ * nq_;
    dofs_per_component = n_ * n_ * n_;
    values_dofs_.resize(n_components * dofs_per_component);
    values_quad_.resize(n_components * n_q_points);
    gradients_quad_.resize(n_components * dim * n_q_points);
    const unsigned int plane = std::max(n_, nq_) * std::max(n_, nq_);
    plane_v_.resize(n_components * plane);
    plane_dn_.resize(n_components * plane);
    tmp2_.resize(plane);
    perm_.resize(n_q_points);
  }

  void reinit(const unsigned int face_batch)
  {
    batch_index_ = face_batch;
    zero_ = false;
    const auto &b = mf_.face_batch(face_batch);
    DGFLOW_DEBUG_ASSERT(interior_ || b.interior,
                        "exterior evaluator on a boundary face");
    metric_offset_ = std::size_t(face_batch) * n_q_points;

    const auto &metric = mf_.face_metric(quad_);
    geom_type_ = metric.type[face_batch];
    const std::size_t slot = metric.data_index[face_batch];
    if (geom_type_ == GeometryType::general)
    {
      normal_q_ = metric.normal.data() + slot * n_q_points;
      jxw_q_ = metric.JxW.data() + slot * n_q_points;
      jac_q_ = (interior_ ? metric.inv_jac_t_m : metric.inv_jac_t_p).data() +
               slot * n_q_points;
    }
    else
    {
      normal_const_ = metric.batch_normal[slot];
      jxw_scale_const_ = metric.batch_jxw_scale[slot];
      jit_const_ = interior_ ? metric.batch_inv_jac_t_m[slot]
                             : metric.batch_inv_jac_t_p[slot];
      normal_q_ = nullptr;
      jxw_q_ = nullptr;
      jac_q_ = nullptr;
    }

    face_no_ = interior_ ? b.face_no_m : b.face_no_p;
    normal_dir_ = face_no_ / 2;
    side_ = face_no_ % 2;
    const auto t = face_tangential_dims(normal_dir_);
    tangential_[0] = t[0];
    tangential_[1] = t[1];

    hanging_ = !interior_ && b.is_hanging();
    subface_[0] = b.subface0;
    subface_[1] = b.subface1;

    // permutation from the minus q-point ordering to this side's own plane
    // ordering (identity for the interior side)
    use_perm_ = !interior_ && b.orientation != 0;
    if (use_perm_)
      for (unsigned int q1 = 0; q1 < nq_; ++q1)
        for (unsigned int q0 = 0; q0 < nq_; ++q0)
        {
          const auto [j0, j1] =
            orient_face_coords(b.orientation, q0, q1, nq_);
          perm_[q1 * nq_ + q0] = j1 * nq_ + j0;
        }
  }

  unsigned int n_filled_lanes() const
  {
    return mf_.face_batch(batch_index_).n_filled;
  }

  /// Gathers this side's cell blocks through the vector's
  /// local_dof_offset() (Vector, vmpi::DistributedVector or the loop
  /// driver's chunk view): reading the off-rank side of a cut face pulls
  /// from the ghost section (debug-asserts an up-to-date ghost state).
  template <typename VectorLike>
  void read_dof_values(const VectorLike &src)
  {
    const auto &b = mf_.face_batch(batch_index_);
    const auto &cells = interior_ ? b.cells_m : b.cells_p;
    const unsigned int n_cell_dofs = n_components * dofs_per_component;
    std::size_t offsets[n_lanes];
    for (unsigned int l = 0; l < n_lanes; ++l)
      offsets[l] = src.local_dof_offset(cells[l], n_cell_dofs);
    vectorized_load_and_transpose(n_cell_dofs, src.data(), offsets,
                                  values_dofs_.data());
  }

  /// Accumulates this side's lanes whose cell the vector owns. On a cut
  /// face (or a face two thread chunks share) each side evaluates the full
  /// flux but keeps its own cells' contribution (both-sides-evaluate — dst
  /// needs no compress()).
  template <typename VectorLike>
  void distribute_local_to_global(VectorLike &dst) const
  {
    const auto &b = mf_.face_batch(batch_index_);
    const auto &cells = interior_ ? b.cells_m : b.cells_p;
    const unsigned int n_cell_dofs = n_components * dofs_per_component;
    for (unsigned int l = 0; l < b.n_filled; ++l)
    {
      if (!dst.is_owned_element(cells[l]))
        continue;
      Number *DGFLOW_RESTRICT out =
        dst.data() + dst.local_dof_offset(cells[l], n_cell_dofs);
      for (unsigned int i = 0; i < n_cell_dofs; ++i)
        out[i] += values_dofs_[i][l];
    }
  }

  /// Holds this side at zero DoF values until the next reinit or
  /// hold_at_zero(false): evaluate then writes zero quadrature values and
  /// integrate does nothing. The unit-vector probes
  /// (matrixfree/operator_diagonal.h) hold the side of an interior face they
  /// do not probe, whose evaluation and integration would be discarded.
  void hold_at_zero(const bool hold = true) { zero_ = hold; }

  void evaluate(const bool values, const bool gradients)
  {
    (void)values;
    if (zero_)
    {
      std::fill(values_quad_.begin(), values_quad_.end(), VA(Number(0)));
      if (gradients)
        std::fill(gradients_quad_.begin(), gradients_quad_.end(),
                  VA(Number(0)));
      return;
    }
    for (int c = 0; c < n_components; ++c)
    {
      const VA *dofs = values_dofs_.data() + c * dofs_per_component;
      VA *pv = plane_v_.data() + c * plane_stride();
      VA *pdn = plane_dn_.data() + c * plane_stride();
      backend_.contract_to_face(shape_.face_value[side_].data(), dofs, pv,
                                normal_dir_);
      if (gradients)
        backend_.contract_to_face(shape_.face_grad[side_].data(), dofs, pdn,
                                  normal_dir_);

      // 2D interpolation to quadrature points in this side's own ordering
      VA *vq = values_quad_.data() + c * n_q_points;
      interp_plane(pv, vq, value_matrix(0), value_matrix(1));
      if (gradients)
      {
        VA *g = gradients_quad_.data() + c * dim * n_q_points;
        // tangential derivatives of the trace
        interp_plane(pv, g + tang_slot(0) * n_q_points, grad_matrix(0),
                     value_matrix(1));
        interp_plane(pv, g + tang_slot(1) * n_q_points, value_matrix(0),
                     grad_matrix(1));
        // normal derivative plane
        interp_plane(pdn, g + normal_dir_ * n_q_points, value_matrix(0),
                     value_matrix(1));
      }
    }
    if (use_perm_)
    {
      for (int c = 0; c < n_components; ++c)
        permute_to_minus(values_quad_.data() + c * n_q_points);
      if (gradients)
        for (int c = 0; c < n_components; ++c)
          for (unsigned int d = 0; d < dim; ++d)
            permute_to_minus(gradients_quad_.data() +
                             (c * dim + d) * n_q_points);
    }
  }

  void integrate(const bool values, const bool gradients)
  {
    if (zero_)
      return;
    if (use_perm_)
    {
      if (values)
        for (int c = 0; c < n_components; ++c)
          permute_from_minus(values_quad_.data() + c * n_q_points);
      if (gradients)
        for (int c = 0; c < n_components; ++c)
          for (unsigned int d = 0; d < dim; ++d)
            permute_from_minus(gradients_quad_.data() +
                               (c * dim + d) * n_q_points);
    }
    for (int c = 0; c < n_components; ++c)
    {
      VA *dofs = values_dofs_.data() + c * dofs_per_component;
      for (unsigned int i = 0; i < dofs_per_component; ++i)
        dofs[i] = VA(Number(0));
      VA *pv = plane_v_.data() + c * plane_stride();
      VA *pdn = plane_dn_.data() + c * plane_stride();

      bool have_pv = false;
      if (values)
      {
        interp_plane_transpose<false>(values_quad_.data() + c * n_q_points, pv,
                                      value_matrix(0), value_matrix(1));
        have_pv = true;
      }
      if (gradients)
      {
        VA *g = gradients_quad_.data() + c * dim * n_q_points;
        if (have_pv)
          interp_plane_transpose<true>(g + tang_slot(0) * n_q_points, pv,
                                       grad_matrix(0), value_matrix(1));
        else
          interp_plane_transpose<false>(g + tang_slot(0) * n_q_points, pv,
                                        grad_matrix(0), value_matrix(1));
        interp_plane_transpose<true>(g + tang_slot(1) * n_q_points, pv,
                                     value_matrix(0), grad_matrix(1));
        interp_plane_transpose<false>(g + normal_dir_ * n_q_points, pdn,
                                      value_matrix(0), value_matrix(1));
        have_pv = true;
      }
      if (have_pv)
        backend_.expand_from_face_add(shape_.face_value[side_].data(), pv,
                                      dofs, normal_dir_);
      if (gradients)
        backend_.expand_from_face_add(shape_.face_grad[side_].data(), pdn,
                                      dofs, normal_dir_);
    }
  }

  // ---- quadrature point access (in the minus ordering) ----

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
    const Tensor2<VA> &jit =
      geom_type_ == GeometryType::general ? jac_q_[q] : jit_const_;
    if constexpr (n_components == 1)
    {
      Tensor1<VA> g;
      for (unsigned int d = 0; d < dim; ++d)
        g[d] = gradients_quad_[d * n_q_points + q];
      return apply(jit, g);
    }
    else
    {
      Tensor2<VA> g;
      for (int c = 0; c < n_components; ++c)
      {
        Tensor1<VA> gr;
        for (unsigned int d = 0; d < dim; ++d)
          gr[d] = gradients_quad_[(c * dim + d) * n_q_points + q];
        const Tensor1<VA> gp = apply(jit, gr);
        for (unsigned int d = 0; d < dim; ++d)
          g[c][d] = gp[d];
      }
      return g;
    }
  }

  /// Unit normal, outward with respect to this evaluator's cell.
  Tensor1<VA> get_normal_vector(const unsigned int q) const
  {
    Tensor1<VA> n =
      geom_type_ == GeometryType::general ? normal_q_[q] : normal_const_;
    if (!interior_)
      n = -n;
    return n;
  }

  /// Derivative of the solution in the direction of this side's outward
  /// normal.
  value_type get_normal_derivative(const unsigned int q) const
  {
    const Tensor1<VA> n = get_normal_vector(q);
    const gradient_type g = get_gradient(q);
    if constexpr (n_components == 1)
      return dot(g, n);
    else
    {
      Tensor1<VA> r;
      for (int c = 0; c < n_components; ++c)
        r[c] = g[c][0] * n[0] + g[c][1] * n[1] + g[c][2] * n[2];
      return r;
    }
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
    const Tensor2<VA> &jit =
      geom_type_ == GeometryType::general ? jac_q_[q] : jit_const_;
    const VA jxw = JxW(q);
    if constexpr (n_components == 1)
    {
      const Tensor1<VA> t = apply_transpose(jit, g);
      for (unsigned int d = 0; d < dim; ++d)
        gradients_quad_[d * n_q_points + q] = t[d] * jxw;
    }
    else
      for (int c = 0; c < n_components; ++c)
      {
        Tensor1<VA> gc;
        for (unsigned int d = 0; d < dim; ++d)
          gc[d] = g[c][d];
        const Tensor1<VA> t = apply_transpose(jit, gc);
        for (unsigned int d = 0; d < dim; ++d)
          gradients_quad_[(c * dim + d) * n_q_points + q] = t[d] * jxw;
      }
  }

  /// Submits v * n_side as a gradient test contribution, i.e. the test
  /// function sees v * dphi/dn of this side's outward normal.
  void submit_normal_derivative(const value_type &v, const unsigned int q)
  {
    const Tensor1<VA> n = get_normal_vector(q);
    if constexpr (n_components == 1)
    {
      Tensor1<VA> g;
      for (unsigned int d = 0; d < dim; ++d)
        g[d] = v * n[d];
      submit_gradient(g, q);
    }
    else
    {
      Tensor2<VA> g;
      for (int c = 0; c < n_components; ++c)
        for (unsigned int d = 0; d < dim; ++d)
          g[c][d] = v[c] * n[d];
      submit_gradient(g, q);
    }
  }

  VA *begin_dof_values() { return values_dofs_.data(); }
  const VA *begin_dof_values() const { return values_dofs_.data(); }

  Tensor1<VA> quadrature_point(const unsigned int q) const
  {
    return mf_.face_metric(quad_).q_points[metric_offset_ + q];
  }

  VA JxW(const unsigned int q) const
  {
    if (geom_type_ == GeometryType::general)
      return jxw_q_[q];
    return jxw_scale_const_ * q_weight_[q];
  }

  GeometryType geometry_type() const { return geom_type_; }

  /// Interior-penalty coefficient sigma = c * (k+1)^2 * max(A_f/V) of this
  /// batch. The safety factor c (MatrixFree::AdditionalData::penalty_safety)
  /// keeps the SIP bilinear form coercive on strongly sheared cells, where
  /// the trace inequality constant exceeds the unit-cube value.
  VA penalty_parameter() const
  {
    const Number kp1 = Number(shape_.degree + 1);
    return mf_.face_metric(quad_).penalty_factor[batch_index_] *
           Number(mf_.penalty_safety() * mf_.penalty_scaling(space_)) * kp1 *
           kp1;
  }

  unsigned int face_batch() const { return batch_index_; }

  unsigned int boundary_id() const
  {
    return mf_.face_batch(batch_index_).boundary_id;
  }

  unsigned int n_q_points;
  unsigned int dofs_per_component;

private:
  unsigned int plane_stride() const
  {
    return std::max(n_, nq_) * std::max(n_, nq_);
  }

  /// 0-based slot of the first/second tangential direction in the reference
  /// gradient storage.
  unsigned int tang_slot(const unsigned int j) const { return tangential_[j]; }

  /// The 1D interpolation matrix for face-plane axis j (value part).
  const Number *value_matrix(const unsigned int j) const
  {
    if (hanging_)
      return shape_.subface_values[subface_[j]].data();
    return shape_.values.data();
  }

  const Number *grad_matrix(const unsigned int j) const
  {
    if (hanging_)
      return shape_.subface_gradients[subface_[j]].data();
    return shape_.gradients.data();
  }

  /// Applies M0 along axis 0 and M1 along axis 1 of the n x n plane,
  /// producing the nq x nq output.
  void interp_plane(const VA *in, VA *out, const Number *M0, const Number *M1)
  {
    if (shape_.collocation && !hanging_ && M0 == shape_.values.data() &&
        M1 == shape_.values.data())
    {
      for (unsigned int i = 0; i < n_q_points; ++i)
        out[i] = in[i];
      return;
    }
    backend_.interp_plane(M0, M1, in, out);
  }

  /// Transpose of interp_plane; accumulates into out when add is set.
  template <bool add>
  void interp_plane_transpose(const VA *in, VA *out, const Number *M0,
                              const Number *M1)
  {
    if (shape_.collocation && !hanging_ && M0 == shape_.values.data() &&
        M1 == shape_.values.data())
    {
      if constexpr (add)
        for (unsigned int i = 0; i < n_q_points; ++i)
          out[i] += in[i];
      else
        for (unsigned int i = 0; i < n_q_points; ++i)
          out[i] = in[i];
      return;
    }
    backend_.interp_plane_transpose(M0, M1, in, out, add);
  }

  void permute_to_minus(VA *data)
  {
    for (unsigned int q = 0; q < n_q_points; ++q)
      tmp2_[q] = data[perm_[q]];
    for (unsigned int q = 0; q < n_q_points; ++q)
      data[q] = tmp2_[q];
  }

  void permute_from_minus(VA *data)
  {
    for (unsigned int q = 0; q < n_q_points; ++q)
      tmp2_[perm_[q]] = data[q];
    for (unsigned int q = 0; q < n_q_points; ++q)
      data[q] = tmp2_[q];
  }

  const MatrixFree<Number> &mf_;
  unsigned int space_, quad_;
  bool interior_;
  const ShapeInfo<Number> &shape_;
  unsigned int n_, nq_;
  /// Sum-factorization sweeps (dispatch tables and scratch).
  KernelBackend<Number> backend_;
  /// Tensorized 2D reference weights (for compressed-metric JxW).
  const Number *q_weight_ = nullptr;

  unsigned int batch_index_ = 0;
  std::size_t metric_offset_ = 0;

  // Per-batch metric state cached by reinit().
  GeometryType geom_type_ = GeometryType::general;
  const Tensor1<VA> *normal_q_ = nullptr; ///< per-q normal (general)
  const VA *jxw_q_ = nullptr;             ///< per-q JxW (general)
  const Tensor2<VA> *jac_q_ = nullptr;    ///< per-q J^{-T}, this side (general)
  Tensor1<VA> normal_const_;              ///< batch normal (compressed)
  VA jxw_scale_const_;                    ///< batch surface Jacobian
  Tensor2<VA> jit_const_;                 ///< batch J^{-T}, this side
  unsigned int face_no_ = 0, normal_dir_ = 0, side_ = 0;
  std::array<unsigned int, 2> tangential_{{1, 2}};
  bool hanging_ = false;
  std::array<unsigned char, 2> subface_{{255, 255}};
  bool use_perm_ = false;
  bool zero_ = false; ///< held at zero DoF values (hold_at_zero)

  AlignedVector<VA> values_dofs_, values_quad_, gradients_quad_;
  AlignedVector<VA> plane_v_, plane_dn_, tmp2_;
  std::vector<unsigned int> perm_;
};

} // namespace dgflow
