#pragma once

// Mass operator and its exact inverse. With the nodal basis collocated at
// the Gauss quadrature points, the DG mass matrix is diagonal with entries
// JxW even on deformed cells - the property the dual splitting scheme
// exploits for the cheap M^{-1} applications in Eqs. (1) and (3) and as the
// preconditioner of the projection/penalty solves (paper Section 5.3).
//
// Evaluation interface per operators/README.md (contract v2): hooked
// vmult(dst, src, pre, post) driven by cell_only_loop (the operator is
// cell-local and time-independent); apply_inverse is the extra
// exact-inverse entry point the splitting scheme relies on.

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"

namespace dgflow
{
template <typename Number, int n_components = 1>
class MassOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int space,
              const unsigned int quad)
  {
    mf_ = &mf;
    space_ = space;
    quad_ = quad;
    DGFLOW_ASSERT(mf.shape_info(space, quad).collocation,
                  "MassOperator requires the collocated quadrature");
  }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, n_components); }

  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void vmult(VectorType &dst, const VectorType &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    dst.reinit(n_dofs(), true);
    apply_scaled<false>(dst, src, std::forward<PreFn>(pre),
                        std::forward<PostFn>(post));
  }

  /// dst = M^{-1} src (exact, diagonal in the collocated basis).
  template <typename PreFn = NoRangeHook, typename PostFn = NoRangeHook>
  void apply_inverse(VectorType &dst, const VectorType &src,
                     PreFn &&pre = PreFn(), PostFn &&post = PostFn()) const
  {
    dst.reinit(n_dofs(), true);
    apply_scaled<true>(dst, src, std::forward<PreFn>(pre),
                       std::forward<PostFn>(post));
  }

private:
  template <bool inverse, typename PreFn, typename PostFn>
  void apply_scaled(VectorType &dst, const VectorType &src, PreFn &&pre,
                    PostFn &&post) const
  {
    DGFLOW_PROF_SCOPE(inverse ? "mass_inverse" : "mass");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT(inverse ? "mass_inverse" : "mass",
                           std::max(src.size(), dst.size()));
    const auto &metric = mf_->cell_metric(quad_);
    const unsigned int nq = metric.n_q;
    const auto make_cell = [&metric, nq, &src, this](auto &dst_v) {
      return [&metric, nq, &dst_v, &src, this](const unsigned int b) {
        const auto &batch = mf_->cell_batch(b);
        for (unsigned int l = 0; l < batch.n_filled; ++l)
        {
          const std::size_t base =
            std::size_t(batch.cells[l]) * nq * n_components;
          for (int c = 0; c < n_components; ++c)
            for (unsigned int q = 0; q < nq; ++q)
            {
              const Number jxw = metric.jxw(b, q)[l];
              const std::size_t idx = base + c * nq + q;
              dst_v[idx] = inverse ? src[idx] / jxw : src[idx] * jxw;
            }
        }
      };
    };
    const unsigned int block = nq * n_components;
    cell_only_loop(*mf_, dst, src, block, block, make_cell,
                   std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
};

/// The inverse mass as a preconditioner (the penalty step's, Eq. 5):
/// z_i = r_i / (M 1)_i over the stored diagonal M 1 of the collocated mass
/// matrix, which is bitwise MassOperator::apply_inverse (M 1 holds each
/// JxW exactly). It acts entry by entry, so solve_cg fuses its map into the
/// vector sweeps (PointwisePreconditionerFor) and never calls its vmult.
template <typename Number>
class InverseMassPreconditioner
{
public:
  using VectorType = Vector<Number>;

  /// M 1 from one application of @p mass. The diagonal is allocated before
  /// the temporary: freed from the top of the heap, the temporary leaves
  /// no hole below the diagonal. Such a hole let the heap be trimmed when
  /// the lung application was torn down, so each following g=3
  /// construction faulted about 3,900 more pages back in.
  template <int n_components>
  void reinit(const MassOperator<Number, n_components> &mass)
  {
    diag_.reinit(mass.n_dofs(), true);
    VectorType ones(mass.n_dofs());
    ones = Number(1);
    mass.vmult(diag_, ones);
  }

  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst.reinit(src.size(), true);
    Number *DGFLOW_RESTRICT d = dst.data();
    const Number *DGFLOW_RESTRICT s = src.data();
    const auto f = pointwise();
    concurrency::ThreadPool::instance().parallel_for(
      src.size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = f(i, s[i]);
      });
  }

  /// z_i = f(i, r_i), bitwise entry i of vmult (PointwisePreconditionerFor).
  auto pointwise() const
  {
    return [m = diag_.data()](const std::size_t i, const Number r) {
      return r / m[i];
    };
  }

  /// M 1: the diagonal of the mass matrix.
  const VectorType &mass_diagonal() const { return diag_; }

private:
  VectorType diag_;
};

} // namespace dgflow
