#pragma once

// Symmetric interior penalty (SIP) DG Laplacian, evaluated matrix-free
// (Eq. (7) of the paper): cell loop for the grad-grad term and face loops
// for consistency, adjoint-consistency and penalty terms. This operator is
// the left-hand side of the pressure Poisson equation (2) and the workhorse
// of the multigrid smoother benchmarks (Figs. 6-10).
//
// Evaluation interface per operators/README.md (contract v2): hooked
// vmult(dst, src, pre, post) for the homogeneous action, driven by the
// shared cell_face_loop; inhomogeneous data enters via assemble_rhs. The
// weak form is written once, as the cell/face/boundary integrals that
// vmult applies through apply_weak_form, compute_diagonal and
// compute_cell_blocks probe with unit vectors and assemble_rhs evaluates at
// zero DoF values with the Dirichlet data.

#include "instrumentation/profiler.h"
#include "matrixfree/field_tools.h"
#include "matrixfree/operator_diagonal.h"
#include "operators/boundary.h"

namespace dgflow
{
template <typename Number>
class LaplaceOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  LaplaceOperator() = default;

  void reinit(const MatrixFree<Number> &mf, const unsigned int space,
              const unsigned int quad, BoundaryMap bc)
  {
    mf_ = &mf;
    space_ = space;
    quad_ = quad;
    bc_ = std::move(bc);
  }

  const MatrixFree<Number> &matrix_free() const { return *mf_; }
  unsigned int space() const { return space_; }
  unsigned int quad() const { return quad_; }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, 1); }

  void initialize_vector(VectorType &v) const { v.reinit(n_dofs()); }

  /// Templated on the vector type (vector-space concept): a serial Vector
  /// runs the classic cell/inner-face/boundary-face loops; a
  /// vmpi::DistributedVector runs this rank's batch ranges with the ghost
  /// exchange overlapped behind the owned-cell loop. dst comes back
  /// owned-only (both sides of a cut face evaluate the full flux and keep
  /// their own side, so no compress is needed); src is left ghosted.
  ///
  /// Contract v2 hooks: pre/post are per-cell-batch DoF-range callbacks
  /// executed by cell_face_loop before the batch's src entries are first
  /// read and after its dst entries are last written (loop_hooks.h); the
  /// defaults compile the scheduling away.
  template <typename VectorType2, typename PreFn = NoRangeHook,
            typename PostFn = NoRangeHook>
  void vmult(VectorType2 &dst, const VectorType2 &src, PreFn &&pre = PreFn(),
             PostFn &&post = PostFn()) const
  {
    if constexpr (is_distributed_vector_v<VectorType2>)
      dst.reinit_like(src, true);
    else
      dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("laplace");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("laplace", std::max(src.size(), dst.size()));
    DGFLOW_PROF_GAUGE("laplace_bytes_per_dof",
                      mf_->estimated_vmult_bytes_per_dof(space_, quad_));

    apply_weak_form<1>(*mf_, space_, quad_, *this, dst, src, ZeroData(),
                       std::forward<PreFn>(pre), std::forward<PostFn>(post));
  }

  /// The weak form, defined once: vmult applies it through apply_weak_form,
  /// compute_diagonal probes it with unit vectors and assemble_rhs takes the
  /// data terms from boundary_integral (matrixfree/operator_diagonal.h).
  template <typename CellEval>
  void cell_integral(CellEval &phi) const
  {
    phi.evaluate(false, true);
    for (unsigned int q = 0; q < phi.n_q_points; ++q)
      phi.submit_gradient(phi.get_gradient(q), q);
    phi.integrate(false, true);
  }

  template <typename FaceEval>
  void face_integral(FaceEval &phi_m, FaceEval &phi_p) const
  {
    phi_m.evaluate(true, true);
    phi_p.evaluate(true, true);
    const VA sigma = phi_m.penalty_parameter();
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const VA jump = phi_m.get_value(q) - phi_p.get_value(q);
      // normal derivative w.r.t. the minus normal on both sides
      const VA avg_dn = Number(0.5) * (phi_m.get_normal_derivative(q) -
                                       phi_p.get_normal_derivative(q));
      const VA flux = sigma * jump - avg_dn;
      phi_m.submit_value(flux, q);
      phi_p.submit_value(-flux, q);
      // -[u] {grad v . n}: each side tests with its own outward normal
      const VA w = Number(-0.5) * jump;
      phi_m.submit_normal_derivative(w, q);
      phi_p.submit_normal_derivative(-w, q);
    }
    phi_m.integrate(true, true);
    phi_p.integrate(true, true);
  }

  /// Dirichlet faces; Neumann faces have no boundary integral.
  bool has_boundary_integral(const unsigned int boundary_id) const
  {
    return bc_.type_of(boundary_id) != BoundaryType::neumann;
  }

  /// Dirichlet faces with the data binder g (ZeroData for the homogeneous
  /// action): mirror ghost u+ = 2 g - u, so jump = 2 (u - g), {dn} = dn.
  template <typename FaceEval, typename Data>
  void boundary_integral(FaceEval &phi_m, const Data &g) const
  {
    phi_m.evaluate(true, true);
    const VA sigma = phi_m.penalty_parameter();
    const auto g_q = g(phi_m);
    for (unsigned int q = 0; q < phi_m.n_q_points; ++q)
    {
      const VA u = phi_m.get_value(q) - g_q(q);
      const VA dn = phi_m.get_normal_derivative(q);
      phi_m.submit_value(Number(2) * sigma * u - dn, q);
      phi_m.submit_normal_derivative(-u, q);
    }
    phi_m.integrate(true, true);
  }

  /// Assembles the right-hand side for -laplace(u) = f with Dirichlet data
  /// g_d and Neumann data g_n (normal derivative); an empty function adds
  /// nothing.
  void assemble_rhs(VectorType &rhs, const ScalarFunction &f,
                    const ScalarFunction &g_d = {},
                    const ScalarFunction &g_n = {}) const
  {
    rhs.reinit(n_dofs());
    const auto at_points = [](const ScalarFunction &fn) {
      const auto bind = [&fn](const auto &phi) {
        return [&fn, &phi](const unsigned int q) {
          return point_values(phi, q, fn);
        };
      };
      return fn ? std::optional(bind) : std::nullopt;
    };
    add_data_terms<1>(*mf_, space_, quad_, *this, rhs, [&] {
      return DataTerms{at_points(f), at_points(g_d), at_points(g_n)};
    });
  }

  /// Operator diagonal (for the point-Jacobi preconditioner inside the
  /// Chebyshev smoother), probed from the weak form on the loop driver.
  void compute_diagonal(VectorType &diag) const
  {
    probe_diagonal<1>(*mf_, space_, quad_, *this, diag);
  }

  /// Diagonal block of every cell (for the block-Jacobi smoother of the
  /// multigrid's DG levels), probed like the diagonal: n x n column-major
  /// per cell, n = dofs_per_cell (probe_cell_blocks).
  void compute_cell_blocks(VectorType &blocks) const
  {
    probe_cell_blocks<1>(*mf_, space_, quad_, *this, blocks);
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  BoundaryMap bc_;
};

} // namespace dgflow
