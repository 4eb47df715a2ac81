#pragma once

// The three loop-driver passes of an operator's one weak form
// (operators/README.md): the operator writes only its integrals, and these
// passes wrap them in the traversal.
//
// apply_weak_form: the operator's action. Each integral runs between the
// gather of the DoF values and their scatter; vmult passes ZeroData, the
// time-dependent apply the flow boundary data (operators/boundary.h).
//
// probe_diagonal: the operator diagonal by unit-vector probing. For each
// local DoF i of a cell or face side, load e_i, run the operator's integral
// and keep entry i. On an interior face the other side's DoFs stay at zero,
// so only same-side couplings reach the kept entries.
//
// add_data_terms: the inhomogeneous data terms of a right-hand side. A
// volume source and a Neumann flux are tested with v; Dirichlet data enter
// through the operator's own boundary integral, evaluated at zero DoF values
// with the data as exterior value and subtracted. Negating an integral is
// exact, so the SIP data terms need no expression of their own.
//
// All three run the driver's chunk masking and order (cell first, then
// faces ascending, minus side before plus side), so their results are
// bitwise the same at every pool width.

#include <algorithm>
#include <memory>
#include <optional>

#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"

namespace dgflow
{
/// Binder of homogeneous data: bound to an evaluator it returns q -> 0.
/// vmult and probe_diagonal pass it to boundary_integral, whose exterior
/// value is then the mirrored interior one, bitwise (u - 0 == u, also for
/// -0).
struct ZeroData
{
  template <typename Eval>
  auto operator()(const Eval &) const
  {
    // value-initialized: zero in every lane and component
    return [](unsigned int) { return typename Eval::value_type(); };
  }
};

/// The data of one right-hand side (add_data_terms): optional binders, each
/// called with an evaluator reinit'ed on a batch and returning q -> value at
/// that batch's quadrature points. An empty part contributes nothing; a part
/// a right-hand side never has is std::optional<ZeroData>().
template <typename F, typename G, typename H>
struct DataTerms
{
  std::optional<F> f; ///< volume source, tested with v on the cells
  std::optional<G> g; ///< Dirichlet value, through op.boundary_integral
  std::optional<H> h; ///< Neumann flux, tested with v on the other faces
};

/// dst += the weak form of the operator @p op on @p space with
/// @p n_components components, applied to src: op provides the member
/// templates cell_integral(phi), face_integral(phi_m, phi_p),
/// boundary_integral(phi_m, g) and has_boundary_integral(boundary_id). The
/// data binder @p g is shared by every thread chunk, so it must be safe to
/// call concurrently. pre/post are forwarded to cell_face_loop; the caller
/// zeroes dst.
template <int n_components, typename Number, typename Operator,
          typename VectorType, typename Data, typename PreFn, typename PostFn>
void apply_weak_form(const MatrixFree<Number> &mf, const unsigned int space,
                     const unsigned int quad, const Operator &op,
                     VectorType &dst, const VectorType &src, const Data &g,
                     PreFn &&pre, PostFn &&post)
{
  const auto make_kernels = [&](auto &dst_v) {
    auto phi =
      std::make_shared<FEEvaluation<Number, n_components>>(mf, space, quad);
    auto phi_m = std::make_shared<FEFaceEvaluation<Number, n_components>>(
      mf, space, quad, true);
    auto phi_p = std::make_shared<FEFaceEvaluation<Number, n_components>>(
      mf, space, quad, false);

    const auto cell = [phi, &dst_v, &src, &op](const unsigned int b) {
      phi->reinit(b);
      phi->read_dof_values(src);
      op.cell_integral(*phi);
      phi->distribute_local_to_global(dst_v);
    };

    const auto inner = [phi_m, phi_p, &dst_v, &src,
                        &op](const unsigned int b) {
      phi_m->reinit(b);
      phi_p->reinit(b);
      phi_m->read_dof_values(src);
      phi_p->read_dof_values(src);
      op.face_integral(*phi_m, *phi_p);
      phi_m->distribute_local_to_global(dst_v);
      phi_p->distribute_local_to_global(dst_v);
    };

    const auto boundary = [phi_m, &dst_v, &src, &op, &g,
                           &mf](const unsigned int b) {
      if (!op.has_boundary_integral(mf.face_batch(b).boundary_id))
        return;
      phi_m->reinit(b);
      phi_m->read_dof_values(src);
      op.boundary_integral(*phi_m, g);
      phi_m->distribute_local_to_global(dst_v);
    };

    return LoopKernels{cell, inner, boundary};
  };

  const unsigned int block = n_components * mf.dofs_per_cell(space);
  cell_face_loop(mf, dst, src, block, block, make_kernels,
                 std::forward<PreFn>(pre), std::forward<PostFn>(post));
}

/// Diagonal of the operator @p op on @p space with @p n_components
/// components; op provides the member templates cell_integral(phi),
/// face_integral(phi_m, phi_p), boundary_integral(phi_m, g) and
/// has_boundary_integral(boundary_id).
template <int n_components, typename Number, typename Operator>
void probe_diagonal(const MatrixFree<Number> &mf, const unsigned int space,
                    const unsigned int quad, const Operator &op,
                    Vector<Number> &diag)
{
  using VA = VectorizedArray<Number>;
  const unsigned int n = n_components * mf.dofs_per_cell(space);
  diag.reinit(mf.n_dofs(space, n_components));

  const auto make_kernels = [&](auto &dst_v) {
    auto phi =
      std::make_shared<FEEvaluation<Number, n_components>>(mf, space, quad);
    auto phi_m = std::make_shared<FEFaceEvaluation<Number, n_components>>(
      mf, space, quad, true);
    auto phi_p = std::make_shared<FEFaceEvaluation<Number, n_components>>(
      mf, space, quad, false);
    auto kept = std::make_shared<AlignedVector<VA>>(n);

    const auto zero = [n](auto &eval) {
      std::fill_n(eval.begin_dof_values(), n, VA(Number(0)));
    };
    // e_i into eval, then the integral (which zeroes any other face side),
    // keeping entry i; the kept entries are scattered at the end
    const auto probe = [n, kept, zero, &dst_v](auto &eval,
                                               const auto &integral) {
      VA *dofs = eval.begin_dof_values();
      for (unsigned int i = 0; i < n; ++i)
      {
        zero(eval);
        dofs[i] = VA(Number(1));
        integral();
        (*kept)[i] = dofs[i];
      }
      std::copy(kept->begin(), kept->end(), dofs);
      eval.distribute_local_to_global(dst_v);
    };

    const auto cell = [phi, probe, &op](const unsigned int b) {
      phi->reinit(b);
      probe(*phi, [&] { op.cell_integral(*phi); });
    };

    const auto inner = [phi_m, phi_p, probe, zero,
                        &op](const unsigned int b) {
      phi_m->reinit(b);
      phi_p->reinit(b);
      probe(*phi_m, [&] {
        zero(*phi_p);
        op.face_integral(*phi_m, *phi_p);
      });
      probe(*phi_p, [&] {
        zero(*phi_m);
        op.face_integral(*phi_m, *phi_p);
      });
    };

    const auto boundary = [phi_m, probe, &op](const unsigned int b) {
      phi_m->reinit(b);
      if (op.has_boundary_integral(phi_m->boundary_id()))
        probe(*phi_m, [&] { op.boundary_integral(*phi_m, ZeroData()); });
    };

    return LoopKernels{cell, inner, boundary};
  };

  // the probe reads no vector: diag stands in as the loop's src
  cell_face_loop(mf, diag, diag, n, n, make_kernels, NoRangeHook(),
                 NoRangeHook());
}

/// Adds the data terms of the operator @p op on @p space to @p rhs, in one
/// cell_face_loop pass. make_data() is called once per thread chunk, like a
/// kernel factory, and returns the DataTerms{f, g, h} of the right-hand
/// side: f on every cell; g on the boundary faces where
/// op.has_boundary_integral(id) holds, where op.boundary_integral(phi_m, g)
/// at zero DoF values is subtracted; h on the other boundary faces. Every
/// binder is called concurrently from the chunks, so the data it reads must
/// not change during the pass.
template <int n_components, typename Number, typename Operator,
          typename DataFactory>
void add_data_terms(const MatrixFree<Number> &mf, const unsigned int space,
                    const unsigned int quad, const Operator &op,
                    Vector<Number> &rhs, DataFactory &&make_data)
{
  using VA = VectorizedArray<Number>;
  const unsigned int n = n_components * mf.dofs_per_cell(space);

  const auto make_kernels = [&](auto &dst_v) {
    auto phi =
      std::make_shared<FEEvaluation<Number, n_components>>(mf, space, quad);
    auto phi_m = std::make_shared<FEFaceEvaluation<Number, n_components>>(
      mf, space, quad, true);
    auto data = std::make_shared<decltype(make_data())>(make_data());

    // the integral of the binder d tested with v on the reinit'ed eval
    const auto test = [&dst_v](auto &eval, const auto &d) {
      const auto d_q = d(eval);
      for (unsigned int q = 0; q < eval.n_q_points; ++q)
        eval.submit_value(d_q(q), q);
      eval.integrate(true, false);
      eval.distribute_local_to_global(dst_v);
    };

    const auto cell = [phi, data, test](const unsigned int b) {
      if (!data->f)
        return;
      phi->reinit(b);
      test(*phi, *data->f);
    };

    const auto boundary = [phi_m, data, test, n, &op,
                           &dst_v](const unsigned int b) {
      phi_m->reinit(b);
      if (!op.has_boundary_integral(phi_m->boundary_id()))
      {
        if (data->h)
          test(*phi_m, *data->h);
      }
      else if (data->g)
      {
        VA *dofs = phi_m->begin_dof_values();
        std::fill_n(dofs, n, VA(Number(0)));
        op.boundary_integral(*phi_m, *data->g);
        for (unsigned int i = 0; i < n; ++i)
          dofs[i] = -dofs[i];
        phi_m->distribute_local_to_global(dst_v);
      }
    };

    return LoopKernels{cell, [](const unsigned int) {}, boundary};
  };

  // the pass reads no vector: rhs stands in as the loop's src
  cell_face_loop(mf, rhs, rhs, n, n, make_kernels, NoRangeHook(),
                 NoRangeHook());
}

} // namespace dgflow
