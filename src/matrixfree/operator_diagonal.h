#pragma once

// The four loop-driver passes of an operator's one weak form
// (operators/README.md): the operator writes only its integrals, and these
// passes wrap them in the traversal.
//
// apply_weak_form: the operator's action. Each integral runs between the
// gather of the DoF values and their scatter; vmult passes ZeroData, the
// time-dependent apply the flow boundary data (operators/boundary.h). A
// square form reads and integrates on one space; a mixed form (divergence,
// gradient) reads on its trial space and integrates on its test space.
//
// probe_diagonal: the operator diagonal by unit-vector probing. For each
// local DoF j of a cell or face side, load e_j, run the operator's integral
// and keep entry j. On an interior face the other side is held at zero and
// neither evaluated nor integrated, so only same-side couplings are formed.
//
// probe_cell_blocks: the same probe keeping the whole column, which gives
// each cell's diagonal block (the block-Jacobi smoother of the multigrid's
// DG levels inverts them).
//
// add_data_terms: the inhomogeneous data terms of a right-hand side. A
// volume source and a Neumann flux are tested with v; Dirichlet data enter
// through the operator's own boundary integral, evaluated at zero DoF values
// with the data as exterior value and subtracted. Negating an integral is
// exact, so the SIP data terms need no expression of their own.
//
// All four run the driver's chunk masking and order (cell first, then
// faces ascending, minus side before plus side), so their results are
// bitwise the same at every pool width.

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

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

/// The trial space of a mixed weak form (apply_weak_form): the
/// n_components-component functions of MatrixFree space @p index.
template <int n_components_>
struct TrialSpace
{
  static constexpr int n_components = n_components_;
  unsigned int index;
};

/// apply_weak_form's default trial space: its test space (a square form).
struct SameSpace
{};

namespace internal
{
/// One thread chunk's evaluators of the n_components-component functions
/// of one space: a cell evaluator and the two sides of a face.
template <typename Number, int n_components>
struct SpaceEvaluators
{
  SpaceEvaluators(const MatrixFree<Number> &mf, const unsigned int space,
                  const unsigned int quad)
    : cell(std::make_shared<FEEvaluation<Number, n_components>>(mf, space,
                                                                 quad)),
      m(std::make_shared<FEFaceEvaluation<Number, n_components>>(
        mf, space, quad, true)),
      p(std::make_shared<FEFaceEvaluation<Number, n_components>>(
        mf, space, quad, false))
  {}

  std::shared_ptr<FEEvaluation<Number, n_components>> cell;
  std::shared_ptr<FEFaceEvaluation<Number, n_components>> m, p;
};

/// A square weak form seen through the mixed integral signatures of
/// apply_weak_form: its trial and test evaluators are one.
template <typename Operator>
struct SquareForm
{
  const Operator &op;

  template <typename Eval>
  void cell_integral(Eval &, Eval &phi) const
  {
    op.cell_integral(phi);
  }
  template <typename FaceEval>
  void face_integral(FaceEval &, FaceEval &, FaceEval &phi_m,
                     FaceEval &phi_p) const
  {
    op.face_integral(phi_m, phi_p);
  }
  template <typename FaceEval, typename Data>
  void boundary_integral(FaceEval &, FaceEval &phi_m, const Data &g) const
  {
    op.boundary_integral(phi_m, g);
  }
};
} // namespace internal

/// dst += the weak form of the operator @p op applied to src and tested
/// with the @p n_components-component functions of @p space. op provides
/// has_boundary_integral(boundary_id) and member templates for the
/// integrals, on evaluators that already hold the DoF values of src:
/// - square form (@p trial defaults to SameSpace): cell_integral(phi),
///   face_integral(phi_m, phi_p) and boundary_integral(phi_m, g), each on
///   one evaluator per side that both holds src and integrates into dst;
/// - mixed form (@p trial a TrialSpace): cell_integral(u, v),
///   face_integral(u_m, u_p, v_m, v_p) and boundary_integral(u_m, v_m, g),
///   the trial evaluators u holding src and the test evaluators v
///   integrating into dst; g is bound to u_m.
/// The pre hooks tile the trial space's cell blocks and the post hooks the
/// test space's. The data binder @p g is shared by every thread chunk, so it
/// must be safe to call concurrently. pre/post are forwarded to
/// cell_face_loop; the caller zeroes dst.
template <int n_components, typename Number, typename Operator,
          typename VectorType, typename Data, typename PreFn, typename PostFn,
          typename Trial = SameSpace>
void apply_weak_form(const MatrixFree<Number> &mf, const unsigned int space,
                     const unsigned int quad, const Operator &op,
                     VectorType &dst, const VectorType &src, const Data &g,
                     PreFn &&pre, PostFn &&post, const Trial trial = Trial())
{
  static constexpr bool mixed = !std::is_same_v<Trial, SameSpace>;
  using Form = std::conditional_t<mixed, const Operator &,
                                  internal::SquareForm<Operator>>;
  const Form form{op};

  const auto make_kernels = [&](auto &dst_v) {
    // the trial evaluators read src; a square form reads it into the test
    // evaluators, which integrate into dst
    const internal::SpaceEvaluators<Number, n_components> test(mf, space,
                                                               quad);
    const auto trial_evals = [&] {
      if constexpr (mixed)
        return internal::SpaceEvaluators<Number, Trial::n_components>(
          mf, trial.index, quad);
      else
        return test;
    }();

    const auto cell = [u = trial_evals.cell, v = test.cell, &dst_v, &src,
                       &form](const unsigned int b) {
      u->reinit(b);
      if constexpr (mixed)
        v->reinit(b);
      u->read_dof_values(src);
      form.cell_integral(*u, *v);
      v->distribute_local_to_global(dst_v);
    };

    const auto inner = [u_m = trial_evals.m, u_p = trial_evals.p,
                        v_m = test.m, v_p = test.p, &dst_v, &src,
                        &form](const unsigned int b) {
      u_m->reinit(b);
      u_p->reinit(b);
      if constexpr (mixed)
      {
        v_m->reinit(b);
        v_p->reinit(b);
      }
      u_m->read_dof_values(src);
      u_p->read_dof_values(src);
      form.face_integral(*u_m, *u_p, *v_m, *v_p);
      v_m->distribute_local_to_global(dst_v);
      v_p->distribute_local_to_global(dst_v);
    };

    const auto boundary = [u_m = trial_evals.m, v_m = test.m, &dst_v, &src,
                           &op, &form, &g, &mf](const unsigned int b) {
      if (!op.has_boundary_integral(mf.face_batch(b).boundary_id))
        return;
      u_m->reinit(b);
      if constexpr (mixed)
        v_m->reinit(b);
      u_m->read_dof_values(src);
      form.boundary_integral(*u_m, *v_m, g);
      v_m->distribute_local_to_global(dst_v);
    };

    return LoopKernels{cell, inner, boundary};
  };

  const unsigned int dst_block = n_components * mf.dofs_per_cell(space);
  unsigned int src_block = dst_block;
  if constexpr (mixed)
    src_block = Trial::n_components * mf.dofs_per_cell(trial.index);
  cell_face_loop(mf, dst, src, dst_block, src_block, make_kernels,
                 std::forward<PreFn>(pre), std::forward<PostFn>(post));
}

namespace internal
{
/// The unit-vector probe shared by probe_diagonal and probe_cell_blocks. For
/// each local DoF j of a cell or face side it loads e_j, runs the
/// operator's integral and calls sink.column(eval, j): the evaluator's DoF
/// values then hold column j of the side's block, (A e_j) on its own DoFs.
/// sink.done(eval) follows the side's last column. The other side of an
/// interior face is held at zero (FEFaceEvaluation::hold_at_zero), so only
/// the probed side is evaluated and integrated. make_sink(dst_view) is
/// called once per thread chunk; @p dst (with @p dst_block scalars per
/// cell) is the loop's dst and stands in as its src, which no probe reads.
template <int n_components, typename Number, typename Operator,
          typename SinkFactory>
void probe_columns(const MatrixFree<Number> &mf, const unsigned int space,
                   const unsigned int quad, const Operator &op,
                   Vector<Number> &dst, const unsigned int dst_block,
                   SinkFactory &&make_sink)
{
  using VA = VectorizedArray<Number>;
  const unsigned int n = n_components * mf.dofs_per_cell(space);

  const auto make_kernels = [&](auto &dst_v) {
    const SpaceEvaluators<Number, n_components> evals(mf, space, quad);
    auto sink = std::make_shared<decltype(make_sink(dst_v))>(make_sink(dst_v));

    const auto probe = [n, sink](auto &eval, const auto &integral) {
      VA *dofs = eval.begin_dof_values();
      for (unsigned int j = 0; j < n; ++j)
      {
        std::fill_n(dofs, n, VA(Number(0)));
        dofs[j] = VA(Number(1));
        integral();
        sink->column(eval, j);
      }
      sink->done(eval);
    };

    const auto cell = [phi = evals.cell, probe, &op](const unsigned int b) {
      phi->reinit(b);
      probe(*phi, [&] { op.cell_integral(*phi); });
    };

    const auto inner = [phi_m = evals.m, phi_p = evals.p, probe,
                        &op](const unsigned int b) {
      phi_m->reinit(b);
      phi_p->reinit(b);
      const auto integral = [&] { op.face_integral(*phi_m, *phi_p); };
      phi_p->hold_at_zero();
      probe(*phi_m, integral);
      phi_p->hold_at_zero(false);
      phi_m->hold_at_zero();
      probe(*phi_p, integral);
    };

    const auto boundary = [phi_m = evals.m, probe,
                           &op](const unsigned int b) {
      phi_m->reinit(b);
      if (op.has_boundary_integral(phi_m->boundary_id()))
        probe(*phi_m, [&] { op.boundary_integral(*phi_m, ZeroData()); });
    };

    return LoopKernels{cell, inner, boundary};
  };

  cell_face_loop(mf, dst, dst, dst_block, dst_block, make_kernels,
                 NoRangeHook(), NoRangeHook());
}

/// Probe sink of the diagonal: keeps entry j of column j and scatters the
/// kept entries after the side's last column.
template <typename Dst, typename VA>
struct DiagonalSink
{
  Dst &dst;
  AlignedVector<VA> kept;

  template <typename Eval>
  void column(Eval &eval, const unsigned int j)
  {
    kept[j] = eval.begin_dof_values()[j];
  }
  template <typename Eval>
  void done(Eval &eval)
  {
    std::copy(kept.begin(), kept.end(), eval.begin_dof_values());
    eval.distribute_local_to_global(dst);
  }
};

/// Column j of every cell block in a vector of n x n column-major blocks,
/// as an evaluator's scatter target: the n scalars of @p cell start at its
/// block's column j.
template <typename Dst>
struct BlockColumn
{
  using value_type = typename Dst::value_type;

  Dst &blocks;
  unsigned int n, j;

  value_type *data() { return blocks.data(); }
  bool is_owned_element(const std::size_t cell) const
  {
    return blocks.is_owned_element(cell);
  }
  std::size_t local_dof_offset(const std::size_t cell,
                               const unsigned int) const
  {
    return blocks.local_dof_offset(cell, n * n) + std::size_t(j) * n;
  }
};

/// Probe sink of the cell blocks: adds each column into column j of the
/// side's cell blocks.
template <typename Dst>
struct BlockSink
{
  Dst &dst;
  unsigned int n;

  template <typename Eval>
  void column(Eval &eval, const unsigned int j)
  {
    BlockColumn<Dst> target{dst, n, j};
    eval.distribute_local_to_global(target);
  }
  template <typename Eval>
  void done(Eval &)
  {}
};
} // namespace internal

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
  internal::probe_columns<n_components>(
    mf, space, quad, op, diag, n, [n](auto &dst_v) {
      using Dst = std::remove_reference_t<decltype(dst_v)>;
      return internal::DiagonalSink<Dst, VA>{dst_v, AlignedVector<VA>(n)};
    });
}

/// The diagonal blocks of the operator @p op on @p space: for every cell the
/// n x n block (n = n_components * DoFs per cell) of its couplings with
/// itself, (A e_j)[i] at blocks[cell * n * n + j * n + i]. The same probe
/// as probe_diagonal, keeping whole columns: each block's diagonal is
/// bitwise the probed diagonal.
template <int n_components, typename Number, typename Operator>
void probe_cell_blocks(const MatrixFree<Number> &mf, const unsigned int space,
                       const unsigned int quad, const Operator &op,
                       Vector<Number> &blocks)
{
  const unsigned int n = n_components * mf.dofs_per_cell(space);
  blocks.reinit(std::size_t(mf.n_cells()) * n * n);
  internal::probe_columns<n_components>(
    mf, space, quad, op, blocks, n * n, [n](auto &dst_v) {
      using Dst = std::remove_reference_t<decltype(dst_v)>;
      return internal::BlockSink<Dst>{dst_v, n};
    });
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
