#pragma once

// Operator diagonal by unit-vector probing of the operator's own weak form
// (operators/README.md), on the loop driver: for each local DoF i of a cell
// or face side, load e_i, run the operator's integral and keep entry i. On
// an interior face the other side's DoFs stay at zero, so only same-side
// couplings reach the kept entries. The driver's chunk masking and order
// apply (cell first, then faces ascending, minus side before plus side), so
// the diagonal is bitwise the same at every pool width.

#include <algorithm>
#include <memory>

#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"

namespace dgflow
{
/// Diagonal of the operator @p op on @p space with @p n_components
/// components; op provides the member templates cell_integral(phi),
/// face_integral(phi_m, phi_p), boundary_integral(phi_m) and
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
        probe(*phi_m, [&] { op.boundary_integral(*phi_m); });
    };

    return LoopKernels{cell, inner, boundary};
  };

  // the probe reads no vector: diag stands in as the loop's src
  cell_face_loop(mf, diag, diag, n, n, make_kernels, NoRangeHook(),
                 NoRangeHook());
}

} // namespace dgflow
