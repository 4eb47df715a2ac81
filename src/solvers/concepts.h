#pragma once

// Compile-time contracts of the solver layer. The Krylov solvers and the
// multigrid stack used to duck-type their collaborators (any type with a
// vmult compiled, and a mismatch surfaced as a template error three layers
// deep); these concepts state the requirements at the signature so misuse
// fails at the call site.

#include <concepts>
#include <cstddef>
#include <utility>

#include "common/loop_hooks.h"

namespace dgflow
{
/// A preconditioner applicable to VectorType: z = P * r through
/// vmult(dst, src). Nothing is said about the preconditioner's *internal*
/// vector or scalar types — a float multigrid V-cycle preconditioning a
/// double CG satisfies PreconditionerFor<., Vector<double>> as long as it
/// converts at its boundary.
template <typename P, typename VectorType>
concept PreconditionerFor =
  requires(P &p, VectorType &dst, const VectorType &src) {
    p.vmult(dst, src);
  };

/// A preconditioner that acts entry by entry, z_i = f(i, r_i) over the local
/// range, and exposes that map: pointwise() returns f as a callable
/// (std::size_t i, Number r_i) -> Number whose result is bitwise entry i of
/// its vmult. solve_cg forms such a z where it is consumed — inside its
/// vector sweep and the operator's pre hooks — and never calls the vmult.
template <typename P, typename VectorType>
concept PointwisePreconditionerFor =
  PreconditionerFor<P, VectorType> &&
  requires(const P &p, const std::size_t i,
           const typename VectorType::value_type r) {
    {
      p.pointwise()(i, r)
    } -> std::same_as<typename VectorType::value_type>;
  };

/// An operator whose vmult implements the contract-v2 hooked cell loop
/// (operators/README.md): vmult(dst, src, pre, post) with per-DoF-range
/// callbacks, so a solver's BLAS-1 updates ride the operator's cell loop.
template <typename Op, typename VectorType>
concept HookedOperatorFor =
  requires(const Op &op, VectorType &dst, const VectorType &src) {
    op.vmult(dst, src, NoRangeHook(), NoRangeHook());
  };

/// The plain homogeneous action every solver needs.
template <typename Op, typename VectorType>
concept OperatorFor = requires(const Op &op, VectorType &dst,
                               const VectorType &src) { op.vmult(dst, src); };

/// dst = op * src with the range hooks of the operator contract: a hooked
/// operator runs them inside its cell loop; any other operator gets
/// pre(0, src.size()), its plain vmult, then post(0, dst.size()). The
/// solvers' hooks compute each element on its own, so both give the same
/// bits.
template <typename Op, typename VectorType, typename PreFn, typename PostFn>
  requires OperatorFor<Op, VectorType>
void vmult_hooked(const Op &op, VectorType &dst, const VectorType &src,
                  PreFn &&pre, PostFn &&post)
{
  if constexpr (HookedOperatorFor<Op, VectorType>)
    op.vmult(dst, src, std::forward<PreFn>(pre), std::forward<PostFn>(post));
  else
  {
    pre(std::size_t(0), src.size());
    op.vmult(dst, src);
    post(std::size_t(0), dst.size());
  }
}

} // namespace dgflow
