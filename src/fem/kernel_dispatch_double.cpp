// Explicit instantiation of the fixed-size kernel dispatch tables for
// Number = double (the operator-evaluation precision).
// Kept in its own translation unit: the ~18 (degree, n_q_1d) instantiations
// expand every unrolled sweep exactly once here instead of in each consumer.

#include "fem/kernel_dispatch_impl.h"

namespace dgflow
{
template const CellKernels<double> *
lookup_cell_kernels<double>(const unsigned int, const unsigned int);
template const FaceKernels<double> *
lookup_face_kernels<double>(const unsigned int, const unsigned int);
} // namespace dgflow
