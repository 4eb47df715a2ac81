// Explicit instantiation of the fixed-size kernel dispatch tables for
// Number = float (the multigrid smoother precision).

#include "fem/kernel_dispatch_impl.h"

namespace dgflow
{
template const CellKernels<float> *
lookup_cell_kernels<float>(const unsigned int, const unsigned int);
template const FaceKernels<float> *
lookup_face_kernels<float>(const unsigned int, const unsigned int);
} // namespace dgflow
