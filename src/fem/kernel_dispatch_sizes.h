#pragma once

// The (degree, n_q_1d) pairs with dedicated fixed-size kernel
// instantiations: for each k = 1..9 the collocated rule n_q = k+1, which
// every operator of the programs runs, and the 3/2-overintegrated rule
// n_q = ceil(3(k+1)/2). Of the latter only (1, 3) runs: the pressure
// evaluators of the k=2 flow solver's divergence and gradient (degree k-1
// on the velocity quadrature k+1). The flow solver over-integrates its
// convective term with n_q = k+2 (incns/solver.h), so two sizes of the k=3
// lung step have no table and run the runtime-extent sweeps: the
// convective apply at (3, 5) and the divergence/gradient pressure
// evaluators at (2, 4). The unused pairs stay for now: the code GCC
// generates for the remaining kernels of kernel_dispatch_double.cpp depends
// on the rest of the unit (whether interp_plane inlines its sweeps), so
// deleting them changes the bits of the subface interpolation on hanging
// faces. To add a pair, append F(degree, n_q_1d) here and rebuild; the
// dispatch tables in kernel_dispatch_double.cpp / kernel_dispatch_float.cpp
// pick it up automatically. Keep both extents <= 16 (even-odd kernel stack
// buffer limit in fem/tensor_kernels.h).

#define DGFLOW_KERNEL_DISPATCH_SIZES(F)                                       \
  F(1, 2)                                                                     \
  F(1, 3)                                                                     \
  F(2, 3)                                                                     \
  F(2, 5)                                                                     \
  F(3, 4)                                                                     \
  F(3, 6)                                                                     \
  F(4, 5)                                                                     \
  F(4, 8)                                                                     \
  F(5, 6)                                                                     \
  F(5, 9)                                                                     \
  F(6, 7)                                                                     \
  F(6, 11)                                                                    \
  F(7, 8)                                                                     \
  F(7, 12)                                                                    \
  F(8, 9)                                                                     \
  F(8, 14)                                                                    \
  F(9, 10)                                                                    \
  F(9, 15)
