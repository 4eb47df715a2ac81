// Figure 7: roofline of the matrix-free DG Laplacian on the deformed lung
// geometry, degrees k = 1..6. Arithmetic intensities come from the kernel
// flop/byte model (ideal single-pass transfer, and the measured-overhead
// variant); the achieved GFlop/s combine the modeled flops with measured
// kernel run times. The machine roofline uses the measured stream-triad
// bandwidth and the AVX-512 FMA peak of the local core.

#include <thread>

#include "bench/bench_common.h"
#include "operators/laplace_operator.h"
#include "perfmodel/kernel_model.h"

using namespace dgflow;
using namespace dgflow::bench;

int main()
{
  dgflow::prof::EnvSession profile_session;
  print_header("Fig. 7: roofline of the DG Laplacian on the lung geometry",
               "paper Fig. 7: all degrees bandwidth-limited; measured "
               "transfer 20-30% above the ideal model");

  // bandwidth roof twice: one streaming core, and the full node (all
  // hardware threads streaming through the shared memory controllers). The
  // single-threaded roof bounds the serial kernels below; the node roof is
  // what the thread-parallel loops can saturate.
  const unsigned int node_threads =
    std::max(1u, std::thread::hardware_concurrency());
  const double bw = measure_stream_bandwidth();
  const double bw_node =
    node_threads > 1 ? measure_stream_bandwidth(node_threads) : bw;
  const double peak =
    32. * 2.7e9; // AVX-512: 2 FMA units x 8 lanes x 2 flops, 2.7 GHz
  std::printf("machine roofline: stream bandwidth %.1f GB/s (1 thread), "
              "%.1f GB/s (%u threads), DP peak %.1f "
              "GFlop/s (1-thread ridge at %.2f flop/byte)\n\n",
              bw / 1e9, bw_node / 1e9, node_threads, peak / 1e9, peak / bw);

  const LungMesh lung = lung_mesh_for_generations(3);

  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);

  Table table({"k", "MDoF", "AI ideal", "AI measured", "GFlop/s",
               "% of BW roof(ideal)", "BW-limited?"});

  for (unsigned int degree = 1; degree <= 6; ++degree)
  {
    Mesh mesh(lung.coarse);
    while (mesh.n_active_cells() * pow_int(degree + 1, 3) < 6e5)
      mesh.refine_uniform(1);
    TrilinearGeometry geom(mesh.coarse());

    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.geometry_degree = 1;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);

    Vector<double> src(laplace.n_dofs()), dst(laplace.n_dofs());
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = 1e-3 * (i % 613);
    const unsigned int n_mv = std::max<std::size_t>(3, 8e6 / laplace.n_dofs());
    const double t = best_of(5, [&]() {
                       for (unsigned int i = 0; i < n_mv; ++i)
                         laplace.vmult(dst, src);
                     }) /
                     n_mv;

    KernelModel kernel{degree, 8};
    const double gflops = kernel.flops_per_dof() * laplace.n_dofs() / t / 1e9;
    // bandwidth-roof at the kernel's ideal arithmetic intensity
    const double roof = bw / 1e9 * kernel.arithmetic_intensity_ideal();
    table.add_row(degree, Table::format(laplace.n_dofs() / 1e6, 3),
                  Table::format(kernel.arithmetic_intensity_ideal(), 3),
                  Table::format(kernel.arithmetic_intensity_measured(), 3),
                  Table::format(gflops, 4),
                  Table::format(100. * gflops / roof, 3),
                  gflops < 0.5 * peak / 1e9 ? "yes" : "no");
  }
  table.print();

  std::printf("\nexpected shape (paper): arithmetic intensity grows with k "
              "but all relevant degrees stay left of the ridge "
              "(bandwidth-limited); the achieved GFlop/s track the "
              "bandwidth roof within the measured-transfer overhead.\n");
  return 0;
}
