#include <gtest/gtest.h>

#include "perfmodel/scaling_model.h"

using namespace dgflow;

TEST(KernelModelTest, IntensityGrowsWithDegree)
{
  double prev = 0;
  for (unsigned int k = 1; k <= 6; ++k)
  {
    KernelModel m{k, 8};
    const double ai = m.arithmetic_intensity_ideal();
    EXPECT_GT(ai, prev);
    prev = ai;
    // CFD-typical range: O(0.1..10) flop/byte
    EXPECT_GT(ai, 0.2);
    EXPECT_LT(ai, 20.);
    EXPECT_LT(m.arithmetic_intensity_measured(),
              m.arithmetic_intensity_ideal());
  }
}

TEST(KernelModelTest, SinglePrecisionHalvesBytes)
{
  KernelModel dp{3, 8}, sp{3, 4};
  EXPECT_NEAR(sp.ideal_bytes_per_dof() / dp.ideal_bytes_per_dof(), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(sp.flops_per_dof(), dp.flops_per_dof());
}

TEST(ScalingModelTest, SaturatedThroughputMatchesBandwidthLimit)
{
  ScalingModel model;
  const double t = model.matvec_throughput(1e8, 3, 1.);
  // paper Fig. 6: ~1.4e9 DoF/s per Skylake node at k=3
  EXPECT_GT(t, 5e8);
  EXPECT_LT(t, 5e9);
}

TEST(ScalingModelTest, StrongScalingHasLatencyFloor)
{
  ScalingModel model;
  // runtime decreases with nodes, then floors near 1e-4 s (paper Fig. 8)
  double prev_time = 1e30;
  double floor_time = 0;
  for (double nodes = 1; nodes <= 4096; nodes *= 2)
  {
    const double t = model.matvec_time(2.2e7, 3, nodes);
    EXPECT_LT(t, prev_time * 1.05);
    prev_time = t;
    floor_time = t;
  }
  EXPECT_GT(floor_time, 5e-6);
  EXPECT_LT(floor_time, 5e-4);
}

TEST(ScalingModelTest, CacheRegimeBoostsThroughput)
{
  ScalingModel model;
  // mid-size problems that fit the aggregate cache run faster than the
  // saturated bandwidth limit (the double bump of Fig. 8)
  const double t_big = model.matvec_throughput(8e9, 3, 64.);
  const double t_cache = model.matvec_throughput(64. * 8e5, 3, 64.);
  EXPECT_GT(t_cache, 1.5 * t_big);
}

TEST(MachineModelTest, EffectiveBandwidthScalesLinearlyThenSaturates)
{
  const MachineModel m = MachineModel::supermuc_ng();
  // one streaming core draws its single-core fraction of the node rate
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(1.),
                   m.memory_bandwidth * m.single_core_bandwidth_fraction);
  // monotone in the active core count, saturating at the full stream rate
  double prev = 0;
  for (double cores = 1; cores <= m.cores_per_node; cores *= 2)
  {
    const double bw = m.effective_bandwidth(cores);
    EXPECT_GE(bw, prev);
    EXPECT_LE(bw, m.memory_bandwidth);
    prev = bw;
  }
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(m.cores_per_node),
                   m.memory_bandwidth);
  // a default-constructed machine keeps the pre-threading behavior: a
  // single core already saturates the node
  const MachineModel d;
  EXPECT_DOUBLE_EQ(d.effective_bandwidth(1.), d.memory_bandwidth);
}

TEST(ScalingModelTest, DefaultThreadingReproducesSaturatedModel)
{
  // threads_per_rank = 1 with a fully populated node must not change any
  // previous prediction: 48 ranks x 1 thread already saturate the memory
  // system of the SuperMUC-NG model
  ScalingModel model;
  EXPECT_DOUBLE_EQ(model.threads_per_rank, 1.);
  const double t_default = model.matvec_time(1e8, 3, 1.);
  ScalingModel threaded = model;
  threaded.threads_per_rank = 8.;
  EXPECT_DOUBLE_EQ(threaded.matvec_time(1e8, 3, 1.), t_default);

  // an underpopulated node (few ranks) gains from pool threads: more
  // streaming cores reach more of the shared bandwidth
  ScalingModel sparse = model;
  sparse.machine.mpi_ranks_per_node = 2;
  const double t_serial = sparse.matvec_time(1e8, 3, 1.);
  sparse.threads_per_rank = 8.;
  const double t_threads = sparse.matvec_time(1e8, 3, 1.);
  EXPECT_LT(t_threads, t_serial);
}

TEST(ScalingModelTest, PoissonSolveFloorsAroundPaperValues)
{
  ScalingModel model;
  ScalingModel::MultigridConfig config;
  config.cg_iterations = 9;
  // strong scaling of the 1e9-DoF bifurcation case: minimal time O(0.1 s)
  double best = 1e30;
  for (double nodes = 64; nodes <= 6400; nodes *= 2)
    best = std::min(best, model.poisson_solve_time(1e9, nodes, config));
  EXPECT_GT(best, 0.01);
  EXPECT_LT(best, 1.0);
}

TEST(HostModelTest, PredictionsArePinned)
{
  // the SuperMUC-NG machine model and the k=3 kernel model, pinned
  // bit-for-bit (EXPECT_DOUBLE_EQ is exact equality): any drift in the host
  // constants fails here before it skews a roofline or a scaling figure
  const MachineModel host = MachineModel::supermuc_ng();
  EXPECT_DOUBLE_EQ(host.memory_bandwidth, 2.05e11);
  EXPECT_DOUBLE_EQ(host.effective_bandwidth(1.), 1.28125e10);
  const KernelModel kernel{3, 8};
  EXPECT_DOUBLE_EQ(kernel.flops_per_dof(), 161.);
  EXPECT_DOUBLE_EQ(kernel.ideal_bytes_per_dof(), 228.5);
  EXPECT_DOUBLE_EQ(kernel.measured_bytes_per_dof(), 285.625);
  EXPECT_DOUBLE_EQ(kernel.arithmetic_intensity_ideal(),
                   0.70459518599562365);
  ScalingModel model;
  EXPECT_DOUBLE_EQ(model.matvec_time(1e8, 3, 1.), 0.14017817121365519);
  EXPECT_DOUBLE_EQ(model.matvec_throughput(1e8, 3, 1.), 713377832.89798462);
}
