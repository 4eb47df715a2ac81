#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>

#include "resilience/fault_injection.h"
#include "solvers/cg.h"
#include "vmpi/distributed.h"

using namespace dgflow;

namespace
{
SparseMatrix poisson_3d(const std::size_t m)
{
  const std::size_t n = m * m * m;
  auto idx = [m](std::size_t i, std::size_t j, std::size_t k) {
    return (k * m + j) * m + i;
  };
  std::vector<SparseMatrix::Triplet> t;
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i)
      {
        const std::size_t r = idx(i, j, k);
        t.push_back({r, r, 6.});
        if (i > 0)
          t.push_back({r, idx(i - 1, j, k), -1.});
        if (i + 1 < m)
          t.push_back({r, idx(i + 1, j, k), -1.});
        if (j > 0)
          t.push_back({r, idx(i, j - 1, k), -1.});
        if (j + 1 < m)
          t.push_back({r, idx(i, j + 1, k), -1.});
        if (k > 0)
          t.push_back({r, idx(i, j, k - 1), -1.});
        if (k + 1 < m)
          t.push_back({r, idx(i, j, k + 1), -1.});
      }
  return SparseMatrix::from_triplets(n, n, std::move(t));
}
} // namespace

TEST(FaultPlanTest, DecisionsAreDeterministic)
{
  resilience::FaultPlan::Config cfg;
  cfg.seed = 7;
  cfg.drop_rate = 0.3;
  cfg.delay_rate = 0.3;
  cfg.reorder_rate = 0.3;
  cfg.corrupt_rate = 0.3;
  resilience::FaultPlan a(cfg), b(cfg);
  for (unsigned long long seq = 0; seq < 200; ++seq)
  {
    const auto x = a.on_message(0, 1, 3, seq, 64);
    const auto y = b.on_message(0, 1, 3, seq, 64);
    EXPECT_EQ(x.drop, y.drop) << seq;
    EXPECT_EQ(x.reorder, y.reorder) << seq;
    EXPECT_EQ(x.delay_seconds, y.delay_seconds) << seq;
    EXPECT_EQ(x.corrupt_bytes, y.corrupt_bytes) << seq;
  }
  // the configured rates materialize over 200 draws
  const auto counts = a.counts();
  EXPECT_GT(counts.dropped, 0u);
  EXPECT_GT(counts.delayed, 0u);
  EXPECT_GT(counts.reordered, 0u);
  EXPECT_GT(counts.corrupted, 0u);
}

TEST(ResilienceVmpiTest, DefaultTimeoutComesFromEnv)
{
  setenv("DGFLOW_VMPI_TIMEOUT", "0.25", 1);
  vmpi::run(1, [](vmpi::Communicator &comm) {
    EXPECT_DOUBLE_EQ(comm.timeout(), 0.25);
  });
  unsetenv("DGFLOW_VMPI_TIMEOUT");
}

TEST(ResilienceVmpiTest, DroppedMessageSurfacesAsTimeoutError)
{
  resilience::FaultPlan::Config cfg;
  cfg.drop_rate = 1.;
  resilience::FaultPlan plan(cfg);
  bool timed_out = false;
  int err_rank = -2, err_source = -2, err_tag = -2;
  double elapsed = 0.;
  std::string what;

  vmpi::run(2, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    if (comm.rank() == 0)
    {
      std::vector<double> v{3.14};
      comm.send_vector(1, 5, v);
    }
    else
    {
      comm.set_timeout(0.1);
      try
      {
        comm.recv_vector<double>(0, 5, 1);
      }
      catch (const vmpi::TimeoutError &e)
      {
        timed_out = true;
        err_rank = e.rank;
        err_source = e.source;
        err_tag = e.tag;
        elapsed = e.elapsed_seconds;
        what = e.what();
      }
    }
  });

  ASSERT_TRUE(timed_out) << "dropped message must raise, not deadlock";
  EXPECT_EQ(err_rank, 1);
  EXPECT_EQ(err_source, 0);
  EXPECT_EQ(err_tag, 5);
  EXPECT_GE(elapsed, 0.1);
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
  EXPECT_EQ(plan.counts().dropped, 1u);
}

TEST(ResilienceVmpiTest, StalledRankCollectiveTimesOutWithContext)
{
  resilience::FaultPlan::Config cfg;
  cfg.stall_rank = 1;
  cfg.stall_seconds = 0.5;
  resilience::FaultPlan plan(cfg);
  std::atomic<int> timeouts{0};

  vmpi::run(2, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    comm.set_timeout(0.1);
    try
    {
      comm.allreduce(1., vmpi::Communicator::Op::sum);
    }
    catch (const vmpi::TimeoutError &e)
    {
      ++timeouts;
      EXPECT_EQ(e.source, -1);
      EXPECT_EQ(e.tag, -1);
      EXPECT_GE(e.elapsed_seconds, 0.1);
      EXPECT_NE(std::string(e.what()).find("allreduce"), std::string::npos)
        << e.what();
    }
  });

  EXPECT_GE(timeouts.load(), 1);
  EXPECT_GE(plan.counts().stalls, 1u);
}

TEST(ResilienceVmpiTest, DelayAndReorderPreserveDistributedCGBitwise)
{
  const SparseMatrix A = poisson_3d(6);
  const std::size_t n = A.n_rows();
  Vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = 1. + 0.01 * double(i % 17);

  const auto run_cg = [&](resilience::FaultPlan *plan) {
    Vector<double> x(n);
    unsigned int its = 0;
    vmpi::run(4, [&](vmpi::Communicator &comm) {
      if (plan)
        comm.install_fault_handler(plan);
      vmpi::DistributedCSR dist(comm, A);
      vmpi::DistributedVector<double> xl, bl;
      dist.initialize_vector(xl);
      dist.initialize_vector(bl);
      bl.copy_owned_from(b);
      PreconditionIdentity id;
      SolverControl ctrl;
      ctrl.rel_tol = 1e-10;
      ctrl.max_iterations = 500;
      const auto stats = solve_cg(dist, xl, bl, id, ctrl);
      if (comm.rank() == 0)
        its = stats.iterations;
      for (std::size_t i = 0; i < dist.n_local(); ++i)
        x[dist.row_begin() + i] = xl.data()[i]; // disjoint rows: no race
    });
    return std::make_pair(x, its);
  };

  const auto clean = run_cg(nullptr);

  resilience::FaultPlan::Config cfg;
  cfg.seed = 3;
  cfg.delay_rate = 0.3;
  cfg.delay_seconds = 1e-3;
  cfg.reorder_rate = 0.3;
  resilience::FaultPlan plan(cfg);
  const auto faulty = run_cg(&plan);

  // the faults fired, and the per-(source,tag) FIFO preserved under delay
  // and reorder keeps the numerics bit-for-bit identical
  const auto counts = plan.counts();
  EXPECT_GT(counts.delayed + counts.reordered, 0u);
  EXPECT_EQ(clean.second, faulty.second);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(clean.first[i], faulty.first[i]) << "row " << i;
}

TEST(ResilienceVmpiTest, CorruptionIsAppliedAndDeterministic)
{
  resilience::FaultPlan::Config cfg;
  cfg.corrupt_rate = 1.;
  cfg.corrupt_bytes = 2;

  const auto run_once = [&]() {
    resilience::FaultPlan plan(cfg);
    std::vector<unsigned char> received;
    vmpi::run(2, [&](vmpi::Communicator &comm) {
      comm.install_fault_handler(&plan);
      if (comm.rank() == 0)
      {
        const std::vector<unsigned char> payload{1, 2, 3, 4};
        comm.send_vector(1, 9, payload);
      }
      else
        received = comm.recv_vector<unsigned char>(0, 9, 4);
    });
    EXPECT_EQ(plan.counts().corrupted, 1u);
    return received;
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second); // same seed, same corruption
  EXPECT_NE(first[0], 1u);  // leading bytes flipped...
  EXPECT_NE(first[1], 2u);
  EXPECT_EQ(first[2], 3u); // ...the rest untouched
  EXPECT_EQ(first[3], 4u);
}

TEST(ResilienceVmpiTest, RecvVectorRefusesTruncation)
{
  // 6 payload bytes do not form whole doubles: the receive must throw
  // instead of silently truncating to zero elements
  EXPECT_THROW(vmpi::run(2,
                         [](vmpi::Communicator &comm) {
                           if (comm.rank() == 0)
                           {
                             const std::vector<char> bytes{1, 2, 3, 4, 5, 6};
                             comm.send_vector(1, 3, bytes);
                           }
                           else
                             comm.recv_vector<double>(0, 3, 1);
                         }),
               std::runtime_error);
}
