#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "mesh/generators.h"
#include "mesh/partition.h"
#include "vmpi/communicator.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

TEST(VmpiTest, RingPass)
{
  vmpi::run(4, [](vmpi::Communicator &comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<int> token{comm.rank() * 10};
    comm.send_vector(next, 7, token);
    const auto received = comm.recv_vector<int>(prev, 7, 4);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], prev * 10);
  });
}

TEST(VmpiTest, TaggedMessagesDoNotMix)
{
  vmpi::run(2, [](vmpi::Communicator &comm) {
    if (comm.rank() == 0)
    {
      std::vector<double> a{1.5}, b{2.5};
      comm.send_vector(1, 100, a);
      comm.send_vector(1, 200, b);
    }
    else
    {
      // receive in reverse tag order
      const auto b = comm.recv_vector<double>(0, 200, 1);
      const auto a = comm.recv_vector<double>(0, 100, 1);
      EXPECT_EQ(b[0], 2.5);
      EXPECT_EQ(a[0], 1.5);
    }
  });
}

TEST(VmpiTest, AllreduceSumMaxMin)
{
  for (const int n_ranks : {1, 3, 8})
    vmpi::run(n_ranks, [n_ranks](vmpi::Communicator &comm) {
      const double r = comm.rank() + 1.;
      EXPECT_DOUBLE_EQ(comm.allreduce(r, vmpi::Communicator::Op::sum),
                       n_ranks * (n_ranks + 1.) / 2.);
      EXPECT_DOUBLE_EQ(comm.allreduce(r, vmpi::Communicator::Op::max),
                       double(n_ranks));
      EXPECT_DOUBLE_EQ(comm.allreduce(r, vmpi::Communicator::Op::min), 1.);
    });
}

TEST(VmpiTest, NaNOnAnyRankReachesMaxMinAndLinftyNorm)
{
  // rank 0's contribution seeds the fold, so the NaN sits on rank 2
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  const int n_ranks = 4;
  const auto rank_of_cell = partition_cells(mesh, n_ranks);
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double mine = comm.rank() == 2 ? nan : double(comm.rank());
    EXPECT_TRUE(std::isnan(comm.allreduce(mine, vmpi::Communicator::Op::max)));
    EXPECT_TRUE(std::isnan(comm.allreduce(mine, vmpi::Communicator::Op::min)));

    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, 1);
    ASSERT_GT(v.size(), 1u);
    for (std::size_t i = 0; i < v.size(); ++i)
      v.data()[i] = 0.5 * (comm.rank() + 1);
    EXPECT_EQ(v.linfty_norm(), 2.);
    if (comm.rank() == 2)
      v.data()[0] = nan;
    EXPECT_TRUE(std::isnan(v.linfty_norm()));
  });
}

TEST(VmpiTest, RepeatedCollectivesDoNotRace)
{
  vmpi::run(6, [](vmpi::Communicator &comm) {
    for (int it = 0; it < 200; ++it)
    {
      const double s =
        comm.allreduce(double(it + comm.rank()), vmpi::Communicator::Op::sum);
      EXPECT_DOUBLE_EQ(s, 6. * it + 15.);
    }
  });
}

TEST(VmpiTest, ExceptionsPropagate)
{
  EXPECT_THROW(vmpi::run(3,
                         [](vmpi::Communicator &comm) {
                           comm.barrier();
                           if (comm.rank() == 1)
                             throw std::runtime_error("rank failure");
                         }),
               std::runtime_error);
}

TEST(VmpiTest, GhostExchangeOnPartitionedMesh)
{
  // partition a refined cube, let each rank own its cells' values (= rank
  // id) and exchange across cut faces; every rank must see its neighbors'
  // correct ranks on ghost faces
  Mesh mesh(unit_cube());
  mesh.refine_uniform(2);
  const int n_ranks = 4;
  const auto rank_of_cell = partition_cells(mesh, n_ranks);
  const auto faces = mesh.build_face_list();

  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const int me = comm.rank();
    // collect cut faces by neighbor rank
    std::map<int, std::vector<index_t>> send_cells, expect_cells;
    for (const auto &f : faces)
    {
      if (f.is_boundary())
        continue;
      const int rm = rank_of_cell[f.cell_m], rp = rank_of_cell[f.cell_p];
      if (rm == me && rp != me)
      {
        send_cells[rp].push_back(f.cell_m);
        expect_cells[rp].push_back(f.cell_p);
      }
      else if (rp == me && rm != me)
      {
        send_cells[rm].push_back(f.cell_p);
        expect_cells[rm].push_back(f.cell_m);
      }
    }
    // send owned values (here: 1000*rank + cell index)
    for (const auto &[other, cells] : send_cells)
    {
      std::vector<double> payload;
      for (const index_t c : cells)
        payload.push_back(1000. * me + c);
      comm.send_vector(other, 42, payload);
    }
    for (const auto &[other, cells] : expect_cells)
    {
      const auto payload = comm.recv_vector<double>(other, 42, cells.size());
      ASSERT_EQ(payload.size(), cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_DOUBLE_EQ(payload[i], 1000. * other + cells[i]);
    }
  });
}
