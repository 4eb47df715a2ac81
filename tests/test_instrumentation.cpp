#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "instrumentation/profiler.h"
#include "vmpi/communicator.h"

using namespace dgflow;

namespace
{
/// Enables + clears the profiler for one test and disables it again on exit,
/// so tests cannot leak state into each other through the singleton.
struct ProfilerSession
{
  ProfilerSession()
  {
    prof::Profiler::instance().enable(true);
    prof::Profiler::instance().reset();
  }
  ~ProfilerSession()
  {
    prof::Profiler::instance().reset();
    prof::Profiler::instance().enable(false);
  }
};

void busy_wait_us(const unsigned int us)
{
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::microseconds(us))
    ;
}
} // namespace

TEST(Instrumentation, ScopeHierarchyAggregates)
{
  ProfilerSession session;

  for (int rep = 0; rep < 3; ++rep)
  {
    prof::Scope outer("outer");
    busy_wait_us(50);
    {
      prof::Scope mid("mid");
      busy_wait_us(50);
      prof::Scope inner("inner");
      busy_wait_us(50);
    }
    {
      prof::Scope mid("mid"); // same name nests into the same node
      busy_wait_us(50);
    }
  }

  const prof::ProfileReport report = prof::Profiler::instance().report();
  ASSERT_EQ(report.timers.size(), 1u);
  EXPECT_EQ(report.depth(), 3u);

  const auto *outer = report.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3ul);
  EXPECT_GT(outer->total, 0.);
  EXPECT_LE(outer->min, outer->max);
  EXPECT_GE(outer->total, outer->max);

  const auto *mid = report.find("outer/mid");
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->count, 6ul); // two mid scopes per repetition
  EXPECT_LT(mid->total, outer->total);

  const auto *inner = report.find("outer/mid/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 3ul);
  EXPECT_LT(inner->total, mid->total);

  // self time excludes children
  EXPECT_NEAR(mid->self(), mid->total - inner->total, 1e-12);
  EXPECT_EQ(report.find("outer/inner"), nullptr);
  EXPECT_EQ(report.find("nonexistent"), nullptr);
}

TEST(Instrumentation, ScopesMergeAcrossThreads)
{
  ProfilerSession session;

  auto work = [] {
    prof::Scope a("shared");
    busy_wait_us(20);
    prof::Scope b("leaf");
    busy_wait_us(20);
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  work(); // and once on this thread

  const prof::ProfileReport report = prof::Profiler::instance().report();
  const auto *shared = report.find("shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, 3ul);
  const auto *leaf = report.find("shared/leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 3ul);
}

TEST(Instrumentation, CountersRespectEnableAndReset)
{
  auto &profiler = prof::Profiler::instance();
  auto &c = profiler.counter("test_counter");

  profiler.enable(false);
  c.reset();
  c.add(5); // dropped: profiling disabled
  EXPECT_EQ(c.value(), 0ll);

  profiler.enable(true);
  c.add(5);
  c.add(-2);
  EXPECT_EQ(c.value(), 3ll);

  // the same name resolves to the same counter
  EXPECT_EQ(&profiler.counter("test_counter"), &c);
  EXPECT_EQ(profiler.report().counters.at("test_counter"), 3ll);

  profiler.reset(); // zeroes but keeps the handle valid
  EXPECT_EQ(c.value(), 0ll);
  c.add(7);
  EXPECT_EQ(profiler.report().counters.at("test_counter"), 7ll);

  profiler.reset();
  profiler.enable(false);
}

TEST(Instrumentation, DisabledScopesRecordNothing)
{
  auto &profiler = prof::Profiler::instance();
  profiler.enable(false);
  profiler.reset();
  {
    prof::Scope s("invisible");
    busy_wait_us(10);
  }
  profiler.enable(true);
  const prof::ProfileReport report = profiler.report();
  profiler.enable(false);
  EXPECT_EQ(report.find("invisible"), nullptr);
}

TEST(Instrumentation, JsonRoundTrip)
{
  ProfilerSession session;

  {
    prof::Scope a("alpha");
    busy_wait_us(30);
    {
      prof::Scope b("beta");
      busy_wait_us(30);
    }
    {
      prof::Scope c("gamma");
      busy_wait_us(30);
    }
  }
  {
    prof::Scope d("delta");
    busy_wait_us(30);
  }
  prof::counter("cg_iterations").add(42);
  prof::counter("mf_dofs").add(1000000);
  prof::Profiler::instance().add_vmpi_run(4, 12, 34567, 3, 9);

  const prof::ProfileReport report = prof::Profiler::instance().report();
  const prof::ProfileReport parsed =
    prof::ProfileReport::parse_json(report.json());

  ASSERT_EQ(parsed.timers.size(), report.timers.size());
  for (const char *path : {"alpha", "alpha/beta", "alpha/gamma", "delta"})
  {
    const auto *orig = report.find(path);
    const auto *back = parsed.find(path);
    ASSERT_NE(orig, nullptr) << path;
    ASSERT_NE(back, nullptr) << path;
    EXPECT_EQ(back->count, orig->count) << path;
    EXPECT_DOUBLE_EQ(back->total, orig->total) << path;
    EXPECT_DOUBLE_EQ(back->min, orig->min) << path;
    EXPECT_DOUBLE_EQ(back->max, orig->max) << path;
  }
  EXPECT_EQ(parsed.counters, report.counters);
  EXPECT_EQ(parsed.vmpi.runs, 1ull);
  EXPECT_EQ(parsed.vmpi.ranks, 4ull);
  EXPECT_EQ(parsed.vmpi.messages, 12ull);
  EXPECT_EQ(parsed.vmpi.bytes, 34567ull);
  EXPECT_EQ(parsed.vmpi.barriers, 3ull);
  EXPECT_EQ(parsed.vmpi.allreduces, 9ull);

  // a second decode-encode cycle is the identity on the text
  EXPECT_EQ(parsed.json(), report.json());
}

TEST(Instrumentation, ParseJsonHandlesEmptyReport)
{
  const prof::ProfileReport empty;
  const prof::ProfileReport parsed =
    prof::ProfileReport::parse_json(empty.json());
  EXPECT_TRUE(parsed.timers.empty());
  EXPECT_TRUE(parsed.counters.empty());
  EXPECT_EQ(parsed.vmpi.runs, 0ull);
  EXPECT_EQ(parsed.depth(), 0u);
}

TEST(Instrumentation, VmpiTrafficIsAggregatedAtJoin)
{
  ProfilerSession session;

  constexpr int n_ranks = 3;
  static constexpr std::size_t payload_doubles = 16;
  vmpi::run(n_ranks, [](vmpi::Communicator &comm) {
    // ring exchange: every rank sends one message of known size
    std::vector<double> data(payload_doubles, comm.rank());
    comm.send_vector((comm.rank() + 1) % comm.size(), 0, data);
    const auto received = comm.recv_vector<double>(
      (comm.rank() + comm.size() - 1) % comm.size(), 0, payload_doubles);
    EXPECT_EQ(received.size(), payload_doubles);
    comm.barrier();
    comm.allreduce(1., vmpi::Communicator::Op::sum);
    comm.allreduce(double(comm.rank()), vmpi::Communicator::Op::max);
  });

  const prof::ProfileReport report = prof::Profiler::instance().report();
  EXPECT_EQ(report.vmpi.runs, 1ull);
  EXPECT_EQ(report.vmpi.ranks, 3ull);
  EXPECT_EQ(report.vmpi.messages, 3ull); // one send per rank
  EXPECT_EQ(report.vmpi.bytes, 3ull * payload_doubles * sizeof(double));
  EXPECT_EQ(report.vmpi.barriers, 3ull);   // one barrier x three ranks
  EXPECT_EQ(report.vmpi.allreduces, 6ull); // two allreduces x three ranks

  // a second run accumulates on top
  vmpi::run(2, [](vmpi::Communicator &comm) { comm.barrier(); });
  const prof::ProfileReport second = prof::Profiler::instance().report();
  EXPECT_EQ(second.vmpi.runs, 2ull);
  EXPECT_EQ(second.vmpi.ranks, 5ull);
  EXPECT_EQ(second.vmpi.barriers, 5ull);
}

TEST(Instrumentation, VmpiTrafficIgnoredWhenDisabled)
{
  auto &profiler = prof::Profiler::instance();
  profiler.enable(false);
  profiler.reset();
  vmpi::run(2, [](vmpi::Communicator &comm) { comm.barrier(); });
  profiler.enable(true);
  const prof::ProfileReport report = profiler.report();
  profiler.enable(false);
  EXPECT_EQ(report.vmpi.runs, 0ull);
  EXPECT_EQ(report.vmpi.barriers, 0ull);
}

TEST(Instrumentation, MacrosRecordScopesAndCounters)
{
  ProfilerSession session;
  {
    DGFLOW_PROF_SCOPE("macro_outer");
    busy_wait_us(20);
    DGFLOW_PROF_SCOPE("macro_inner");
    DGFLOW_PROF_COUNT("macro_counter", 4);
    DGFLOW_PROF_COUNT("macro_counter", 6);
    busy_wait_us(20);
  }
  const prof::ProfileReport report = prof::Profiler::instance().report();
  const auto *inner = report.find("macro_outer/macro_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 1ul);
  EXPECT_EQ(report.counters.at("macro_counter"), 10ll);
}
