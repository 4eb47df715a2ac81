#pragma once

// Process-wide, low-overhead profiling registry (the measurement layer the
// paper's evaluation protocol implies: per-kernel timings, iteration counts
// and communication volumes reported as first-class output, cf. Sections
// 4-5). Three ingredients:
//
//  * RAII scoped timers (Scope / DGFLOW_PROF_SCOPE) forming a hierarchy
//    ("ins_step/pressure/cg/mg_vcycle/level3/smoother"), with call counts
//    and total/min/max wall time per node. Each thread owns its tree (no
//    locks on the hot path); report() merges all threads by path.
//  * named monotonic counters (counter() / DGFLOW_PROF_COUNT): CG and
//    Chebyshev iterations, matrix-free cell/face batches, DoFs touched.
//  * vmpi traffic metrics fed by vmpi::run at join (messages, bytes,
//    barriers, allreduces summed over ranks).
//
// Cost model: a runtime enable flag - a disabled run costs at most one
// relaxed atomic load per instrumented scope, so benchmark numbers
// (fig06/fig07) are unaffected. Enable via Profiler::instance().enable(true)
// or, for binaries that install an EnvSession, DGFLOW_PROFILE=1 in the
// environment (DGFLOW_PROFILE_JSON=<path> additionally archives the report).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "instrumentation/report.h"

namespace dgflow::prof
{
/// Monotonic named counter. Additions are dropped while profiling is
/// disabled, so instrumented hot loops stay free when not measuring.
class Counter
{
public:
  void add(const long long v);
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<long long> value_{0};
};

/// Last-value-wins named metric for derived quantities that are not
/// monotonic (throughput in DoF/s, bytes per DoF, compression ratios).
/// Updates are dropped while profiling is disabled, like Counter.
class Gauge
{
public:
  void set(const double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0., std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.};
};

class Profiler
{
public:
  static Profiler &instance()
  {
    static Profiler p;
    return p;
  }

  void enable(const bool on)
  {
    enabled_.store(on, std::memory_order_relaxed);
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Returns the counter registered under @p name (created on first use).
  /// The reference stays valid for the process lifetime; cache it in hot
  /// paths (DGFLOW_PROF_COUNT does).
  Counter &counter(const std::string &name)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name];
  }

  /// Returns the gauge registered under @p name (created on first use).
  /// Same lifetime/caching contract as counter().
  Gauge &gauge(const std::string &name)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[name];
  }

  /// Adds one completed vmpi::run's rank-aggregated traffic.
  void add_vmpi_run(const int n_ranks, const unsigned long long messages,
                    const unsigned long long bytes,
                    const unsigned long long barriers,
                    const unsigned long long allreduces)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    vmpi_.runs += 1;
    vmpi_.ranks += static_cast<unsigned long long>(n_ranks);
    vmpi_.messages += messages;
    vmpi_.bytes += bytes;
    vmpi_.barriers += barriers;
    vmpi_.allreduces += allreduces;
  }

  /// Snapshot of all timers (merged across threads), counters and vmpi
  /// metrics. Call from a quiescent point (no scopes active on other
  /// threads).
  ProfileReport report()
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ProfileReport r;
    for (const auto &tree : trees_)
      merge_children(tree->root, r.timers);
    for (const auto &[name, c] : counters_)
      r.counters[name] = c.value();
    for (const auto &[name, g] : gauges_)
      r.gauges[name] = g.value();
    r.vmpi = vmpi_;
    return r;
  }

  /// Clears all timers, counters and vmpi metrics (keeps counter handles
  /// valid). Call from a quiescent point only.
  void reset()
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &tree : trees_)
    {
      DGFLOW_ASSERT(tree->current == &tree->root,
                    "Profiler::reset() inside an active scope");
      tree->root.children.clear();
    }
    for (auto &[name, c] : counters_)
      c.reset();
    for (auto &[name, g] : gauges_)
      g.reset();
    vmpi_ = VmpiStats();
  }

  // -- internals shared with Scope -----------------------------------------

  struct Node
  {
    unsigned long count = 0;
    double total = 0.;
    double min = std::numeric_limits<double>::max();
    double max = 0.;
    // std::map: stable addresses under insertion (Scope holds Node*)
    std::map<std::string, Node, std::less<>> children;
  };

  struct ThreadTree
  {
    Node root;
    Node *current = &root;
  };

  /// The calling thread's tree (registered with the process registry on
  /// first use; kept alive after thread exit for the final report).
  ThreadTree &thread_tree()
  {
    thread_local std::shared_ptr<ThreadTree> tree = [this]() {
      auto t = std::make_shared<ThreadTree>();
      std::lock_guard<std::mutex> lock(mutex_);
      trees_.push_back(t);
      return t;
    }();
    return *tree;
  }

private:
  Profiler() = default;

  static void merge_children(const Node &node, std::vector<TimerEntry> &out)
  {
    for (const auto &[name, child] : node.children)
    {
      TimerEntry *entry = nullptr;
      for (auto &e : out)
        if (e.name == name)
        {
          entry = &e;
          break;
        }
      if (!entry)
      {
        out.emplace_back();
        entry = &out.back();
        entry->name = name;
      }
      entry->count += child.count;
      entry->total += child.total;
      entry->min = std::min(entry->min, child.min);
      entry->max = std::max(entry->max, child.max);
      merge_children(child, entry->children);
    }
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadTree>> trees_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  VmpiStats vmpi_;
};

inline void Counter::add(const long long v)
{
  if (Profiler::instance().enabled())
    value_.fetch_add(v, std::memory_order_relaxed);
}

inline void Gauge::set(const double v)
{
  if (Profiler::instance().enabled())
    value_.store(v, std::memory_order_relaxed);
}

/// Convenience accessor: prof::counter("cg_iterations").add(n).
inline Counter &counter(const std::string &name)
{
  return Profiler::instance().counter(name);
}

/// Convenience accessor: prof::gauge("laplace_dofs_per_s").set(v).
inline Gauge &gauge(const std::string &name)
{
  return Profiler::instance().gauge(name);
}

/// RAII throughput probe: measures the wall time of the enclosing scope and
/// publishes items/second to the gauge "<name>_per_s" on destruction. The
/// two clock reads happen only while profiling is enabled.
class ThroughputScope
{
public:
  ThroughputScope(Gauge &gauge, const std::size_t n_items)
    : gauge_(gauge), n_items_(n_items),
      active_(Profiler::instance().enabled())
  {
    if (active_)
      start_ = clock::now();
  }

  ~ThroughputScope()
  {
    if (!active_)
      return;
    const double s =
      std::chrono::duration<double>(clock::now() - start_).count();
    if (s > 0.)
      gauge_.set(static_cast<double>(n_items_) / s);
  }

  ThroughputScope(const ThroughputScope &) = delete;
  ThroughputScope &operator=(const ThroughputScope &) = delete;

private:
  using clock = std::chrono::steady_clock;
  Gauge &gauge_;
  std::size_t n_items_;
  bool active_ = false;
  clock::time_point start_;
};

/// RAII scoped timer; nests under the innermost live Scope of this thread.
class Scope
{
public:
  template <typename NameType> // const char* or std::string
  explicit Scope(const NameType &name)
  {
    Profiler &p = Profiler::instance();
    if (!p.enabled())
      return;
    tree_ = &p.thread_tree();
    parent_ = tree_->current;
    node_ = &parent_->children[name];
    tree_->current = node_;
    active_ = true;
    start_ = clock::now();
  }

  ~Scope()
  {
    if (!active_)
      return;
    const double s =
      std::chrono::duration<double>(clock::now() - start_).count();
    node_->count += 1;
    node_->total += s;
    node_->min = std::min(node_->min, s);
    node_->max = std::max(node_->max, s);
    tree_->current = parent_;
  }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  using clock = std::chrono::steady_clock;
  Profiler::ThreadTree *tree_ = nullptr;
  Profiler::Node *parent_ = nullptr;
  Profiler::Node *node_ = nullptr;
  bool active_ = false;
  clock::time_point start_;
};

/// Installs env-driven profiling for a main(): enables the profiler when
/// DGFLOW_PROFILE is set to a truthy value and, at scope exit, prints the
/// hierarchical report and archives it as JSON to DGFLOW_PROFILE_JSON.
class EnvSession
{
public:
  EnvSession()
  {
    Profiler &p = Profiler::instance();
    const char *v = std::getenv("DGFLOW_PROFILE");
    if (v && v[0] != '\0' && std::string(v) != "0" && std::string(v) != "off")
      p.enable(true);
  }

  ~EnvSession()
  {
    Profiler &p = Profiler::instance();
    if (!p.enabled())
      return;
    const ProfileReport report = p.report();
    report.print(std::cout);
    if (const char *path = std::getenv("DGFLOW_PROFILE_JSON"))
    {
      std::ofstream out(path);
      report.write_json(out);
    }
  }

  EnvSession(const EnvSession &) = delete;
  EnvSession &operator=(const EnvSession &) = delete;
};

} // namespace dgflow::prof

// ---------------------------------------------------------------------------
// instrumentation macros
// ---------------------------------------------------------------------------

#define DGFLOW_PROF_CONCAT_INNER(a, b) a##b
#define DGFLOW_PROF_CONCAT(a, b) DGFLOW_PROF_CONCAT_INNER(a, b)

/// Times the enclosing scope under the given (literal or std::string) name.
#define DGFLOW_PROF_SCOPE(name)                                              \
  ::dgflow::prof::Scope DGFLOW_PROF_CONCAT(dgflow_prof_scope_,               \
                                           __LINE__)(name)

/// Adds @p amount to the named counter (counter handle cached per site).
#define DGFLOW_PROF_COUNT(name, amount)                                      \
  do                                                                         \
  {                                                                          \
    static ::dgflow::prof::Counter &DGFLOW_PROF_CONCAT(dgflow_prof_c_,       \
                                                       __LINE__) =           \
      ::dgflow::prof::counter(name);                                         \
    DGFLOW_PROF_CONCAT(dgflow_prof_c_, __LINE__).add(amount);                \
  } while (0)

/// Sets the named gauge to @p value (gauge handle cached per site).
#define DGFLOW_PROF_GAUGE(name, value)                                       \
  do                                                                         \
  {                                                                          \
    static ::dgflow::prof::Gauge &DGFLOW_PROF_CONCAT(dgflow_prof_g_,         \
                                                     __LINE__) =             \
      ::dgflow::prof::gauge(name);                                           \
    DGFLOW_PROF_CONCAT(dgflow_prof_g_, __LINE__).set(value);                 \
  } while (0)

/// Publishes items/second of the enclosing scope to the gauge
/// "<name>_dofs_per_s" when the scope exits.
#define DGFLOW_PROF_THROUGHPUT(name, n_items)                                \
  static ::dgflow::prof::Gauge &DGFLOW_PROF_CONCAT(dgflow_prof_tg_,          \
                                                   __LINE__) =               \
    ::dgflow::prof::gauge(std::string(name) + "_dofs_per_s");                \
  ::dgflow::prof::ThroughputScope DGFLOW_PROF_CONCAT(                        \
    dgflow_prof_tp_, __LINE__)(DGFLOW_PROF_CONCAT(dgflow_prof_tg_,           \
                                                  __LINE__),                 \
                               n_items)

