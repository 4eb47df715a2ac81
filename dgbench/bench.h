#pragma once

// Shared declarations of the repository benchmark (see README.md): the
// workload table, the result record every workload fills, the lung and
// Poisson cases the workloads are built from, and the small statistics the
// metrics are defined with.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lung/lung_application.h"
#include "multigrid/hybrid_multigrid.h"
#include "trace.h"

namespace dgbench
{
using namespace dgflow;

/// One benchmark workload. A lung workload advances the coupled 0D/3D
/// application; the Poisson workload solves the application's pressure
/// Poisson problem to 1e-10.
struct Workload
{
  std::string name;
  bool poisson = false;
  unsigned int threads = 1;  ///< worker pool width
  bool refine = false;       ///< refine airway generations <= 1 once
  bool checkpoint = false;   ///< checkpoint every step into a generation ring
  unsigned int warmup = 0;   ///< steps from rest before the measured window
  unsigned int window = 0;   ///< steps (lung) or right-hand sides (Poisson)
};

const std::vector<Workload> &workloads();
const Workload *find_workload(const std::string &name);

struct Options
{
  std::string workload;
  unsigned long seed = 0;
  double seconds = 10.;
  bool trace = false;
  bool smoke = false;        ///< a few steps/solves: checks and metric names
  std::string workdir = ".bench_build/work";
  std::string reference;     ///< JSON-lines file of reference observables
};

struct Metric
{
  double value = 0.;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics (end-to-end ones from untraced runs, per-layer ones from
/// traced runs).
struct Outcome
{
  std::vector<std::string> failed_checks;
  unsigned long attempted = 0; ///< steps / solves / checkpoint writes tried
  unsigned long failed = 0;    ///< rejected steps, unconverged solves, ...
  std::map<std::string, Metric> end_to_end, per_layer;

  void check(const bool ok, const std::string &what);
  bool correct() const { return failed_checks.empty(); }
};

/// Median and mean of a non-empty sample.
double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/// The measurement loop of every workload: replays a window of work items
/// (@p run_window(best) runs them all once and lowers best[i] to item i's
/// time) while another replay still fits into @p budget seconds, at least
/// twice. The items are deterministic, so each item's best replay is the
/// one least disturbed by other tenants of the host. Returns the replays.
unsigned int
replay_windows(double budget, std::vector<double> &best,
               const std::function<void(std::vector<double> &)> &run_window);

// ---------------------------------------------------------------------------
// the lung and Poisson cases
// ---------------------------------------------------------------------------

/// Application parameters of a workload: g = 3, k = 3, the seed-0 airway
/// tree; the seed draws the ventilator's driving pressure (+-5 %).
LungApplicationParameters lung_parameters(const Workload &w,
                                          unsigned long seed);

/// The coupled state as a LungApplication checkpoint image (solver,
/// ventilation model, outlet fluxes), and its FNV-1a hash.
std::vector<char> encode_state(LungApplication &app);
std::uint64_t state_hash(LungApplication &app);
/// Restores an encode_state() image in place.
void restore_state(LungApplication &app, const std::vector<char> &image);

/// The application's pressure Poisson problem: the SIP Laplacian of degree
/// k-1 on the flow solver's pressure space (Dirichlet on the inlet and the
/// outlets, Neumann on the walls) with the float hybrid multigrid.
struct PoissonProblem
{
  explicit PoissonProblem(LungApplication &app);
  PoissonProblem(const PoissonProblem &) = delete; // operators point inside
  PoissonProblem &operator=(const PoissonProblem &) = delete;

  BoundaryMap bc;
  TrilinearGeometry geometry;
  LaplaceOperator<double> laplace;
  HybridMultigrid<float> mg;
  double mg_setup_seconds = 0.;
};

/// One timed coupled time step (recorded as a lung.advance span with the
/// step record's durations as children when tracing).
struct StepSample
{
  double seconds = 0.;
  LungApplication::Solver::StepInfo info;
  unsigned long recoveries = 0; ///< pressure ladder fallbacks in this step
};
StepSample timed_step(LungApplication &app, Trace &trace, long op);

/// One timed solve from a zero guess to rel_tol 1e-10, with the true
/// residual recomputed afterwards. With tracing on, the operator and the
/// V-cycle are timed per call as children of the solvers.cg span.
struct SolveSample
{
  double seconds = 0.;
  SolveStats stats;
  bool residual_ok = false; ///< ||b - A x|| <= 1.01 tol ||b||
  // traced solves only: time in the operator, in the V-cycle and its parts
  double vmult_seconds = 0., vcycle_seconds = 0.;
  double fine_level_seconds = 0., coarser_levels_seconds = 0.;
  double amg_seconds = 0.;
  unsigned int vcycles = 0;
};
SolveSample timed_solve(PoissonProblem &problem, const Vector<double> &b,
                        Trace &trace, long op);

/// Right-hand sides of the Poisson workload, uniform in [-1, 1] per DoF.
std::vector<Vector<double>> draw_rhs(std::size_t n_dofs, unsigned int count,
                                     unsigned long seed);

// ---------------------------------------------------------------------------
// workloads and per-layer measurements
// ---------------------------------------------------------------------------

void run_lung(const Workload &w, const Options &opt, Outcome &out);
void run_poisson(const Workload &w, const Options &opt, Outcome &out);

/// Per-layer metrics from traced step / solve samples.
void step_layer_metrics(const std::vector<StepSample> &steps, Outcome &out);
void solve_layer_metrics(const std::vector<SolveSample> &solves,
                         Outcome &out);

/// The layer probes of a traced run, on the workload's own application:
/// operator microphases, vector kernels, pool fork/join, MatrixFree reinit
/// and the checkpoint path (encode, submit, drain, restore).
void probe_layers(LungApplication &app, const Options &opt, Outcome &out);

/// Peak resident set size of the process in MiB.
double peak_rss_mib();

} // namespace dgbench
