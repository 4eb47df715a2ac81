// The four workloads: lung time steps at pool width 1 and 4, the pressure
// Poisson solve at width 4, and the refined lung with every step
// checkpointed. Every run builds the workload's application (three times:
// set-up is the median), replays a fixed window of steps or solves until
// the time budget is spent, keeps each item's best time, and checks the
// outputs. A traced run measures half of the budget untraced and half
// traced, then runs the layer probes.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.h"
#include "concurrency/thread_pool.h"
#include "instrumentation/profiler.h"
#include "json.h"

namespace dgbench
{
const std::vector<Workload> &workloads()
{
  // name, poisson, threads, refine, checkpoint, warmup, window
  static const std::vector<Workload> list = {
    {"lung_g3_t1", false, 1, false, false, 30, 30},
    {"lung_g3_t4", false, 4, false, false, 30, 30},
    {"poisson_g3_t4", true, 4, false, false, 0, 10},
    {"lung_g3r1_ckpt_t4", false, 4, true, true, 20, 15}};
  return list;
}

const Workload *find_workload(const std::string &name)
{
  for (const Workload &w : workloads())
    if (w.name == name)
      return &w;
  return nullptr;
}

namespace
{
/// The end-to-end metrics of an untraced run: the median of the window's
/// best-of-replays operation times, set-up time and peak memory. (With 10-30
/// operations per window no upper percentile has ten samples beyond it.)
void end_to_end_metrics(const std::vector<double> &best,
                        const std::vector<double> &setup, Outcome &out)
{
  out.end_to_end["op_s_p50"] = {median(best), "s"};
  out.end_to_end["setup_s"] = {median(setup), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
}

/// Runs the traced half of a traced run: spans on, profiler tree on.
void traced_phase(Trace &trace, const std::function<void()> &run)
{
  trace.enable(true);
  prof::Profiler::instance().enable(true);
  run();
  prof::Profiler::instance().enable(false);
  trace.enable(false);
}

std::string trace_path(const Options &opt, const std::string &suffix)
{
  const std::string dir = opt.workdir + "/trace";
  std::filesystem::create_directories(dir);
  return dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
         suffix;
}

/// Ends a traced run: span summary, span and profiler archives, and the
/// tracing overhead on the operation's p50.
void finish_trace(const Options &opt, const Trace &trace,
                  const std::vector<double> &untraced_best,
                  const std::vector<double> &traced_best)
{
  trace.print_summary(std::cout);
  trace.write_jsonl(trace_path(opt, ".spans.jsonl"));
  {
    std::ofstream profile(trace_path(opt, ".profile.json"));
    prof::Profiler::instance().report().write_json(profile);
  }
  const double untraced = median(untraced_best);
  const double traced = median(traced_best);
  std::printf("\ntracing overhead on op_s_p50: traced %.6f s - untraced "
              "%.6f s = %+.6f s (%+.2f %%)\n",
              traced, untraced, traced - untraced,
              100. * (traced - untraced) / untraced);
  std::printf("spans: %s\n", trace_path(opt, ".spans.jsonl").c_str());
}

/// The reference observables of (workload, seed) in the JSON-lines file,
/// or nullptr when it has none.
std::unique_ptr<Json> find_reference(const Options &opt)
{
  std::ifstream in(opt.reference);
  std::string line;
  while (std::getline(in, line))
  {
    if (line.empty())
      continue;
    auto ref = std::make_unique<Json>(parse_json(line));
    const Json *w = ref->find("workload"), *s = ref->find("seed");
    if (w && s && w->string == opt.workload && s->number == double(opt.seed))
      return ref;
  }
  return nullptr;
}

/// Checks the observables at the end of the window against the reference
/// of this workload and seed, and prints them in the reference file's
/// format (README.md explains how the file is regenerated).
void check_observables(const Options &opt,
                       const std::vector<std::pair<const char *, double>> &obs,
                       Outcome &out)
{
  std::string line = "{\"workload\": \"" + opt.workload +
                     "\", \"seed\": " + std::to_string(opt.seed);
  char value[64];
  for (const auto &[key, v] : obs)
  {
    out.check(std::isfinite(v), std::string("observable ") + key +
                                  " is finite");
    std::snprintf(value, sizeof(value), "%.17g", v);
    line += std::string(", \"") + key + "\": " + value;
  }
  std::printf("reference %s}\n", line.c_str());

  const auto ref = opt.smoke ? nullptr : find_reference(opt);
  if (!ref)
  {
    std::printf("reference: none for this workload and seed\n");
    return;
  }
  for (const auto &[key, v] : obs)
  {
    // 5 %: a solve that stops elsewhere inside its 1e-3 tolerance moves
    // these by up to 1.3 %, a rounding change by 1e-7 (README.md)
    const Json *expected = ref->find(key);
    out.check(expected != nullptr &&
                std::abs(v - expected->number) <=
                  5e-2 * std::abs(expected->number),
              std::string("observable ") + key +
                " matches the reference to 5 %");
  }
}
} // namespace

void run_lung(const Workload &w, const Options &opt, Outcome &out)
{
  auto &pool = concurrency::ThreadPool::instance();
  const LungApplicationParameters prm = lung_parameters(w, opt.seed);
  const unsigned int n_check = opt.smoke ? 2 : 5;
  const unsigned int warmup = opt.smoke ? 3 : w.warmup;
  const unsigned int window = opt.smoke ? 3 : w.window;
  const std::string ckpt_root = opt.workdir + "/ckpt-" + w.name + "-" +
                                std::to_string(::getpid());

  // bitwise thread contract: the same steps at the other pool width (thread
  // chunks are fixed when the application is built)
  std::uint64_t other_width_hash = 0;
  {
    pool.set_n_threads(w.threads == 1 ? 4 : 1);
    LungApplication other(prm);
    for (unsigned int s = 0; s < n_check; ++s)
      other.advance();
    other_width_hash = state_hash(other);
  }
  pool.set_n_threads(w.threads);

  std::unique_ptr<LungApplication> app;
  std::vector<double> setup;
  for (unsigned int i = 0; i < 3; ++i)
  {
    app.reset();
    const double t0 = Trace::now();
    app = std::make_unique<LungApplication>(prm);
    if (w.checkpoint)
    {
      // every step checkpointed durably: the scheduler's interval is 0
      resilience::CheckpointScheduler::Options every_step;
      every_step.default_interval_seconds = 0.;
      every_step.min_interval_seconds = 0.;
      every_step.max_interval_seconds = 0.;
      app->enable_checkpointing(ckpt_root, {}, every_step);
    }
    setup.push_back(Trace::now() - t0);
  }

  Trace trace; // off until the traced half of a traced run
  const auto count = [&](const StepSample &s) {
    out.attempted += 1 + s.info.rejections;
    out.failed += s.info.rejections + s.recoveries;
  };
  for (unsigned int s = 0; s < warmup; ++s)
  {
    count(timed_step(*app, trace, s));
    if (s + 1 == n_check)
      out.check(state_hash(*app) == other_width_hash,
                "state after " + std::to_string(n_check) +
                  " steps is bitwise equal at pool widths 1 and 4");
  }
  const std::vector<char> window_start = encode_state(*app);
  const double t_start = app->solver().time();

  // the first replay fixes the end state every later one must reproduce
  // bitwise, and the observables checked against the reference
  std::uint64_t end_hash = 0;
  std::vector<std::pair<const char *, double>> observables;
  long op = warmup;
  std::vector<StepSample> traced_steps;
  const auto run_window = [&](std::vector<double> &best) {
    restore_state(*app, window_start);
    for (unsigned int k = 0; k < window; ++k)
    {
      const StepSample s = timed_step(*app, trace, op++);
      count(s);
      best[k] = std::min(best[k], s.seconds);
      if (trace.enabled())
        traced_steps.push_back(s);
    }
    const std::uint64_t hash = state_hash(*app);
    if (observables.empty())
    {
      end_hash = hash;
      auto &solver = app->solver();
      observables = {{"t", solver.time()},
                     {"u_l2", solver.velocity().l2_norm()},
                     {"p_l2", solver.pressure().l2_norm()},
                     {"inflow", -solver.boundary_flux(LungMesh::inlet_id)}};
    }
    out.check(hash == end_hash,
              "every replay of the window ends in the same state bitwise");
  };

  std::vector<double> untraced(window, 1e300), traced(window, 1e300);
  const unsigned int windows = replay_windows(
    opt.trace ? opt.seconds / 2 : opt.seconds, untraced, run_window);
  if (opt.trace)
    traced_phase(trace,
                 [&] { replay_windows(opt.seconds / 2, traced, run_window); });
  check_observables(opt, observables, out);

  if (w.checkpoint)
  {
    auto &ckpt = *app->checkpointer();
    ckpt.drain();
    const auto status = ckpt.status();
    out.attempted += status.submitted;
    out.failed += status.failed;
    out.check(status.failed == 0 && status.published == status.submitted,
              "every submitted checkpoint was published");
    const std::uint64_t before = state_hash(*app);
    out.check(app->restore_latest() && state_hash(*app) == before,
              "restore_latest() restores the state bitwise");
  }

  // Table 2's hours per breathing cycle: steps per period x time per step
  const double dt_mean = (observables[0].second - t_start) / window;
  std::printf("%s seed %lu: %u cells, %zu DoF, %u untraced windows of %u "
              "steps, best-of p50 %.6f s/step, h/cycle %.3f\n",
              w.name.c_str(), opt.seed, app->mesh().n_active_cells(),
              app->solver().velocity().size() + app->solver().pressure().size(),
              windows, window, median(untraced),
              prm.ventilator.period / dt_mean * mean(untraced) / 3600.);

  if (!opt.trace)
    end_to_end_metrics(untraced, setup, out);
  else
  {
    step_layer_metrics(traced_steps, out);
    // the solver layers, on this application's pressure Poisson problem
    trace.enable(true);
    PoissonProblem problem(*app);
    out.per_layer["multigrid.setup_s"] = {problem.mg_setup_seconds, "s"};
    out.per_layer["multigrid.levels"] = {double(problem.mg.n_levels()),
                                         "count"};
    std::vector<SolveSample> solves;
    for (const auto &b : draw_rhs(problem.laplace.n_dofs(), 2, opt.seed))
      solves.push_back(timed_solve(problem, b, trace, op++));
    solve_layer_metrics(solves, out);
    trace.enable(false);
    probe_layers(*app, opt, out);
    finish_trace(opt, trace, untraced, traced);
  }
  app.reset(); // drains the checkpoint writer before its ring is removed
  std::filesystem::remove_all(ckpt_root);
}

void run_poisson(const Workload &w, const Options &opt, Outcome &out)
{
  concurrency::ThreadPool::instance().set_n_threads(w.threads);
  const LungApplicationParameters prm = lung_parameters(w, opt.seed);
  const unsigned int n_rhs = opt.smoke ? 2 : w.window;

  std::unique_ptr<LungApplication> app;
  std::unique_ptr<PoissonProblem> problem;
  std::vector<double> setup;
  for (unsigned int i = 0; i < 3; ++i)
  {
    problem.reset();
    app.reset();
    const double t0 = Trace::now();
    app = std::make_unique<LungApplication>(prm);
    problem = std::make_unique<PoissonProblem>(*app);
    setup.push_back(Trace::now() - t0);
  }
  const auto rhs = draw_rhs(problem->laplace.n_dofs(), n_rhs, opt.seed);

  Trace trace; // off until the traced half of a traced run
  long op = 0;
  std::vector<unsigned int> iterations(n_rhs, 0);
  std::vector<SolveSample> traced_solves;
  const auto run_window = [&](std::vector<double> &best) {
    for (unsigned int m = 0; m < n_rhs; ++m)
    {
      const SolveSample s = timed_solve(*problem, rhs[m], trace, op++);
      ++out.attempted;
      out.failed += s.stats.converged ? 0 : 1;
      out.check(s.residual_ok, "every solve converged with true residual "
                               "<= 1.01 * 1e-10 * ||b||");
      if (iterations[m] == 0)
        iterations[m] = s.stats.iterations;
      out.check(iterations[m] == s.stats.iterations,
                "repeated solves of one right-hand side take the same "
                "iterations");
      best[m] = std::min(best[m], s.seconds);
      if (trace.enabled())
        traced_solves.push_back(s);
    }
  };

  std::vector<double> untraced(n_rhs, 1e300), traced(n_rhs, 1e300);
  replay_windows(opt.trace ? opt.seconds / 2 : opt.seconds, untraced,
                 run_window);
  std::printf("%s seed %lu: %zu DoF, iterations per right-hand side:",
              w.name.c_str(), opt.seed, problem->laplace.n_dofs());
  for (const unsigned int its : iterations)
    std::printf(" %u", its);
  std::printf("\n");

  if (!opt.trace)
  {
    end_to_end_metrics(untraced, setup, out);
    return;
  }
  traced_phase(trace,
               [&] { replay_windows(opt.seconds / 2, traced, run_window); });
  solve_layer_metrics(traced_solves, out);
  out.per_layer["multigrid.setup_s"] = {problem->mg_setup_seconds, "s"};
  out.per_layer["multigrid.levels"] = {double(problem->mg.n_levels()),
                                       "count"};

  // the time-step layers, on this workload's application
  trace.enable(true);
  std::vector<StepSample> steps;
  for (unsigned int s = 0; s < (opt.smoke ? 2u : 5u); ++s)
    steps.push_back(timed_step(*app, trace, op++));
  step_layer_metrics(steps, out);
  trace.enable(false);
  probe_layers(*app, opt, out);
  finish_trace(opt, trace, untraced, traced);
}

} // namespace dgbench
