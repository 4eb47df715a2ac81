// The pieces the workloads are built from: the lung application of a
// workload and its state images, the pressure Poisson problem on it, one
// timed (and optionally traced) step or solve, the per-layer metrics of
// such samples, and the statistics the metrics are defined with.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "bench.h"
#include "solvers/cg.h"

namespace dgbench
{
void Outcome::check(const bool ok, const std::string &what)
{
  if (!ok &&
      std::find(failed_checks.begin(), failed_checks.end(), what) ==
        failed_checks.end())
    failed_checks.push_back(what);
}

double median(std::vector<double> v)
{
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double> &v)
{
  double s = 0.;
  for (const double x : v)
    s += x;
  return s / double(v.size());
}

unsigned int
replay_windows(const double budget, std::vector<double> &best,
               const std::function<void(std::vector<double> &)> &run_window)
{
  const double start = Trace::now();
  double last = 0.;
  unsigned int n = 0;
  while (n < 2 || Trace::now() - start + last <= budget)
  {
    const double t0 = Trace::now();
    run_window(best);
    last = Trace::now() - t0;
    ++n;
  }
  return n;
}

double peak_rss_mib()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.; // ru_maxrss is in KiB on Linux
}

namespace
{
/// Uniform double in [0, 1) from the top 53 bits of one generator draw (the
/// same sequence with every standard library).
double unit_uniform(std::mt19937_64 &rng)
{
  return double(rng() >> 11) * 0x1.0p-53;
}
} // namespace

LungApplicationParameters lung_parameters(const Workload &w,
                                          const unsigned long seed)
{
  LungApplicationParameters prm;
  prm.generations = 3;
  prm.degree = 3;
  if (w.refine)
    prm.refine_upto_generation = 1;
  std::mt19937_64 rng(seed);
  prm.ventilator.dp *= 0.95 + 0.1 * unit_uniform(rng);
  return prm;
}

std::vector<char> encode_state(LungApplication &app)
{
  // the record layout of LungApplication::save_checkpoint, so a generation
  // written from this image restores through load_checkpoint()
  resilience::CheckpointWriter writer("app.ckpt");
  app.solver().serialize(writer);
  app.ventilation().save_state(writer);
  const auto &outlets = app.lung_mesh().outlet_ids;
  writer.write_u64(outlets.size());
  for (const unsigned int id : outlets)
    writer.write_double(app.solver().boundary_flux(id));
  return writer.encode();
}

std::uint64_t state_hash(LungApplication &app)
{
  return resilience::CheckpointReader(encode_state(app), "state").checksum();
}

void restore_state(LungApplication &app, const std::vector<char> &image)
{
  // the outlet-flux records are not read back: advance() recomputes them
  // from the restored velocity before the 0D model uses them
  resilience::CheckpointReader reader(image, "window start");
  app.solver().deserialize(reader);
  app.ventilation().load_state(reader);
}

PoissonProblem::PoissonProblem(LungApplication &app)
  : geometry(app.mesh().coarse())
{
  using Solver = LungApplication::Solver;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const unsigned int id : app.lung_mesh().outlet_ids)
    bc.set(id, BoundaryType::dirichlet);
  const MatrixFree<double> &mf = app.solver().matrix_free();
  laplace.reinit(mf, Solver::p_space, Solver::quad_p, bc);

  // the options INSSolver gives its pressure multigrid on the lung mesh
  HybridMultigrid<float>::Options options;
  options.geometry_degree = 1;
  options.penalty_safety = 4.;
  const double t0 = Trace::now();
  mg.setup(app.mesh(), geometry, mf.degree(Solver::p_space), bc, options);
  mg_setup_seconds = Trace::now() - t0;
}

StepSample timed_step(LungApplication &app, Trace &trace, const long op)
{
  StepSample s;
  const auto &ladder = app.solver().pressure_solver();
  const unsigned long long recoveries0 = ladder.recoveries();
  const double t0 = Trace::now();
  s.info = app.advance();
  const double t1 = Trace::now();
  s.seconds = t1 - t0;
  s.recoveries = ladder.recoveries() - recoveries0;
  if (trace.enabled())
  {
    // the step record's durations become children; the solves are placed
    // back to back at the end of the step (only their lengths are measured)
    const int root = trace.record("lung.advance", -1, op, t0, t1);
    const double step_end = t0 + s.info.wall_time;
    const int step = trace.record("incns.step", root, op, t0, step_end);
    double end = step_end;
    for (const auto &[name, stats] :
         {std::pair<const char *, const SolveStats &>{"incns.penalty",
                                                      s.info.penalty},
          {"incns.viscous", s.info.viscous},
          {"incns.pressure", s.info.pressure}})
    {
      trace.record(name, step, op, end - stats.seconds, end);
      end -= stats.seconds;
    }
  }
  return s;
}

namespace
{
/// The Laplace operator with every vmult timed as a span; forwards the
/// solver's fused-loop hooks so the traced CG runs the same code path.
struct TimedLaplace
{
  const LaplaceOperator<double> &op;
  Trace &trace;
  int parent;
  long index;
  SolveSample &sample;

  template <typename... Hooks>
  void vmult(Vector<double> &dst, const Vector<double> &src,
             Hooks &&...hooks) const
  {
    const double t0 = Trace::now();
    op.vmult(dst, src, std::forward<Hooks>(hooks)...);
    const double t1 = Trace::now();
    sample.vmult_seconds += t1 - t0;
    trace.record("operators.laplace_vmult", parent, index, t0, t1);
  }
};

/// One V-cycle per call, timed as a span whose children are the level and
/// coarse-solve seconds the multigrid accumulates (HybridMultigrid
/// level_seconds / amg_seconds deltas), placed back to back.
struct TimedVcycle
{
  const HybridMultigrid<float> &mg;
  Trace &trace;
  int parent;
  long index;
  SolveSample &sample;

  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    const std::vector<double> levels0 = mg.level_seconds();
    const double amg0 = mg.amg_seconds();
    const double t0 = Trace::now();
    mg.vmult(dst, src);
    const double t1 = Trace::now();
    const std::vector<double> &levels = mg.level_seconds();
    double fine = 0., coarser = 0.;
    for (std::size_t l = 0; l < levels.size(); ++l)
    {
      const double d = levels[l] - (l < levels0.size() ? levels0[l] : 0.);
      (l + 1 == levels.size() ? fine : coarser) += d;
    }
    const double amg = mg.amg_seconds() - amg0;
    sample.vcycle_seconds += t1 - t0;
    sample.fine_level_seconds += fine;
    sample.coarser_levels_seconds += coarser;
    sample.amg_seconds += amg;
    ++sample.vcycles;
    const int id = trace.record("multigrid.vcycle", parent, index, t0, t1);
    double t = t0;
    for (const auto &[name, d] :
         {std::pair<const char *, double>{"multigrid.fine_level", fine},
          {"multigrid.coarser_levels", coarser},
          {"amg.coarse", amg}})
    {
      trace.record(name, id, index, t, t + d);
      t += d;
    }
  }
};
} // namespace

SolveSample timed_solve(PoissonProblem &problem, const Vector<double> &b,
                        Trace &trace, const long op)
{
  SolveSample s;
  Vector<double> x(b.size());
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 2000;
  const double t0 = Trace::now();
  if (trace.enabled())
  {
    const int root = trace.open("solvers.cg", -1, op);
    TimedLaplace A{problem.laplace, trace, root, op, s};
    TimedVcycle P{problem.mg, trace, root, op, s};
    s.stats = solve_cg(A, x, b, P, control);
    trace.close(root);
  }
  else
    s.stats = solve_cg(problem.laplace, x, b, problem.mg, control);
  s.seconds = Trace::now() - t0;

  Vector<double> r(b.size());
  problem.laplace.vmult(r, x);
  r.sadd(-1., 1., b);
  s.residual_ok =
    s.stats.converged && r.l2_norm() <= 1.01 * control.rel_tol * b.l2_norm();
  return s;
}

std::vector<Vector<double>> draw_rhs(const std::size_t n_dofs,
                                     const unsigned int count,
                                     const unsigned long seed)
{
  std::mt19937_64 rng(seed);
  std::vector<Vector<double>> rhs(count);
  for (Vector<double> &b : rhs)
  {
    b.reinit(n_dofs);
    for (std::size_t i = 0; i < n_dofs; ++i)
      b[i] = 2. * unit_uniform(rng) - 1.;
  }
  return rhs;
}

void step_layer_metrics(const std::vector<StepSample> &steps, Outcome &out)
{
  std::vector<double> coupling, step, expl, pressure, viscous, penalty,
    p_its, v_its, q_its;
  double rejections = 0.;
  for (const StepSample &s : steps)
  {
    const auto &i = s.info;
    coupling.push_back(s.seconds - i.wall_time);
    step.push_back(i.wall_time);
    expl.push_back(i.wall_time - i.pressure.seconds - i.viscous.seconds -
                   i.penalty.seconds);
    pressure.push_back(i.pressure.seconds);
    viscous.push_back(i.viscous.seconds);
    penalty.push_back(i.penalty.seconds);
    p_its.push_back(i.pressure.iterations);
    v_its.push_back(i.viscous.iterations);
    q_its.push_back(i.penalty.iterations);
    rejections += i.rejections;
  }
  auto &m = out.per_layer;
  m["lung.coupling_s"] = {median(coupling), "s"};
  m["incns.step_s"] = {median(step), "s"};
  m["incns.explicit_s"] = {median(expl), "s"};
  m["incns.pressure_s"] = {median(pressure), "s"};
  m["incns.viscous_s"] = {median(viscous), "s"};
  m["incns.penalty_s"] = {median(penalty), "s"};
  m["incns.pressure_its"] = {median(p_its), "count"};
  m["incns.viscous_its"] = {median(v_its), "count"};
  m["incns.penalty_its"] = {median(q_its), "count"};
  m["incns.rejections"] = {rejections, "count"};
}

void solve_layer_metrics(const std::vector<SolveSample> &solves,
                         Outcome &out)
{
  std::vector<double> its, iteration, body, vcycle, fine, coarser, amg;
  for (const SolveSample &s : solves)
  {
    const double n = std::max(1u, s.stats.iterations);
    const double cycles = std::max(1u, s.vcycles);
    its.push_back(s.stats.iterations);
    iteration.push_back(s.seconds / n);
    body.push_back((s.seconds - s.vmult_seconds - s.vcycle_seconds) / n);
    vcycle.push_back(s.vcycle_seconds / cycles);
    fine.push_back(s.fine_level_seconds / cycles);
    coarser.push_back(s.coarser_levels_seconds / cycles);
    amg.push_back(s.amg_seconds / cycles);
  }
  auto &m = out.per_layer;
  m["solvers.cg_its"] = {median(its), "count"};
  m["solvers.iteration_s"] = {median(iteration), "s"};
  m["solvers.cg_body_s"] = {median(body), "s"};
  m["multigrid.vcycle_s"] = {median(vcycle), "s"};
  m["multigrid.fine_level_s"] = {median(fine), "s"};
  m["multigrid.coarser_levels_s"] = {median(coarser), "s"};
  m["amg.coarse_s"] = {median(amg), "s"};
}

} // namespace dgbench
