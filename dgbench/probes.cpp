// Layer probes of a traced run: each layer's unit of work timed alone on
// the workload's own application, so every workload reports every layer.
// Each timing is the median of repeated calls.

#include <unistd.h>

#include <filesystem>

#include "bench.h"
#include "concurrency/thread_pool.h"

namespace dgbench
{
namespace
{
/// Median seconds of f() over repeated calls (one untimed warm-up call;
/// repeats until ~0.2 s are spent, at least 3 and at most 50 times).
template <typename F>
double median_seconds(F &&f, const bool smoke)
{
  f();
  std::vector<double> times;
  const double start = Trace::now();
  while (times.size() < (smoke ? 1u : 3u) ||
         (!smoke && times.size() < 50 && Trace::now() - start < 0.2))
  {
    const double t0 = Trace::now();
    f();
    times.push_back(Trace::now() - t0);
  }
  return median(times);
}

void add_operator(Outcome &out, const std::string &name, const double seconds,
                  const std::size_t n_src, const std::size_t n_dst)
{
  out.per_layer["operators." + name + "_s"] = {seconds, "s"};
  out.per_layer["operators." + name + "_dofs_per_s"] = {
    double(std::max(n_src, n_dst)) / seconds, "dof/s"};
}
} // namespace

void probe_layers(LungApplication &app, const Options &opt, Outcome &out)
{
  using Solver = LungApplication::Solver;
  const bool smoke = opt.smoke;
  Solver &solver = app.solver();
  const MatrixFree<double> &mf = solver.matrix_free();
  const Vector<double> &u = solver.velocity();
  const Vector<double> &p = solver.pressure();
  const double dt = solver.compute_time_step();

  // the flow solver's boundary kinds: no-slip walls, pressure openings
  FlowBoundaryMap bc;
  {
    FlowBoundary wall;
    wall.velocity = [](const Point &, double) { return Tensor1<double>(); };
    bc[LungMesh::wall_id] = wall;
    FlowBoundary opening;
    opening.kind = FlowBoundary::Kind::pressure;
    opening.pressure = [](const Point &, double) { return 0.; };
    bc[LungMesh::inlet_id] = opening;
    for (const unsigned int id : app.lung_mesh().outlet_ids)
      bc[id] = opening;
  }

  // operators: the flow solver's operator set on its own MatrixFree
  {
    const unsigned int us = Solver::u_space, ps = Solver::p_space;
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, ps, Solver::quad_p, pressure_bc_view(bc));
    HelmholtzOperator<double> helmholtz;
    helmholtz.reinit(mf, us, Solver::quad_u, bc, 1.7e-5);
    helmholtz.set_mass_factor(1.5 / dt);
    PenaltyOperator<double> penalty;
    penalty.reinit(mf, us, Solver::quad_u);
    penalty.update(u, dt);
    MassOperator<double, 3> mass;
    mass.reinit(mf, us, Solver::quad_u);
    ConvectiveOperator<double> convective;
    convective.reinit(mf, us, Solver::quad_over, bc);
    DivergenceOperator<double> divergence;
    divergence.reinit(mf, us, ps, Solver::quad_u, bc);
    GradientOperator<double> gradient;
    gradient.reinit(mf, us, ps, Solver::quad_u, bc);

    const double t = solver.time();
    Vector<double> du(u.size()), dp(p.size());
    add_operator(out, "laplace_vmult",
                 median_seconds([&] { laplace.vmult(dp, p); }, smoke),
                 p.size(), p.size());
    add_operator(out, "helmholtz_vmult",
                 median_seconds([&] { helmholtz.vmult(du, u); }, smoke),
                 u.size(), u.size());
    add_operator(out, "penalty_vmult",
                 median_seconds([&] { penalty.vmult(du, u); }, smoke),
                 u.size(), u.size());
    add_operator(out, "mass_vmult",
                 median_seconds([&] { mass.vmult(du, u); }, smoke), u.size(),
                 u.size());
    add_operator(out, "mass_inverse",
                 median_seconds([&] { mass.apply_inverse(du, u); }, smoke),
                 u.size(), u.size());
    add_operator(out, "convective_apply",
                 median_seconds([&] { convective.apply(du, u, t); }, smoke),
                 u.size(), u.size());
    add_operator(out, "divergence_apply",
                 median_seconds([&] { divergence.apply(dp, u, t); }, smoke),
                 u.size(), p.size());
    add_operator(out, "gradient_apply",
                 median_seconds([&] { gradient.apply(du, p, t); }, smoke),
                 p.size(), u.size());
  }

  // BLAS-1 on velocity- and pressure-sized vectors
  for (const auto &[tag, n] : {std::pair<const char *, std::size_t>{"u", u.size()},
                               {"p", p.size()}})
  {
    Vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i)
    {
      x[i] = 1. + 1e-3 * double(i % 17);
      y[i] = 1e-3 * double(i % 11);
    }
    double sink = 0.;
    out.per_layer[std::string("common.dot_") + tag + "_s"] = {
      median_seconds([&] { sink += x.dot(y); }, smoke), "s"};
    double a = 1e-3;
    out.per_layer[std::string("common.axpy_") + tag + "_s"] = {
      median_seconds([&] { x.add(a = -a, y); }, smoke), "s"};
    out.check(std::isfinite(sink), "vector probe results are finite");
  }

  // an empty parallel region at width 4: the pool's fork/join cost
  {
    auto &pool = concurrency::ThreadPool::instance();
    const auto empty = [](unsigned int) {};
    out.per_layer["concurrency.fork_join_s"] = {
      median_seconds(
        [&] {
          for (unsigned int i = 0; i < 100; ++i)
            pool.run_chunks(4, empty);
        },
        smoke) /
        100.,
      "s"};
  }

  // MatrixFree set-up of the flow solver's discretization on this mesh
  {
    const TrilinearGeometry geometry(app.mesh().coarse());
    MatrixFree<double>::AdditionalData data;
    const unsigned int k = mf.degree(Solver::u_space);
    data.degrees = {k, k - 1};
    data.basis_types = {BasisType::lagrange_gauss, BasisType::lagrange_gauss};
    data.n_q_points_1d = {k + 1, k, k + 2};
    data.geometry_degree = 1;
    data.penalty_safety = 4.;
    MatrixFree<double> fresh;
    out.per_layer["matrixfree.reinit_s"] = {
      median_seconds([&] { fresh.reinit(app.mesh(), geometry, data); }, smoke),
      "s"};
    out.per_layer["matrixfree.cell_batches"] = {double(mf.n_cell_batches()),
                                                "count"};
    out.per_layer["matrixfree.face_batches"] = {double(mf.n_face_batches()),
                                                "count"};
    out.per_layer["mesh.cells"] = {double(app.mesh().n_active_cells()),
                                   "count"};
  }

  // the checkpoint path: encode the coupled state, submit it to a durable
  // generation ring, wait for the background write, restore the newest
  // generation
  {
    const std::string root =
      opt.workdir + "/ckpt-probe-" + std::to_string(::getpid());
    {
      resilience::AsyncCheckpointer ckpt(root);
      std::vector<double> encode, submit, drain, restore;
      std::size_t bytes = 0;
      for (unsigned int i = 0; i < (smoke ? 1u : 3u); ++i)
      {
        double t0 = Trace::now();
        std::vector<char> image = encode_state(app);
        encode.push_back(Trace::now() - t0);
        bytes = image.size();
        std::vector<resilience::AsyncCheckpointer::NamedImage> images;
        images.push_back({"app.ckpt", std::move(image)});
        t0 = Trace::now();
        ckpt.submit(std::move(images));
        submit.push_back(Trace::now() - t0);
        t0 = Trace::now();
        ckpt.drain();
        drain.push_back(Trace::now() - t0);
      }
      const std::uint64_t before = state_hash(app);
      bool restored = true;
      for (unsigned int i = 0; i < (smoke ? 1u : 3u); ++i)
      {
        const double t0 = Trace::now();
        ckpt.drain();
        const auto generation = ckpt.store().newest_valid_generation();
        restored = restored && generation.has_value();
        if (generation)
          app.load_checkpoint(ckpt.store().generation_directory(*generation) +
                              "/app.ckpt");
        restore.push_back(Trace::now() - t0);
      }
      out.check(restored && state_hash(app) == before,
                "a restored checkpoint generation reproduces the state "
                "bitwise");
      const auto status = ckpt.status();
      auto &m = out.per_layer;
      m["resilience.encode_s"] = {median(encode), "s"};
      m["resilience.submit_wait_s"] = {median(submit), "s"};
      m["resilience.drain_s"] = {median(drain), "s"};
      m["resilience.restore_s"] = {median(restore), "s"};
      m["resilience.image_bytes"] = {double(bytes), "bytes"};
      m["resilience.published"] = {double(status.published), "count"};
      m["resilience.write_failures"] = {double(status.failed), "count"};
    }
    std::filesystem::remove_all(root);
  }
}

} // namespace dgbench
