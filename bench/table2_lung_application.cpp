// Table 2: performance of lung application runs - wall time per time step,
// hours per breathing cycle, hours per liter of tidal volume, versus the
// number of resolved generations g. Small-g cases run the real coupled
// solver on this machine (measured per-step times after the startup
// transient, with the CFL step determining the steps per cycle); larger g
// report the mesh statistics from the real generator plus model-projected
// step times for the paper's node counts. The paper's rows are printed for
// comparison.
//
// Environment: TABLE2_MAX_G (default 3; set 5 for a longer live run)
// bounds the generations run live; a live case whose time step is rejected
// for good (seen at g >= 4) prints as a rejected row. TABLE2_STEPS (default
// 120) sets the steps per case; DGFLOW_THREADS sets the pool width the live
// rows are measured at.

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench/bench_common.h"
#include "concurrency/thread_pool.h"
#include "lung/lung_application.h"
#include "perfmodel/scaling_model.h"

using namespace dgflow;
using namespace dgflow::bench;

int main()
{
  dgflow::prof::EnvSession profile_session;
  print_header("Table 2: lung application runs",
               "paper Table 2: g=3..11, 0.017-0.045 s/step on 2-128 nodes, "
               "0.9-25 h/cycle, 1.9-57 h/l");

  const unsigned int max_live_g =
    std::getenv("TABLE2_MAX_G") ? std::atoi(std::getenv("TABLE2_MAX_G")) : 3;
  const unsigned int n_steps =
    std::getenv("TABLE2_STEPS") ? std::atoi(std::getenv("TABLE2_STEPS")) : 120;

  struct PaperRow
  {
    unsigned int g, nodes;
    double cells, dofs, n_dt, t_step, h_cycle, h_l;
  };
  const PaperRow paper[] = {{3, 2, 2.0e3, 4.4e5, 1.8e5, 0.0174, 0.9, 1.9},
                            {5, 16, 1.8e4, 3.6e6, 5.2e5, 0.0232, 3.4, 7.3},
                            {7, 32, 4.2e4, 9.2e6, 1.0e6, 0.0229, 6.4, 14},
                            {9, 128, 2.1e5, 4.5e7, 1.6e6, 0.0419, 19, 43},
                            {11, 128, 3.5e5, 7.7e7, 2.0e6, 0.0451, 25, 57}};

  Table table({"g", "#cell", "#DoF", "N_dt", "t_wall/N_dt [s]", "h/cycle",
               "h/l", "source"});

  const double period = VentilatorSettings().period;
  const double vt_l = VentilatorSettings().target_tidal_volume / liter;
  ScalingModel model;
  model.mesh_efficiency = 0.8;
  const unsigned int n_threads =
    concurrency::ThreadPool::instance().n_threads();
  const std::string width = std::to_string(n_threads) +
                            (n_threads == 1 ? " thread" : " threads");

  for (const auto &row : paper)
  {
    if (row.g <= max_live_g)
    {
      // live coupled run on this machine
      LungApplicationParameters prm;
      prm.generations = row.g;
      LungApplication app(prm);

      double wall = 0, dt_sum = 0;
      unsigned int measured = 0;
      try
      {
        for (unsigned int s = 0; s < n_steps; ++s)
        {
          const auto info = app.advance();
          if (s >= n_steps / 4) // skip the startup transient
          {
            wall += info.wall_time;
            dt_sum += info.dt;
            ++measured;
          }
        }
      }
      catch (const std::runtime_error &e)
      {
        // the solver gave up on a step after its rejection budget
        std::printf("g=%u: %s\n", row.g, e.what());
        table.add_row(row.g, app.mesh().n_active_cells(), "-", "-", "-", "-",
                      "-", "rejected (" + width + ")");
        continue;
      }
      const double t_step = wall / measured;
      const double dt_avg = dt_sum / measured;
      const double n_dt = period / dt_avg;
      const double h_cycle = n_dt * t_step / 3600.;
      table.add_row(row.g, app.mesh().n_active_cells(),
                    Table::sci(double(app.solver().matrix_free().n_dofs(0, 3) +
                                      app.solver().matrix_free().n_dofs(1, 1)),
                               2),
                    Table::sci(n_dt, 2), Table::format(t_step, 3),
                    Table::format(h_cycle, 3),
                    Table::format(h_cycle / vt_l, 3), "measured (" + width + ")");
    }
    else
    {
      // mesh statistics from the real generator; step time from the model
      // at the paper's node count (one pressure solve at tol 1e-3 ~ 1/3 of
      // the 1e-10 iteration count, plus explicit sub-steps ~ 6 mat-vecs)
      const LungMesh lung = lung_mesh_for_generations(row.g);
      const double n_cells = lung.coarse.cells.size();
      const double n_dofs = n_cells * (3 * 64 + 27);
      ScalingModel::MultigridConfig config;
      config.cg_iterations = 7; // tol 1e-3 with extrapolated initial guess
      config.n_h_levels = 3;
      const double t_press =
        model.poisson_solve_time(n_cells * 27, row.nodes, config);
      const double t_expl =
        6. * model.matvec_time(n_cells * 192, 3, row.nodes);
      const double t_step = t_press + t_expl;
      const double h_cycle = row.n_dt * t_step / 3600.;
      table.add_row(row.g, int(n_cells), Table::sci(n_dofs, 2),
                    Table::sci(row.n_dt, 2), Table::format(t_step, 3),
                    Table::format(h_cycle, 3),
                    Table::format(h_cycle / vt_l, 3),
                    "generated mesh + model");
    }
  }
  table.print();

  std::printf("\npaper's Table 2 (SuperMUC-NG, strong-scaling limit):\n");
  Table ptab({"g", "#node", "#cell", "#DoF", "N_dt", "t_wall/N_dt", "h/cycle",
              "h/l"});
  for (const auto &row : paper)
    ptab.add_row(row.g, row.nodes, Table::sci(row.cells, 2),
                 Table::sci(row.dofs, 2), Table::sci(row.n_dt, 2),
                 Table::format(row.t_step, 3), Table::format(row.h_cycle, 2),
                 Table::format(row.h_l, 2));
  ptab.print();

  std::printf("\nexpected shape: cell/DoF counts of the generated meshes "
              "track the paper's within ~2x; N_dt grows with g (CFL in the "
              "refined upper airways); h/cycle and h/l grow superlinearly "
              "with g.\n");
  return 0;
}
