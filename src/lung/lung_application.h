#pragma once

// The full lung airflow application (paper Section 5.3): generates the
// morphometric airway tree and hex mesh, wires the incompressible flow
// solver's pressure boundaries to the ventilator (tracheal inlet) and the
// terminal RC compartments (outlets), and advances the explicit 0D/3D
// coupling time step by time step. The Navier-Stokes solver works with
// kinematic pressure p/rho; the driver converts the ventilation model's
// Pa values accordingly.

#include <optional>

#include "incns/solver.h"
#include "lung/lung_mesh.h"
#include "lung/ventilation.h"
#include "resilience/ckpt_scheduler.h"
#include "resilience/ckpt_store.h"

namespace dgflow
{
struct LungApplicationParameters
{
  unsigned int generations = 3;
  unsigned int degree = 3;
  /// refine airway generations <= this value once (255 = off)
  unsigned int refine_upto_generation = 255;
  LungModelParameters lung;
  VentilatorSettings ventilator;
  /// the airway tree's morphometry; its n_generations is overridden by
  /// generations above
  AirwayTreeParameters tree;
};

class LungApplication
{
public:
  using Solver = INSSolver<double>;

  explicit LungApplication(const LungApplicationParameters &prm) : prm_(prm)
  {
    prm_.tree.n_generations = prm.generations;
    tree_ = AirwayTree::generate(prm_.tree);
    lung_mesh_ = build_lung_mesh(tree_);
    mesh_ = std::make_unique<Mesh>(lung_mesh_.coarse);
    if (prm_.refine_upto_generation != 255)
      mesh_->refine(
        lung_mesh_.refine_flags_upto_generation(prm_.refine_upto_generation));
    geometry_ = std::make_unique<TrilinearGeometry>(mesh_->coarse());
    ventilation_ =
      std::make_unique<VentilationModel>(tree_, prm_.lung, prm_.ventilator);

    const double rho = prm_.lung.air_density;
    FlowBoundaryMap bc;
    {
      FlowBoundary wall; // no-slip: velocity Dirichlet, no data
      wall.kind = FlowBoundary::Kind::velocity_dirichlet;
      bc[LungMesh::wall_id] = wall;

      FlowBoundary inlet;
      inlet.kind = FlowBoundary::Kind::pressure;
      inlet.pressure = [this, rho](const Point &, double t) {
        return ventilation_->inlet_pressure(t) / rho;
      };
      bc[LungMesh::inlet_id] = inlet;

      for (unsigned int o = 0; o < ventilation_->n_outlets(); ++o)
      {
        FlowBoundary outlet;
        outlet.kind = FlowBoundary::Kind::pressure;
        outlet.pressure = [this, rho, o](const Point &, double) {
          return ventilation_->outlet_pressure(o) / rho;
        };
        bc[lung_mesh_.outlet_ids[o]] = outlet;
      }
    }

    Solver::Parameters sp;
    sp.degree = prm_.degree;
    sp.viscosity = prm_.lung.kinematic_viscosity;
    // the paper runs CFL = 0.4 with ExaDG's element-size convention, which
    // corresponds to a smaller constant with the minimal directional width
    // used here on the sheared junction cells
    sp.cfl = 0.2;
    // bounds the CFL step; also the startup step from rest, before the
    // pressure impulse has created a velocity scale
    sp.max_dt = 2e-4;
    sp.rel_tol = 1e-3; // the paper's application-run tolerance
    sp.rotational_pressure_bc = false; // see Parameters doc
    sp.geometry_degree = 1; // lung geometry is vertex-based
    solver_.setup(*mesh_, *geometry_, bc, sp);
    solver_.set_initial_condition(
      [](const Point &) { return Tensor1<double>(); });
    outlet_fluxes_.assign(ventilation_->n_outlets(), 0.);
  }

  /// One coupled 0D/3D time step; returns the flow solver's step record.
  Solver::StepInfo advance()
  {
    const auto info = solver_.advance();
    for (unsigned int o = 0; o < ventilation_->n_outlets(); ++o)
      outlet_fluxes_[o] = solver_.boundary_flux(lung_mesh_.outlet_ids[o]);
    const double inflow = -solver_.boundary_flux(LungMesh::inlet_id);
    ventilation_->update(info.time, info.dt, inflow, outlet_fluxes_);
    maybe_checkpoint();
    return info;
  }

  /// Estimated steps per breathing cycle from the current CFL step.
  double estimated_steps_per_cycle() const
  {
    return prm_.ventilator.period / solver_.compute_time_step();
  }

  /// Restores a checkpoint file of the coupled state (written by
  /// maybe_checkpoint() into the generation ring) into an application
  /// constructed with the same parameters; the resumed run continues
  /// bit-for-bit.
  void load_checkpoint(const std::string &path)
  {
    resilience::CheckpointReader reader(path);
    load(reader);
  }

  /// Enables asynchronous multi-generation checkpointing of the *coupled*
  /// state (flow solver + ventilation model + flux coupling buffer) into a
  /// generation ring rooted at @p root. advance() then snapshots whenever
  /// the failure-rate-driven scheduler says a checkpoint is due — the
  /// Young/Daly optimum from measured checkpoint cost and observed MTBF —
  /// and the encoded image is written by the background thread, so the
  /// coupled step never blocks on disk.
  void enable_checkpointing(
    const std::string &root,
    const resilience::AsyncCheckpointer::Options &options = {},
    const resilience::CheckpointScheduler::Options &schedule = {})
  {
    checkpointer_ =
      std::make_unique<resilience::AsyncCheckpointer>(root, options);
    ckpt_scheduler_ =
      std::make_unique<resilience::CheckpointScheduler>(schedule);
    ckpt_clock_.restart();
  }

  /// Takes a checkpoint if checkpointing is enabled and one is due. Write
  /// failures never propagate into the solve: checkpointer()->status()
  /// records them. The writer reserves the size of the previous image, so
  /// from the second checkpoint on the image is staged in one allocation.
  void maybe_checkpoint()
  {
    if (checkpointer_ == nullptr)
      return;
    const double now = ckpt_clock_.seconds();
    if (!ckpt_scheduler_->should_checkpoint(now))
    {
      ckpt_scheduler_->observe(now);
      return;
    }
    Timer stall;
    // encode-only: no disk
    resilience::CheckpointWriter writer("app.ckpt", last_image_bytes_);
    serialize(writer);
    std::vector<resilience::AsyncCheckpointer::NamedImage> images;
    images.push_back({"app.ckpt", writer.encode()});
    last_image_bytes_ = images.back().image.size();
    checkpointer_->submit(std::move(images));
    DGFLOW_PROF_COUNT("ckpt_writes", 1);
    const double cost = stall.seconds();
    DGFLOW_PROF_GAUGE("ckpt_stall_seconds", cost);
    ckpt_scheduler_->record_checkpoint_cost(cost);
    ckpt_scheduler_->checkpoint_taken(ckpt_clock_.seconds());
  }

  /// Restores the coupled state from the newest generation whose app.ckpt
  /// verifies (falling back generation by generation); false when none
  /// does. Each file is read and checksummed once: the reader verifies it
  /// before a value is deserialized.
  bool restore_latest()
  {
    DGFLOW_ASSERT(checkpointer_ != nullptr, "checkpointing is not enabled");
    checkpointer_->drain();
    const resilience::GenerationStore &store = checkpointer_->store();
    const std::vector<std::uint64_t> ids = store.generations();
    for (auto id = ids.rbegin(); id != ids.rend(); ++id)
    {
      std::optional<resilience::CheckpointReader> reader;
      try
      {
        reader.emplace(store.generation_directory(*id) + "/app.ckpt");
      }
      catch (const resilience::CheckpointError &)
      {
        continue; // torn, corrupted or missing: try the next older one
      }
      load(*reader);
      return true;
    }
    return false;
  }

  resilience::AsyncCheckpointer *checkpointer() { return checkpointer_.get(); }
  resilience::CheckpointScheduler *checkpoint_scheduler()
  {
    return ckpt_scheduler_.get();
  }

  Solver &solver() { return solver_; }
  const Mesh &mesh() const { return *mesh_; }
  const AirwayTree &tree() const { return tree_; }
  const LungMesh &lung_mesh() const { return lung_mesh_; }
  VentilationModel &ventilation() { return *ventilation_; }

private:
  /// The coupled 0D/3D record layout load() reads back: flow solver,
  /// ventilation model, outlet-flux coupling buffer.
  void serialize(resilience::CheckpointWriter &writer) const
  {
    solver_.serialize(writer);
    ventilation_->save_state(writer);
    writer.write_u64(outlet_fluxes_.size());
    for (const double q : outlet_fluxes_)
      writer.write_double(q);
  }

  void load(resilience::CheckpointReader &reader)
  {
    solver_.deserialize(reader);
    ventilation_->load_state(reader);
    const std::uint64_t n = reader.read_u64();
    DGFLOW_ASSERT(n == outlet_fluxes_.size(),
                  "checkpoint has " << n << " outlet fluxes, application has "
                                    << outlet_fluxes_.size());
    for (double &q : outlet_fluxes_)
      q = reader.read_double();
    DGFLOW_ASSERT(reader.exhausted(),
                  "trailing bytes after the application checkpoint records");
  }

  LungApplicationParameters prm_;
  AirwayTree tree_;
  LungMesh lung_mesh_;
  std::unique_ptr<Mesh> mesh_;
  std::unique_ptr<TrilinearGeometry> geometry_;
  std::unique_ptr<VentilationModel> ventilation_;
  Solver solver_;
  std::vector<double> outlet_fluxes_;

  // asynchronous checkpointing (enable_checkpointing; owned)
  std::unique_ptr<resilience::AsyncCheckpointer> checkpointer_;
  std::unique_ptr<resilience::CheckpointScheduler> ckpt_scheduler_;
  Timer ckpt_clock_;
  std::size_t last_image_bytes_ = 0; ///< size of the last encoded image
};

} // namespace dgflow
