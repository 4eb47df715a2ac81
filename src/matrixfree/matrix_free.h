#pragma once

// Matrix-free operator-evaluation data (paper Section 3.1/3.2): SIMD batches
// of cells and faces, precomputed metric terms (inverse Jacobians, JxW,
// normals) at quadrature points in struct-of-array layout with
// VectorizedArray entries, and the shared 1D shape data. Operators drive
// FEEvaluation/FEFaceEvaluation over these batches; the loops vectorize
// across cells and faces (a "SIMD cell" = VectorizedArray<Number>::width
// physical cells).
//
// Faces are grouped into batches of equal (face numbers, orientation,
// subface) so a whole batch shares one interpolation pipeline; on lung
// meshes many distinct keys exist and the trailing partially-filled batches
// reproduce the paper's partially-filled-SIMD-lane overhead.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/aligned_vector.h"
#include "common/exceptions.h"
#include "common/tensor.h"
#include "common/vector.h"
#include "concurrency/thread_pool.h"
#include "fem/kernel_backend.h"
#include "fem/shape_info.h"
#include "fem/tensor_kernels.h"
#include "instrumentation/profiler.h"
#include "mapping/geometry.h"
#include "mesh/mesh.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
/// Geometry class of a cell (and by extension a batch or face batch),
/// established during MatrixFree::reinit by evaluating the geometry
/// polynomial's Jacobian on the (geo_degree+1)^3 tensor Gauss lattice. The
/// test is exact for the polynomial mapping: each Jacobian entry is a
/// polynomial of per-direction degree <= geo_degree, so constancy on
/// geo_degree+1 Gauss points per direction pins it down everywhere.
/// Ordered from most to least structure; batches take the weakest class
/// over their lanes.
enum class GeometryType : unsigned char
{
  cartesian = 0, ///< constant diagonal Jacobian (axis-aligned box cell)
  affine = 1,    ///< constant full Jacobian (parallelepiped cell)
  general = 2    ///< curved/deformed cell, per-q metric required
};

template <typename Number>
class MatrixFree
{
public:
  using VA = VectorizedArray<Number>;
  static constexpr unsigned int n_lanes = VA::width;

  struct AdditionalData
  {
    /// polynomial degrees of the function spaces (index = space id)
    std::vector<unsigned int> degrees;
    /// 1D quadrature sizes (index = quadrature id)
    std::vector<unsigned int> n_q_points_1d;
    /// basis per space: Gauss collocation (DG) or Gauss-Lobatto (continuous
    /// FE spaces of the multigrid hierarchy); empty = all Gauss
    std::vector<BasisType> basis_types;
    /// degree of the per-cell polynomial geometry approximation
    unsigned int geometry_degree = 2;
    /// multiplier on the interior-penalty parameter (k+1)^2 A_f/V; values
    /// above 1 keep SIP coercive on strongly sheared cells (the lung
    /// junction templates need ~4)
    double penalty_safety = 2.;
    /// optional per-space multiplier on top of penalty_safety (empty = 1);
    /// the multigrid hierarchy uses it to let coarser polynomial levels
    /// inherit the finest level's penalty scale
    std::vector<double> penalty_scaling;
    /// store one J^{-T} + det per batch instead of per-q tensors on batches
    /// classified Cartesian/affine (off = every batch stores the full per-q
    /// metric, the layout the compression benchmarks compare against)
    bool compress_geometry = true;
    /// rank of each active cell (partition_cells() output; ownership must be
    /// contiguous along the SFC order). Empty = unpartitioned: one rank owns
    /// everything and the per-rank batch ranges cover all batches. When set,
    /// cell batches never mix ranks and face batches never mix rank pairs,
    /// so every rank evaluates a well-defined sub-range of the shared batch
    /// layout (vmpi ranks share the replicated MatrixFree description).
    std::vector<int> rank_of_cell;
    /// number of ranks rank_of_cell refers to
    int n_ranks = 1;
    /// kernel backend the evaluators of this MatrixFree use, batch or
    /// generic (see fem/kernel_backend.h). Unset = the process default
    /// (set_default_kernel_backend, batch unless the ABFT repair ran).
    std::optional<KernelBackendType> backend;
  };

  struct CellBatch
  {
    std::array<index_t, n_lanes> cells;
    unsigned char n_filled;
  };

  struct FaceBatch
  {
    std::array<index_t, n_lanes> cells_m;
    std::array<index_t, n_lanes> cells_p;
    unsigned char n_filled;
    unsigned char face_no_m, face_no_p;
    unsigned char orientation;
    unsigned char subface0, subface1; ///< 255 when conforming
    unsigned int boundary_id;         ///< boundary batches only
    bool interior;
    /// owning ranks of the minus/plus side cells (equal on rank-interior and
    /// boundary batches; a cut face has rank_m != rank_p). All lanes of a
    /// batch share the same rank pair by construction.
    int rank_m = 0, rank_p = 0;

    bool is_hanging() const { return subface0 != 255; }
    bool is_cut() const { return rank_m != rank_p; }
  };

  /// Metric data at cell quadrature points. Batches classified Cartesian or
  /// affine store one J^{-T} and det(J) per batch instead of per-q tensors
  /// (JxW reconstructs as det * reference weight), which removes the
  /// dominant metric stream from the vmult roofline. That pays on the
  /// Cartesian cube benchmarks (kernels_microbench), not on the lung
  /// meshes, whose cells are general hexahedra: the g=3 mesh has 20
  /// Cartesian cells of 1,296 and compresses no batch (ratio 1.000), the
  /// g3r1 mesh 20 of 470 cell batches and 19 of 1,632 face batches (ratio
  /// 0.978), since a batch compresses only when all its lanes do. General
  /// batches keep the per-q layout; data_index maps a batch into whichever
  /// storage its class uses. q_points stay per-q for every batch: they are
  /// off the vmult hot path (rhs assembly, error norms).
  struct CellMetric
  {
    std::vector<GeometryType> type;       ///< per batch (weakest lane)
    std::vector<unsigned int> data_index; ///< slot into the class' arrays
    AlignedVector<Tensor2<VA>> inv_jac_t; ///< general batches: J^{-T} per q
    AlignedVector<VA> JxW;                ///< general batches, per q
    AlignedVector<Tensor2<VA>> batch_inv_jac_t; ///< compressed batches
    AlignedVector<VA> batch_det;                ///< compressed batches
    AlignedVector<Number> q_weight; ///< reference quadrature weights [n_q]
    AlignedVector<Tensor1<VA>> q_points; ///< all batches, per q
    unsigned int n_q = 0; ///< points per cell (n_q_1d^3)

    GeometryType geometry_type(const unsigned int b) const { return type[b]; }

    /// J^{-T} at (batch, q) regardless of storage class.
    Tensor2<VA> inv_jacobian_t(const unsigned int b,
                               const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return inv_jac_t[slot * n_q + q];
      return batch_inv_jac_t[slot];
    }

    /// JxW at (batch, q) regardless of storage class.
    VA jxw(const unsigned int b, const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return JxW[slot * n_q + q];
      return batch_det[slot] * q_weight[q];
    }

    /// Bytes of metric data streamed on the vmult hot path (J^{-T} and JxW;
    /// q_points excluded - both layouts store those identically - and the
    /// tiny shared q_weight table excluded, so an uncompressed metric has
    /// ratio exactly 1).
    std::size_t hot_bytes_stored() const
    {
      return inv_jac_t.size() * sizeof(Tensor2<VA>) +
             JxW.size() * sizeof(VA) +
             batch_inv_jac_t.size() * sizeof(Tensor2<VA>) +
             batch_det.size() * sizeof(VA);
    }

    /// Hot-path bytes of the uncompressed per-q layout (the denominator of
    /// the compression ratio).
    std::size_t hot_bytes_full() const
    {
      return std::size_t(type.size()) * n_q *
             (sizeof(Tensor2<VA>) + sizeof(VA));
    }
  };

  /// Metric data at face quadrature points in the minus side's ordering.
  /// Same two-class storage as CellMetric: a face batch is compressed when
  /// every adjacent cell in every lane is Cartesian/affine (then the normal
  /// and the surface Jacobian are constant over the face), general
  /// otherwise.
  struct FaceMetric
  {
    std::vector<GeometryType> type;       ///< per batch (weakest lane)
    std::vector<unsigned int> data_index; ///< slot into the class' arrays
    AlignedVector<Tensor1<VA>> normal; ///< general: minus unit normal per q
    AlignedVector<VA> JxW;             ///< general, per q
    AlignedVector<Tensor2<VA>> inv_jac_t_m; ///< general, per q
    AlignedVector<Tensor2<VA>> inv_jac_t_p; ///< general, per q
    AlignedVector<Tensor1<VA>> batch_normal;      ///< compressed batches
    AlignedVector<VA> batch_jxw_scale; ///< surface Jacobian |cof(J) n_ref|
    AlignedVector<Tensor2<VA>> batch_inv_jac_t_m; ///< compressed batches
    AlignedVector<Tensor2<VA>> batch_inv_jac_t_p; ///< compressed batches
    AlignedVector<Number> q_weight; ///< tensorized 2D weights [n_q]
    AlignedVector<Tensor1<VA>> q_points; ///< all batches, per q
    /// Hillewaert penalty geometry factor max(A_f/V_m, A_f/V_p), per batch.
    AlignedVector<VA> penalty_factor;
    unsigned int n_q = 0; ///< points per face (n_q_1d^2)

    GeometryType geometry_type(const unsigned int b) const { return type[b]; }

    /// Unit outward normal of the minus side at (batch, q).
    Tensor1<VA> normal_at(const unsigned int b, const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return normal[slot * n_q + q];
      return batch_normal[slot];
    }

    /// Surface JxW at (batch, q) regardless of storage class.
    VA jxw(const unsigned int b, const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return JxW[slot * n_q + q];
      return batch_jxw_scale[slot] * q_weight[q];
    }

    /// Minus-side J^{-T} at (batch, q) regardless of storage class.
    Tensor2<VA> inv_jacobian_t_m(const unsigned int b,
                                 const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return inv_jac_t_m[slot * n_q + q];
      return batch_inv_jac_t_m[slot];
    }

    /// Plus-side J^{-T} at (batch, q) regardless of storage class.
    Tensor2<VA> inv_jacobian_t_p(const unsigned int b,
                                 const unsigned int q) const
    {
      const std::size_t slot = data_index[b];
      if (type[b] == GeometryType::general)
        return inv_jac_t_p[slot * n_q + q];
      return batch_inv_jac_t_p[slot];
    }

    std::size_t hot_bytes_stored() const
    {
      return normal.size() * sizeof(Tensor1<VA>) + JxW.size() * sizeof(VA) +
             (inv_jac_t_m.size() + inv_jac_t_p.size()) * sizeof(Tensor2<VA>) +
             batch_normal.size() * sizeof(Tensor1<VA>) +
             batch_jxw_scale.size() * sizeof(VA) +
             (batch_inv_jac_t_m.size() + batch_inv_jac_t_p.size()) *
               sizeof(Tensor2<VA>) +
             penalty_factor.size() * sizeof(VA);
    }

    std::size_t hot_bytes_full() const
    {
      return std::size_t(type.size()) * n_q *
               (sizeof(Tensor1<VA>) + sizeof(VA) + 2 * sizeof(Tensor2<VA>)) +
             penalty_factor.size() * sizeof(VA);
    }
  };

  void reinit(const Mesh &mesh, const Geometry &geometry,
              const AdditionalData &data);

  const Mesh &mesh() const { return *mesh_; }

  index_t n_cells() const { return mesh_->n_active_cells(); }
  unsigned int n_cell_batches() const { return cell_batches_.size(); }
  unsigned int n_inner_face_batches() const { return n_inner_batches_; }
  unsigned int n_face_batches() const { return face_batches_.size(); }

  /// Number of ranks of the cell partition (1 when unpartitioned).
  int n_ranks() const { return n_ranks_; }

  /// Owning rank of an active cell (0 when unpartitioned).
  int rank_of_cell(const index_t cell) const
  {
    return rank_of_cell_.empty() ? 0 : rank_of_cell_[cell];
  }

  /// Half-open range of cell batches whose cells the given rank owns.
  std::pair<unsigned int, unsigned int>
  cell_batch_range(const int rank) const
  {
    return cell_batch_ranges_[rank];
  }

  /// Ascending indices of the face batches a rank evaluates: every batch
  /// with at least one side owned by the rank (rank-interior, cut and
  /// boundary faces; branch on face_batch(b).interior). The ascending order
  /// interleaves interior and boundary batches exactly as the unpartitioned
  /// traversal visits them, which keeps accumulation order comparable.
  const std::vector<unsigned int> &face_batches_of_rank(const int rank) const
  {
    return rank_face_batches_[rank];
  }

  /// One thread's share of a traversal: a contiguous run of cell batches
  /// (equivalently a contiguous owned-cell / DoF range) plus the ascending
  /// face-batch work list touching any of its cells. Faces whose two sides
  /// fall into different chunks appear in both chunks' lists; each side
  /// evaluates the full flux and keeps only the writes into its own cell
  /// range (the both-sides-evaluate masking of the cut-face machinery), so
  /// per-cell accumulation order matches the one-chunk sweep exactly.
  ///
  /// completes_ptr/completes_data is the chunk's hook schedule (CSR):
  /// walking face_list in order, entry i "completes" the cell batches listed
  /// in completes_data[completes_ptr[i], completes_ptr[i+1]) — no later
  /// entry reads or writes their cells, so the driver may fire their post
  /// hooks there. The extra slot at face_list.size() holds batches no face
  /// entry touches (cell-only spaces), fired after the face list. Batches
  /// adjacent to a chunk boundary are absent and deferred
  /// (ThreadPartition::deferred).
  struct ThreadChunk
  {
    unsigned int batch_begin = 0, batch_end = 0;
    index_t cell_begin = 0, cell_end = 0;
    std::vector<unsigned int> face_list;
    std::vector<unsigned int> completes_ptr;
    std::vector<unsigned int> completes_data; ///< global cell-batch indices
  };

  /// Static chunking of one traversal (a rank's cell_batch_range(rank) +
  /// face_batches_of_rank(rank), or the unpartitioned one over all batches)
  /// for the loop driver: min(pool width at reinit, batches) chunks, so one
  /// chunk at pool width 1 and none on a rank without cells. deferred lists,
  /// in ascending order, the cell batches whose src/dst is still read by a
  /// neighboring chunk's face sweep: their post hooks fire after the
  /// parallel phases join. pre_before_exchange flags (per batch of
  /// [batch_begin, batch_end)) a rank's batches adjacent to a cut face:
  /// their src entries feed the ghost wire, so src-mutating pre hooks must
  /// run for them before the exchange is posted (all zero for the
  /// unpartitioned traversal, which exchanges nothing).
  struct ThreadPartition
  {
    unsigned int batch_begin = 0, batch_end = 0;
    std::vector<ThreadChunk> chunks;
    std::vector<unsigned int> deferred;
    std::vector<unsigned char> pre_before_exchange;
  };

  /// Thread partition of a rank's traversal; rank -1 = the unpartitioned
  /// traversal over all batches.
  const ThreadPartition &thread_partition(const int rank) const
  {
    return rank < 0 ? whole_thread_partition_ : thread_partitions_[rank];
  }

  const CellBatch &cell_batch(const unsigned int b) const
  {
    return cell_batches_[b];
  }
  const FaceBatch &face_batch(const unsigned int b) const
  {
    return face_batches_[b];
  }

  unsigned int degree(const unsigned int space) const
  {
    return degrees_[space];
  }
  unsigned int n_q_1d(const unsigned int quad) const { return n_q_1d_[quad]; }
  unsigned int n_quads() const { return n_q_1d_.size(); }

  /// Scalar dofs per cell of a space.
  unsigned int dofs_per_cell(const unsigned int space) const
  {
    const unsigned int n = degrees_[space] + 1;
    return n * n * n;
  }

  /// Global size of a field with n_components on the given space.
  std::size_t n_dofs(const unsigned int space,
                     const unsigned int n_components = 1) const
  {
    return std::size_t(n_cells()) * dofs_per_cell(space) * n_components;
  }

  const ShapeInfo<Number> &shape_info(const unsigned int space,
                                      const unsigned int quad) const
  {
    return shape_info_[space * n_q_1d_.size() + quad];
  }

  const CellMetric &cell_metric(const unsigned int quad) const
  {
    return cell_metric_[quad];
  }
  const FaceMetric &face_metric(const unsigned int quad) const
  {
    return face_metric_[quad];
  }

  /// Mutable metric access: ABFT fault injection (flipping a bit in a
  /// compressed geometry batch) and scrub tests. Production code reads the
  /// const accessors above.
  CellMetric &cell_metric_mutable(const unsigned int quad)
  {
    return cell_metric_[quad];
  }

  /// Recomputes every cell/face metric array from the stored geometry
  /// lattice: the ABFT scrub path for a corrupted geometry batch, much
  /// cheaper than a full reinit() (no batch/schedule rebuild). The
  /// computation is deterministic, so the rebuilt arrays are bit-identical
  /// to the ones reinit() produced and the sidecar checksums match again.
  void recompute_metrics()
  {
    DGFLOW_PROF_SCOPE("mf_recompute_metrics");
    for (unsigned int q = 0; q < n_q_1d_.size(); ++q)
    {
      compute_cell_metric(q);
      compute_face_metric(q);
    }
  }

  /// Characteristic (minimal directional) cell width per cell batch.
  const AlignedVector<VA> &cell_width() const { return cell_width_; }
  /// Cell volumes per active cell.
  const std::vector<double> &cell_volumes() const { return cell_volumes_; }

  /// Fraction of face-batch lanes that are filled (diagnostics; < 1 on
  /// unstructured/adaptive meshes, cf. paper Section 5.2).
  double face_lane_fill_fraction() const;

  /// Geometry class of an active cell (see GeometryType). All cells are
  /// general when AdditionalData::compress_geometry was off.
  GeometryType cell_geometry_type(const index_t cell) const
  {
    return cell_geometry_type_[cell];
  }

  /// Metric bytes actually stored on the vmult hot path, summed over all
  /// quadratures (cells + faces).
  std::size_t metric_bytes_stored() const
  {
    std::size_t s = 0;
    for (const auto &m : cell_metric_)
      s += m.hot_bytes_stored();
    for (const auto &m : face_metric_)
      s += m.hot_bytes_stored();
    return s;
  }

  /// Hot-path metric bytes of the uncompressed per-q layout.
  std::size_t metric_bytes_full() const
  {
    std::size_t s = 0;
    for (const auto &m : cell_metric_)
      s += m.hot_bytes_full();
    for (const auto &m : face_metric_)
      s += m.hot_bytes_full();
    return s;
  }

  /// stored / full hot-path metric bytes (1 = no compression).
  double metric_compression_ratio() const
  {
    const std::size_t full = metric_bytes_full();
    return full == 0 ? 1. : double(metric_bytes_stored()) / double(full);
  }

  /// Roofline estimate of main-memory traffic per scalar DoF for one
  /// operator vmult on (space, quad): the solution vectors are streamed a
  /// handful of times (cell loop reads src and writes dst; the face loops
  /// re-read src on both sides and accumulate into dst) and each stored
  /// metric array once.
  double estimated_vmult_bytes_per_dof(const unsigned int space,
                                       const unsigned int quad) const
  {
    const double n = double(n_dofs(space));
    const double vector_bytes = 6. * sizeof(Number) * n;
    const double metric_bytes =
      double(cell_metric_[quad].hot_bytes_stored()) +
      double(face_metric_[quad].hot_bytes_stored());
    return (vector_bytes + metric_bytes) / n;
  }

  /// Kernel backend resolved at reinit (AdditionalData::backend, else the
  /// process default). Evaluators constructed on this MatrixFree run their
  /// sum-factorization sweeps through it.
  KernelBackendType kernel_backend() const { return backend_; }

  double penalty_safety() const { return penalty_safety_; }

  double penalty_scaling(const unsigned int space) const
  {
    return space < penalty_scaling_.size() ? penalty_scaling_[space] : 1.;
  }

private:
  void build_cell_batches();
  void build_face_batches();
  void build_thread_partitions();
  void compute_geometry_lattices(const Geometry &geometry);
  void classify_cell_geometry();
  void compute_cell_metric(const unsigned int quad);
  void compute_face_metric(const unsigned int quad);

  /// Evaluates position and Jacobian of the per-cell geometry polynomial at
  /// a reference point of cell @p cell.
  void evaluate_cell_geometry(const index_t cell, const Point &ref, Point &x,
                              Tensor2<double> &jac) const;

  const Mesh *mesh_ = nullptr;
  std::vector<unsigned int> degrees_;
  std::vector<unsigned int> n_q_1d_;
  unsigned int geo_degree_ = 2;
  double penalty_safety_ = 2.;
  std::vector<double> penalty_scaling_;
  bool compress_geometry_ = true;
  KernelBackendType backend_ = KernelBackendType::batch;
  std::vector<GeometryType> cell_geometry_type_;

  std::vector<CellBatch> cell_batches_;
  std::vector<FaceBatch> face_batches_;
  unsigned int n_inner_batches_ = 0;

  std::vector<int> rank_of_cell_;
  int n_ranks_ = 1;
  std::vector<std::pair<unsigned int, unsigned int>> cell_batch_ranges_;
  std::vector<std::vector<unsigned int>> rank_face_batches_;
  std::vector<unsigned int> batch_of_cell_;
  std::vector<ThreadPartition> thread_partitions_;
  ThreadPartition whole_thread_partition_;

  std::vector<ShapeInfo<Number>> shape_info_;
  std::vector<CellMetric> cell_metric_;
  std::vector<FaceMetric> face_metric_;

  AlignedVector<VA> cell_width_;
  std::vector<double> cell_volumes_;

  // per-cell geometry control lattice, (geo_degree+1)^3 points each
  std::vector<double> geo_nodes_1d_;
  std::unique_ptr<LagrangeBasis> geo_basis_;
  AlignedVector<Point> geo_lattice_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <typename Number>
void MatrixFree<Number>::reinit(const Mesh &mesh, const Geometry &geometry,
                                const AdditionalData &data)
{
  mesh_ = &mesh;
  degrees_ = data.degrees;
  n_q_1d_ = data.n_q_points_1d;
  geo_degree_ = data.geometry_degree;
  penalty_safety_ = data.penalty_safety;
  penalty_scaling_ = data.penalty_scaling;
  DGFLOW_ASSERT(!degrees_.empty() && !n_q_1d_.empty(),
                "need at least one space and one quadrature");

  shape_info_.clear();
  for (unsigned int s = 0; s < degrees_.size(); ++s)
  {
    const BasisType basis = s < data.basis_types.size()
                              ? data.basis_types[s]
                              : BasisType::lagrange_gauss;
    for (const unsigned int nq : n_q_1d_)
      shape_info_.emplace_back(degrees_[s], nq, basis);
  }

  compress_geometry_ = data.compress_geometry;

  rank_of_cell_ = data.rank_of_cell;
  n_ranks_ = data.n_ranks;
  DGFLOW_ASSERT(n_ranks_ >= 1, "need at least one rank");
  DGFLOW_ASSERT(rank_of_cell_.empty() ||
                  rank_of_cell_.size() == std::size_t(mesh.n_active_cells()),
                "rank_of_cell size mismatch");

  backend_ = data.backend.value_or(default_kernel_backend());

  build_cell_batches();
  build_face_batches();
  build_thread_partitions();
  compute_geometry_lattices(geometry);
  classify_cell_geometry();

  cell_metric_.assign(n_q_1d_.size(), CellMetric());
  face_metric_.assign(n_q_1d_.size(), FaceMetric());
  for (unsigned int q = 0; q < n_q_1d_.size(); ++q)
  {
    compute_cell_metric(q);
    compute_face_metric(q);
  }

  DGFLOW_PROF_COUNT("mf_metric_bytes_stored",
                    static_cast<long long>(metric_bytes_stored()));
  DGFLOW_PROF_COUNT("mf_metric_bytes_full",
                    static_cast<long long>(metric_bytes_full()));
  DGFLOW_PROF_GAUGE("mf_metric_compression", metric_compression_ratio());
  DGFLOW_PROF_GAUGE("mf_face_lane_fill", face_lane_fill_fraction());
  DGFLOW_PROF_GAUGE("mf_backend", double(static_cast<int>(backend_)));
}

template <typename Number>
void MatrixFree<Number>::build_cell_batches()
{
  const index_t n = mesh_->n_active_cells();
  cell_batches_.clear();
  cell_batches_.reserve((n + n_lanes - 1) / n_lanes);
  cell_batch_ranges_.assign(n_ranks_, {0u, 0u});

  // batches never cross a rank boundary, so each rank's cells form a
  // contiguous batch range (rank ownership is contiguous in SFC order)
  index_t rank_begin = 0;
  for (int r = 0; r < n_ranks_; ++r)
  {
    index_t rank_end = rank_begin;
    while (rank_end < n &&
           (rank_of_cell_.empty() ? 0 : rank_of_cell_[rank_end]) == r)
      ++rank_end;
    DGFLOW_ASSERT(rank_end == n || rank_of_cell_.empty() ||
                    rank_of_cell_[rank_end] > r,
                  "cell ownership must be contiguous in SFC order");
    const unsigned int first_batch = cell_batches_.size();
    for (index_t start = rank_begin; start < rank_end; start += n_lanes)
    {
      CellBatch b;
      b.n_filled = static_cast<unsigned char>(
        std::min<index_t>(n_lanes, rank_end - start));
      for (unsigned int l = 0; l < n_lanes; ++l)
        b.cells[l] = start + std::min<index_t>(l, b.n_filled - 1);
      cell_batches_.push_back(b);
    }
    cell_batch_ranges_[r] = {first_batch,
                             static_cast<unsigned int>(cell_batches_.size())};
    rank_begin = rank_end;
  }
  DGFLOW_ASSERT(rank_begin == n, "rank_of_cell does not cover all cells");

  batch_of_cell_.assign(n, 0u);
  for (unsigned int b = 0; b < cell_batches_.size(); ++b)
    for (unsigned int l = 0; l < cell_batches_[b].n_filled; ++l)
      batch_of_cell_[cell_batches_[b].cells[l]] = b;
}

template <typename Number>
void MatrixFree<Number>::build_face_batches()
{
  const auto faces = mesh_->build_face_list();

  // group by the face-pipeline key so a batch shares one code path; the
  // rank pair comes last so an unpartitioned layout (all ranks 0) groups
  // and orders exactly as before partitioning existed
  struct Key
  {
    bool interior;
    unsigned char face_no_m, face_no_p, orientation, subface0, subface1;
    unsigned int boundary_id;
    int rank_m, rank_p;
    bool operator<(const Key &o) const
    {
      return std::tie(interior, face_no_m, face_no_p, orientation, subface0,
                      subface1, boundary_id, rank_m, rank_p) <
             std::tie(o.interior, o.face_no_m, o.face_no_p, o.orientation,
                      o.subface0, o.subface1, o.boundary_id, o.rank_m,
                      o.rank_p);
    }
  };
  std::map<Key, std::vector<const Mesh::Face *>> groups;
  for (const auto &f : faces)
  {
    const int rm = rank_of_cell(f.cell_m);
    const int rp = f.is_boundary() ? rm : rank_of_cell(f.cell_p);
    Key key{!f.is_boundary(), f.face_no_m,
            f.is_boundary() ? static_cast<unsigned char>(0) : f.face_no_p,
            f.orientation, f.subface0, f.subface1,
            f.is_boundary() ? f.boundary_id : 0u, rm, rp};
    groups[key].push_back(&f);
  }

  face_batches_.clear();
  auto emit = [this](const Key &key,
                     const std::vector<const Mesh::Face *> &list) {
    for (std::size_t start = 0; start < list.size(); start += n_lanes)
    {
      FaceBatch b;
      b.n_filled = static_cast<unsigned char>(
        std::min<std::size_t>(n_lanes, list.size() - start));
      for (unsigned int l = 0; l < n_lanes; ++l)
      {
        const auto *f = list[start + std::min<std::size_t>(l, b.n_filled - 1)];
        b.cells_m[l] = f->cell_m;
        b.cells_p[l] = f->cell_p;
      }
      b.face_no_m = key.face_no_m;
      b.face_no_p = key.face_no_p;
      b.orientation = key.orientation;
      b.subface0 = key.subface0;
      b.subface1 = key.subface1;
      b.boundary_id = key.boundary_id;
      b.interior = key.interior;
      b.rank_m = key.rank_m;
      b.rank_p = key.rank_p;
      face_batches_.push_back(b);
    }
  };

  // interior batches first
  for (const auto &[key, list] : groups)
    if (key.interior)
      emit(key, list);
  n_inner_batches_ = face_batches_.size();
  for (const auto &[key, list] : groups)
    if (!key.interior)
      emit(key, list);

  // per-rank face work lists: every batch with at least one owned side
  rank_face_batches_.assign(n_ranks_, {});
  for (unsigned int b = 0; b < face_batches_.size(); ++b)
  {
    const FaceBatch &fb = face_batches_[b];
    rank_face_batches_[fb.rank_m].push_back(b);
    if (fb.rank_p != fb.rank_m)
      rank_face_batches_[fb.rank_p].push_back(b);
  }
}

template <typename Number>
void MatrixFree<Number>::build_thread_partitions()
{
  const unsigned int width = concurrency::ThreadPool::instance().n_threads();
  const auto build = [this, width](const int rank, ThreadPartition &part,
                                   const std::vector<unsigned int> &face_list) {
    part = ThreadPartition();
    part.batch_begin = rank < 0 ? 0u : cell_batch_ranges_[rank].first;
    part.batch_end =
      rank < 0 ? n_cell_batches() : cell_batch_ranges_[rank].second;
    const unsigned int batch_begin = part.batch_begin;
    const unsigned int n_local = part.batch_end - batch_begin;
    const unsigned int n_chunks = std::min(width, n_local);

    part.chunks.resize(n_chunks);
    std::vector<unsigned int> chunk_of(n_local);
    for (unsigned int c = 0; c < n_chunks; ++c)
    {
      ThreadChunk &ch = part.chunks[c];
      ch.batch_begin =
        batch_begin + (std::uint64_t(n_local) * c) / n_chunks;
      ch.batch_end =
        batch_begin + (std::uint64_t(n_local) * (c + 1)) / n_chunks;
      ch.cell_begin = cell_batches_[ch.batch_begin].cells[0];
      const CellBatch &last = cell_batches_[ch.batch_end - 1];
      ch.cell_end = last.cells[0] + last.n_filled;
      for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
        chunk_of[b - batch_begin] = c;
    }

    // hand every face batch to each chunk owning one of its cells; a face
    // with cells in more than one chunk is evaluated by all of them (each
    // masks its writes to its own cell range) and pins the touched batches'
    // post hooks past the parallel phases: another chunk's face sweep still
    // reads their src (and a fused post may mutate it). Every other batch
    // completes at the last entry of its chunk's face list touching it.
    constexpr unsigned int none = ~0u;
    std::vector<unsigned int> last_face(n_local, none);
    std::vector<unsigned char> shared(n_local, 0);
    part.pre_before_exchange.assign(n_local, 0);
    std::vector<unsigned int> touched;
    for (const unsigned int fb_id : face_list)
    {
      const FaceBatch &fb = face_batches_[fb_id];
      // fn(local batch index) for every cell of the face this traversal owns
      const auto for_each_batch = [&](const auto &fn) {
        for (unsigned int l = 0; l < fb.n_filled; ++l)
        {
          if (rank < 0 || rank_of_cell(fb.cells_m[l]) == rank)
            fn(batch_of_cell_[fb.cells_m[l]] - batch_begin);
          if (fb.interior &&
              (rank < 0 || rank_of_cell(fb.cells_p[l]) == rank))
            fn(batch_of_cell_[fb.cells_p[l]] - batch_begin);
        }
      };
      touched.clear();
      for_each_batch([&](const unsigned int local) {
        if (std::find(touched.begin(), touched.end(), chunk_of[local]) ==
            touched.end())
          touched.push_back(chunk_of[local]);
      });
      for (const unsigned int c : touched)
        part.chunks[c].face_list.push_back(fb_id);
      for_each_batch([&](const unsigned int local) {
        last_face[local] = part.chunks[chunk_of[local]].face_list.size() - 1;
        if (touched.size() > 1)
          shared[local] = 1;
        if (rank >= 0 && fb.is_cut())
          part.pre_before_exchange[local] = 1;
      });
    }
    for (unsigned int b = 0; b < n_local; ++b)
      if (shared[b])
        part.deferred.push_back(batch_begin + b);

    // chunk-local hook schedules over the private (non-shared) batches
    for (ThreadChunk &ch : part.chunks)
    {
      const auto slot_of = [&](const unsigned int b) {
        const unsigned int last = last_face[b - batch_begin];
        return last == none ? static_cast<unsigned int>(ch.face_list.size())
                            : last;
      };
      ch.completes_ptr.assign(ch.face_list.size() + 2, 0u);
      for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
        if (!shared[b - batch_begin])
          ++ch.completes_ptr[slot_of(b) + 1];
      for (std::size_t i = 1; i < ch.completes_ptr.size(); ++i)
        ch.completes_ptr[i] += ch.completes_ptr[i - 1];
      ch.completes_data.resize(ch.completes_ptr.back());
      std::vector<unsigned int> cursor(ch.completes_ptr.begin(),
                                       ch.completes_ptr.end() - 1);
      for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
        if (!shared[b - batch_begin])
          ch.completes_data[cursor[slot_of(b)]++] = b;
    }
  };

  thread_partitions_.assign(n_ranks_, ThreadPartition());
  for (int r = 0; r < n_ranks_; ++r)
    build(r, thread_partitions_[r], rank_face_batches_[r]);
  std::vector<unsigned int> all_faces(face_batches_.size());
  for (unsigned int i = 0; i < all_faces.size(); ++i)
    all_faces[i] = i;
  build(-1, whole_thread_partition_, all_faces);
}

template <typename Number>
void MatrixFree<Number>::compute_geometry_lattices(const Geometry &geometry)
{
  const unsigned int n = geo_degree_ + 1;
  geo_nodes_1d_ = geo_degree_ == 0
                    ? std::vector<double>{0.5}
                    : gauss_lobatto_quadrature(n).points;
  geo_basis_ = std::make_unique<LagrangeBasis>(geo_nodes_1d_);
  const std::size_t per_cell = std::size_t(n) * n * n;
  geo_lattice_.resize_without_init(per_cell * mesh_->n_active_cells());

  for (index_t c = 0; c < mesh_->n_active_cells(); ++c)
  {
    const TreeCoord &tc = mesh_->cell(c);
    const double h = 1. / (1u << tc.level);
    const Point lower = mesh_->cell_lower_corner(c);
    for (unsigned int k = 0; k < n; ++k)
      for (unsigned int j = 0; j < n; ++j)
        for (unsigned int i = 0; i < n; ++i)
        {
          const Point tree_ref(lower[0] + h * geo_nodes_1d_[i],
                               lower[1] + h * geo_nodes_1d_[j],
                               lower[2] + h * geo_nodes_1d_[k]);
          geo_lattice_[c * per_cell + (k * n + j) * n + i] =
            geometry.map(tc.tree, tree_ref);
        }
  }
}

template <typename Number>
void MatrixFree<Number>::evaluate_cell_geometry(const index_t cell,
                                                const Point &ref, Point &x,
                                                Tensor2<double> &jac) const
{
  const unsigned int n = geo_degree_ + 1;
  const LagrangeBasis &basis = *geo_basis_;
  double v[3][16], g[3][16];
  for (unsigned int d = 0; d < dim; ++d)
    for (unsigned int i = 0; i < n; ++i)
    {
      v[d][i] = basis.value(i, ref[d]);
      g[d][i] = basis.derivative(i, ref[d]);
    }
  x = Point();
  jac = Tensor2<double>();
  const std::size_t per_cell = std::size_t(n) * n * n;
  const Point *cp = geo_lattice_.data() + cell * per_cell;
  for (unsigned int k = 0; k < n; ++k)
    for (unsigned int j = 0; j < n; ++j)
      for (unsigned int i = 0; i < n; ++i)
      {
        const Point &p = cp[(k * n + j) * n + i];
        const double w = v[0][i] * v[1][j] * v[2][k];
        const double wx = g[0][i] * v[1][j] * v[2][k];
        const double wy = v[0][i] * g[1][j] * v[2][k];
        const double wz = v[0][i] * v[1][j] * g[2][k];
        for (unsigned int c = 0; c < dim; ++c)
        {
          x[c] += w * p[c];
          jac[c][0] += wx * p[c];
          jac[c][1] += wy * p[c];
          jac[c][2] += wz * p[c];
        }
      }
}

template <typename Number>
void MatrixFree<Number>::classify_cell_geometry()
{
  cell_geometry_type_.assign(n_cells(), GeometryType::general);
  if (!compress_geometry_)
    return;

  // sample the Jacobian on the (geo_degree+1)^3 tensor Gauss lattice; each
  // entry of J is a polynomial of per-direction degree <= geo_degree, so
  // constancy on the lattice implies constancy everywhere
  const unsigned int n = geo_degree_ + 1;
  const Quadrature1D qg = gauss_quadrature(n);

  for (index_t c = 0; c < n_cells(); ++c)
  {
    Point x;
    Tensor2<double> J0;
    evaluate_cell_geometry(c, Point(qg.points[0], qg.points[0], qg.points[0]),
                           x, J0);
    double scale = 0.;
    for (unsigned int r = 0; r < dim; ++r)
      for (unsigned int s = 0; s < dim; ++s)
        scale = std::max(scale, std::abs(J0[r][s]));
    const double tol = 1e-12 * scale;

    bool constant = true;
    for (unsigned int k = 0; k < n && constant; ++k)
      for (unsigned int j = 0; j < n && constant; ++j)
        for (unsigned int i = 0; i < n && constant; ++i)
        {
          if (i == 0 && j == 0 && k == 0)
            continue;
          Tensor2<double> J;
          evaluate_cell_geometry(
            c, Point(qg.points[i], qg.points[j], qg.points[k]), x, J);
          for (unsigned int r = 0; r < dim && constant; ++r)
            for (unsigned int s = 0; s < dim; ++s)
              if (std::abs(J[r][s] - J0[r][s]) > tol)
              {
                constant = false;
                break;
              }
        }
    if (!constant)
      continue;

    bool diagonal = true;
    for (unsigned int r = 0; r < dim && diagonal; ++r)
      for (unsigned int s = 0; s < dim; ++s)
        if (r != s && std::abs(J0[r][s]) > tol)
        {
          diagonal = false;
          break;
        }
    cell_geometry_type_[c] =
      diagonal ? GeometryType::cartesian : GeometryType::affine;
  }
}

template <typename Number>
void MatrixFree<Number>::compute_cell_metric(const unsigned int quad)
{
  const unsigned int nq1 = n_q_1d_[quad];
  const unsigned int nq = nq1 * nq1 * nq1;
  const Quadrature1D q1 = gauss_quadrature(nq1);

  CellMetric &metric = cell_metric_[quad];
  metric.n_q = nq;
  metric.q_points.resize_without_init(std::size_t(n_cell_batches()) * nq);
  metric.q_weight.resize_without_init(nq);
  for (unsigned int k = 0; k < nq1; ++k)
    for (unsigned int j = 0; j < nq1; ++j)
      for (unsigned int i = 0; i < nq1; ++i)
        metric.q_weight[(k * nq1 + j) * nq1 + i] =
          Number(q1.weights[i] * q1.weights[j] * q1.weights[k]);

  // classify batches (weakest lane wins) and assign storage slots
  metric.type.assign(n_cell_batches(), GeometryType::general);
  metric.data_index.assign(n_cell_batches(), 0u);
  unsigned int n_general = 0, n_compressed = 0;
  for (unsigned int b = 0; b < n_cell_batches(); ++b)
  {
    GeometryType t = GeometryType::cartesian;
    for (unsigned int l = 0; l < n_lanes; ++l)
      t = std::max(t, cell_geometry_type_[cell_batches_[b].cells[l]]);
    metric.type[b] = t;
    metric.data_index[b] =
      t == GeometryType::general ? n_general++ : n_compressed++;
  }
  metric.inv_jac_t.resize_without_init(std::size_t(n_general) * nq);
  metric.JxW.resize_without_init(std::size_t(n_general) * nq);
  metric.batch_inv_jac_t.resize_without_init(n_compressed);
  metric.batch_det.resize_without_init(n_compressed);

  const bool first_quad = (quad == 0);
  if (first_quad)
  {
    cell_width_.assign(n_cell_batches(), VA(1e300));
    cell_volumes_.assign(n_cells(), 0.);
  }

  for (unsigned int b = 0; b < n_cell_batches(); ++b)
  {
    const CellBatch &batch = cell_batches_[b];
    const bool general = metric.type[b] == GeometryType::general;
    const std::size_t slot = metric.data_index[b];
    for (unsigned int l = 0; l < n_lanes; ++l)
    {
      const index_t cell = batch.cells[l];
      double h_min = 1e300, volume = 0;
      for (unsigned int k = 0; k < nq1; ++k)
        for (unsigned int j = 0; j < nq1; ++j)
          for (unsigned int i = 0; i < nq1; ++i)
          {
            const unsigned int q = (k * nq1 + j) * nq1 + i;
            Point x;
            Tensor2<double> J;
            evaluate_cell_geometry(
              cell, Point(q1.points[i], q1.points[j], q1.points[k]), x, J);
            const double det = determinant(J);
            DGFLOW_ASSERT(det > 0, "negative Jacobian in cell " << cell);
            const double jxw =
              det * q1.weights[i] * q1.weights[j] * q1.weights[k];
            for (unsigned int r = 0; r < dim; ++r)
              metric.q_points[std::size_t(b) * nq + q][r][l] = x[r];
            if (general)
            {
              const Tensor2<double> inv_t = transpose(invert(J));
              const std::size_t idx = slot * nq + q;
              for (unsigned int r = 0; r < dim; ++r)
                for (unsigned int s = 0; s < dim; ++s)
                  metric.inv_jac_t[idx][r][s][l] = Number(inv_t[r][s]);
              metric.JxW[idx][l] = Number(jxw);
            }
            volume += jxw;
            for (unsigned int d = 0; d < dim; ++d)
            {
              const double len = std::sqrt(J[0][d] * J[0][d] +
                                           J[1][d] * J[1][d] +
                                           J[2][d] * J[2][d]);
              h_min = std::min(h_min, len);
            }
          }
      if (!general)
      {
        // constant Jacobian: one evaluation (cell center) covers the batch
        Point x;
        Tensor2<double> J;
        evaluate_cell_geometry(cell, Point(0.5, 0.5, 0.5), x, J);
        const double det = determinant(J);
        DGFLOW_ASSERT(det > 0, "negative Jacobian in cell " << cell);
        const Tensor2<double> inv_t = transpose(invert(J));
        for (unsigned int r = 0; r < dim; ++r)
          for (unsigned int s = 0; s < dim; ++s)
            metric.batch_inv_jac_t[slot][r][s][l] = Number(inv_t[r][s]);
        metric.batch_det[slot][l] = Number(det);
      }
      if (first_quad)
      {
        cell_width_[b][l] = Number(h_min);
        if (l < batch.n_filled)
          cell_volumes_[cell] = volume;
      }
    }
  }
}

template <typename Number>
void MatrixFree<Number>::compute_face_metric(const unsigned int quad)
{
  const unsigned int nq1 = n_q_1d_[quad];
  const unsigned int nq = nq1 * nq1;
  const Quadrature1D q1 = gauss_quadrature(nq1);

  FaceMetric &metric = face_metric_[quad];
  metric.n_q = nq;
  metric.q_points.resize_without_init(std::size_t(face_batches_.size()) * nq);
  metric.q_weight.resize_without_init(nq);
  for (unsigned int q1i = 0; q1i < nq1; ++q1i)
    for (unsigned int q0i = 0; q0i < nq1; ++q0i)
      metric.q_weight[q1i * nq1 + q0i] =
        Number(q1.weights[q0i] * q1.weights[q1i]);

  // classify batches: compressed only when every adjacent cell of every
  // lane has a constant Jacobian (then normal and surface JxW are constant
  // too, including on hanging subfaces of affine cells)
  metric.type.assign(face_batches_.size(), GeometryType::general);
  metric.data_index.assign(face_batches_.size(), 0u);
  unsigned int n_general = 0, n_compressed = 0;
  for (unsigned int b = 0; b < face_batches_.size(); ++b)
  {
    const FaceBatch &batch = face_batches_[b];
    GeometryType t = GeometryType::cartesian;
    for (unsigned int l = 0; l < n_lanes; ++l)
    {
      t = std::max(t, cell_geometry_type_[batch.cells_m[l]]);
      if (batch.interior)
        t = std::max(t, cell_geometry_type_[batch.cells_p[l]]);
    }
    metric.type[b] = t;
    metric.data_index[b] =
      t == GeometryType::general ? n_general++ : n_compressed++;
  }
  const std::size_t total = std::size_t(n_general) * nq;
  metric.normal.resize_without_init(total);
  metric.JxW.resize_without_init(total);
  metric.inv_jac_t_m.resize_without_init(total);
  metric.inv_jac_t_p.resize_without_init(total);
  metric.batch_normal.resize_without_init(n_compressed);
  metric.batch_jxw_scale.resize_without_init(n_compressed);
  metric.batch_inv_jac_t_m.resize_without_init(n_compressed);
  metric.batch_inv_jac_t_p.resize_without_init(n_compressed);
  metric.penalty_factor.assign(face_batches_.size(), VA(0.));

  for (unsigned int b = 0; b < face_batches_.size(); ++b)
  {
    const FaceBatch &batch = face_batches_[b];
    const bool general = metric.type[b] == GeometryType::general;
    const std::size_t slot = metric.data_index[b];
    const unsigned int dm = batch.face_no_m / 2, sm = batch.face_no_m % 2;
    const auto tm = face_tangential_dims(dm);

    for (unsigned int l = 0; l < n_lanes; ++l)
    {
      const index_t cm = batch.cells_m[l];
      double area = 0;

      // minus side
      for (unsigned int q1i = 0; q1i < nq1; ++q1i)
        for (unsigned int q0i = 0; q0i < nq1; ++q0i)
        {
          Point ref;
          ref[dm] = double(sm);
          ref[tm[0]] = q1.points[q0i];
          ref[tm[1]] = q1.points[q1i];
          Point x;
          Tensor2<double> J;
          evaluate_cell_geometry(cm, ref, x, J);
          const double det = determinant(J);
          const Tensor2<double> inv_t = transpose(invert(J));
          Tensor1<double> nrm;
          for (unsigned int r = 0; r < dim; ++r)
            nrm[r] = (sm == 1 ? 1. : -1.) * inv_t[r][dm];
          const double mag = std::sqrt(dot(nrm, nrm));
          const double sjxw = mag * det * q1.weights[q0i] * q1.weights[q1i];
          const std::size_t idx_q = std::size_t(b) * nq + q1i * nq1 + q0i;
          for (unsigned int r = 0; r < dim; ++r)
            metric.q_points[idx_q][r][l] = x[r];
          if (general)
          {
            const std::size_t idx = slot * nq + q1i * nq1 + q0i;
            for (unsigned int r = 0; r < dim; ++r)
            {
              metric.normal[idx][r][l] = Number(nrm[r] / mag);
              for (unsigned int s = 0; s < dim; ++s)
                metric.inv_jac_t_m[idx][r][s][l] = Number(inv_t[r][s]);
            }
            metric.JxW[idx][l] = Number(sjxw);
          }
          else if (q0i == 0 && q1i == 0)
          {
            // constant surface metric: the first point covers the face
            for (unsigned int r = 0; r < dim; ++r)
            {
              metric.batch_normal[slot][r][l] = Number(nrm[r] / mag);
              for (unsigned int s = 0; s < dim; ++s)
                metric.batch_inv_jac_t_m[slot][r][s][l] = Number(inv_t[r][s]);
            }
            metric.batch_jxw_scale[slot][l] = Number(mag * det);
          }
          area += sjxw;
        }

      // plus side
      if (batch.interior)
      {
        const index_t cp = batch.cells_p[l];
        const unsigned int dp = batch.face_no_p / 2, sp = batch.face_no_p % 2;
        const auto tp = face_tangential_dims(dp);
        const unsigned int o = batch.orientation;
        const bool swap = (o & 1) != 0;
        const bool flip0 = (o & 2) != 0, flip1 = (o & 4) != 0;

        for (unsigned int r1i = 0; r1i < nq1; ++r1i)
          for (unsigned int r0i = 0; r0i < nq1; ++r0i)
          {
            // (r0,r1) index the plus face axes (tp[0], tp[1]); the matching
            // minus indices are (q0,q1) = swap ? (r1,r0) : (r0,r1)
            const unsigned int q0i = swap ? r1i : r0i;
            const unsigned int q1i = swap ? r0i : r1i;
            // plus face coordinates from the minus coordinates
            const double x0 = q1.points[q0i], x1 = q1.points[q1i];
            double u0 = swap ? x1 : x0;
            double u1 = swap ? x0 : x1;
            if (flip0)
              u0 = 1. - u0;
            if (flip1)
              u1 = 1. - u1;
            if (batch.is_hanging())
            {
              u0 = 0.5 * (u0 + batch.subface0);
              u1 = 0.5 * (u1 + batch.subface1);
            }
            Point ref;
            ref[dp] = double(sp);
            ref[tp[0]] = u0;
            ref[tp[1]] = u1;
            Point x;
            Tensor2<double> J;
            evaluate_cell_geometry(cp, ref, x, J);
            const Tensor2<double> inv_t = transpose(invert(J));
            const std::size_t idx_q = std::size_t(b) * nq + q1i * nq1 + q0i;
            if (l < batch.n_filled)
            {
              // consistency: the two sides must see the same physical point
              Point xm;
              for (unsigned int r = 0; r < dim; ++r)
                xm[r] = metric.q_points[idx_q][r][l];
              const double tol =
                1e3 * std::numeric_limits<Number>::epsilon();
              DGFLOW_ASSERT(norm(xm - x) < tol * (1. + norm(x)),
                            "face orientation mismatch at batch "
                              << b << " lane " << l << ": |dx|="
                              << norm(xm - x));
            }
            if (general)
            {
              const std::size_t idx = slot * nq + q1i * nq1 + q0i;
              for (unsigned int r = 0; r < dim; ++r)
                for (unsigned int s = 0; s < dim; ++s)
                  metric.inv_jac_t_p[idx][r][s][l] = Number(inv_t[r][s]);
            }
            else if (r0i == 0 && r1i == 0)
              for (unsigned int r = 0; r < dim; ++r)
                for (unsigned int s = 0; s < dim; ++s)
                  metric.batch_inv_jac_t_p[slot][r][s][l] =
                    Number(inv_t[r][s]);
          }
      }

      // penalty geometry factor
      double pen = area / cell_volumes_[cm];
      if (batch.interior)
        pen = std::max(pen, area / cell_volumes_[batch.cells_p[l]]);
      metric.penalty_factor[b][l] = Number(pen);
    }
  }
}

template <typename Number>
double MatrixFree<Number>::face_lane_fill_fraction() const
{
  std::size_t filled = 0;
  for (const auto &b : face_batches_)
    filled += b.n_filled;
  return face_batches_.empty()
           ? 1.
           : double(filled) / (face_batches_.size() * n_lanes);
}

} // namespace dgflow
