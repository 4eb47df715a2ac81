#pragma once

// Boundary-condition descriptors shared by the operators. Each boundary id
// of the mesh is mapped to a condition type; the incompressible solver uses
// complementary types for velocity and pressure (paper Section 2.4: velocity
// Dirichlet walls get pressure Neumann, pressure Dirichlet in/outflows get
// velocity Neumann). The flow operators read their boundary data through
// the binders velocity_data and pressure_data.

#include <functional>
#include <map>

#include "common/exceptions.h"
#include "matrixfree/field_tools.h"

namespace dgflow
{
enum class BoundaryType
{
  dirichlet,
  neumann
};

class BoundaryMap
{
public:
  BoundaryMap() = default;

  explicit BoundaryMap(std::map<unsigned int, BoundaryType> types)
    : types_(std::move(types))
  {}

  void set(const unsigned int id, const BoundaryType type)
  {
    types_[id] = type;
  }

  BoundaryType type_of(const unsigned int id) const
  {
    const auto it = types_.find(id);
    DGFLOW_ASSERT(it != types_.end(),
                  "no boundary condition registered for boundary id " << id);
    return it->second;
  }

  bool empty() const { return types_.empty(); }

private:
  std::map<unsigned int, BoundaryType> types_;
};

/// Time-dependent vector-valued boundary function.
using VectorFunctionT =
  std::function<Tensor1<double>(const Point &, double)>;
/// Time-dependent scalar boundary function.
using ScalarFunctionT = std::function<double(const Point &, double)>;

/// Per-boundary-id data of the flow solver: either a velocity Dirichlet
/// boundary (walls, inlets; pressure sees a Neumann condition there) or a
/// pressure boundary (outlets; velocity sees a Neumann condition).
struct FlowBoundary
{
  enum class Kind
  {
    velocity_dirichlet,
    pressure
  };
  Kind kind = Kind::velocity_dirichlet;
  /// g_u (velocity_dirichlet); empty = zero data (a no-slip wall), which
  /// no reader evaluates
  VectorFunctionT velocity;
  ScalarFunctionT pressure; ///< g_p (pressure boundaries)
  /// suppress incoming momentum flux at locally reversed flow on pressure
  /// boundaries (energy-stable outflow; disable for analytic test flows
  /// with genuine inflow through the open boundary)
  bool backflow_stabilization = true;
};

using FlowBoundaryMap = std::map<unsigned int, FlowBoundary>;

/// BoundaryMap view of a FlowBoundaryMap for the pressure Laplacian.
inline BoundaryMap pressure_bc_view(const FlowBoundaryMap &bcs)
{
  BoundaryMap bc;
  for (const auto &[id, b] : bcs)
    bc.set(id, b.kind == FlowBoundary::Kind::pressure
                 ? BoundaryType::dirichlet
                 : BoundaryType::neumann);
  return bc;
}

namespace internal
{
/// Binder of the boundary function @p member of @p bcs at time @p t.
template <typename Function>
auto flow_data(const FlowBoundaryMap &bcs, const double t,
               Function FlowBoundary::*member)
{
  return [&bcs, t, member](const auto &phi) {
    const Function &g = bcs.at(phi.boundary_id()).*member;
    return [&phi, &g, t](const unsigned int q) {
      if (!g)
        return typename std::decay_t<decltype(phi)>::value_type();
      return point_values(phi, q, [&](const Point &x) { return g(x, t); });
    };
  };
}
} // namespace internal

/// Binders of the flow boundary data at time @p t: bound to a face
/// evaluator reinit'ed on a boundary batch, velocity_data returns
/// q -> g_u(x_q, t) and pressure_data q -> g_p(x_q, t); where the boundary
/// has no such function they return zero and call nothing. Both only read
/// @p bcs, so the loop's chunks may call them concurrently.
inline auto velocity_data(const FlowBoundaryMap &bcs, const double t)
{
  return internal::flow_data(bcs, t, &FlowBoundary::velocity);
}

inline auto pressure_data(const FlowBoundaryMap &bcs, const double t)
{
  return internal::flow_data(bcs, t, &FlowBoundary::pressure);
}

} // namespace dgflow
