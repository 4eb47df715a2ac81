#include "resilience/abft.h"

#include "common/checksum.h"
#include "fem/kernel_backend.h"
#include "fem/kernel_dispatch.h"
#include "fem/kernel_dispatch_sizes.h"
#include "instrumentation/profiler.h"

namespace dgflow::resilience
{
void ArtifactGuard::protect(std::string name, Regions regions, Rebuild rebuild)
{
  Entry e;
  e.name = std::move(name);
  e.regions = std::move(regions);
  e.rebuild = std::move(rebuild);
  e.baseline = checksum(e);
  for (Entry &existing : entries_)
    if (existing.name == e.name)
    {
      existing = std::move(e);
      return;
    }
  entries_.push_back(std::move(e));
}

std::uint64_t ArtifactGuard::checksum(const Entry &e) const
{
  // XXH64 of each region, chained through the seed (the digest so far), so
  // region order and lengths count. Geometry batches run to hundreds of MB
  // on production meshes, and the scrub sits inside the solver's replay
  // boundary, so checksum throughput bounds the guard's steady-state
  // overhead. A cheaper xor-then-multiply word hash would not do: a second
  // bit-63 flip anywhere in the artifact cancels the first.
  std::uint64_t h = 0;
  for (const Region &r : e.regions())
    h = xxh64(r.data, r.bytes, h);
  return h;
}

const ArtifactGuard::Entry &ArtifactGuard::find(const std::string &name) const
{
  for (const Entry &e : entries_)
    if (e.name == name)
      return e;
  throw std::runtime_error("ArtifactGuard: unknown artifact '" + name + "'");
}

bool ArtifactGuard::verify(const std::string &name) const
{
  const Entry &e = find(name);
  ++verifications_;
  return checksum(e) == e.baseline;
}

void ArtifactGuard::rebaseline(const std::string &name)
{
  Entry &e = find(name);
  e.baseline = checksum(e);
}

unsigned int ArtifactGuard::scrub()
{
  DGFLOW_PROF_SCOPE("abft_scrub");
  unsigned int rebuilt = 0;
  for (Entry &e : entries_)
  {
    ++verifications_;
    if (checksum(e) == e.baseline)
      continue;
    e.rebuild();
    ++rebuilds_;
    ++rebuilt;
    DGFLOW_PROF_COUNT("abft_scrub_rebuilds", 1);
    const std::uint64_t after = checksum(e);
    // a bit-identical rebuild is a full repair; a representation-changing
    // one (kernel fast path disabled) is adopted as the new baseline
    if (after != e.baseline)
      e.baseline = after;
  }
  return rebuilt;
}

void protect_kernel_tables(ArtifactGuard &guard)
{
  guard.protect(
    "kernel_dispatch_tables",
    []() {
      std::vector<ArtifactGuard::Region> r;
      const auto add = [&r](const auto *table) {
        if (table != nullptr)
          r.push_back({table, sizeof(*table)});
      };
#define DGFLOW_ABFT_ADD_TABLES(deg, nq)                                       \
  add(lookup_cell_kernels<double>(deg, nq));                                  \
  add(lookup_face_kernels<double>(deg, nq));                                  \
  add(lookup_cell_kernels<float>(deg, nq));                                   \
  add(lookup_face_kernels<float>(deg, nq));
      DGFLOW_KERNEL_DISPATCH_SIZES(DGFLOW_ABFT_ADD_TABLES)
#undef DGFLOW_ABFT_ADD_TABLES
      return r;
    },
    // routing to the generic backend default disables fixed-size dispatch:
    // lookup_* return nullptr afterwards, so batch evaluators degrade to the
    // verified runtime-extent sweeps
    []() { set_default_kernel_backend(KernelBackendType::generic); });
}

} // namespace dgflow::resilience
