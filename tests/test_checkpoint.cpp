#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "incns/analytic_flows.h"
#include "incns/solver.h"
#include "mesh/generators.h"
#include "resilience/checkpoint.h"
#include "resilience/ckpt_store.h"

using namespace dgflow;

namespace
{
std::string temp_path(const std::string &name)
{
  return ::testing::TempDir() + "dgflow_" + name;
}

std::vector<char> read_file(const std::string &path)
{
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string &path, const std::vector<char> &bytes)
{
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

FlowBoundaryMap ethier_steinman_bc(const EthierSteinman &es)
{
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [es](const Point &p, double t) { return es.pressure(p, t); };
      b.backflow_stabilization = false;
    }
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [es](const Point &p, double t) { return es.velocity(p, t); };
    }
    bc[id] = b;
  }
  return bc;
}

INSSolver<double>::Parameters es_parameters(const EthierSteinman &es)
{
  INSSolver<double>::Parameters prm;
  prm.degree = 3;
  prm.viscosity = es.nu;
  prm.cfl = 0.2; // adaptive dt: the restart must reproduce the dt sequence
  prm.rel_tol_pressure = 1e-8;
  prm.rel_tol_viscous = 1e-8;
  prm.rel_tol_projection = 1e-8;
  return prm;
}

void setup_es(INSSolver<double> &solver, const Mesh &mesh,
              const Geometry &geom, const EthierSteinman &es)
{
  solver.setup(mesh, geom, ethier_steinman_bc(es), es_parameters(es));
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
}
} // namespace

TEST(CheckpointFileTest, RoundTripPreservesRecordsBitwise)
{
  const std::string path = temp_path("roundtrip.ckpt");
  Vector<double> vd(5);
  for (std::size_t i = 0; i < vd.size(); ++i)
    vd[i] = std::sin(3.7 * double(i)) * 1e-7;
  Vector<float> vf(3);
  for (std::size_t i = 0; i < vf.size(); ++i)
    vf[i] = float(i) + 0.25f;

  {
    resilience::CheckpointWriter writer(path);
    writer.write_u64(42);
    writer.write_double(0.1); // not exactly representable: bitwise matters
    writer.write_vector(vd);
    writer.write_vector(vf);
    writer.close();
  }

  resilience::CheckpointReader reader(path);
  EXPECT_EQ(reader.read_u64(), 42ull);
  EXPECT_EQ(reader.read_double(), 0.1);
  Vector<double> rd;
  Vector<float> rf;
  reader.read_vector(rd);
  reader.read_vector(rf);
  ASSERT_EQ(rd.size(), vd.size());
  for (std::size_t i = 0; i < vd.size(); ++i)
    EXPECT_EQ(rd[i], vd[i]);
  ASSERT_EQ(rf.size(), vf.size());
  for (std::size_t i = 0; i < vf.size(); ++i)
    EXPECT_EQ(rf[i], vf[i]);
  EXPECT_TRUE(reader.exhausted());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, TypeAndPrecisionMismatchesAreStructuredErrors)
{
  const std::string path = temp_path("mismatch.ckpt");
  {
    resilience::CheckpointWriter writer(path);
    writer.write_u64(1);
    Vector<double> v(2);
    writer.write_vector(v);
    writer.close();
  }
  {
    // reading a scalar as the wrong record type
    resilience::CheckpointReader reader(path);
    EXPECT_THROW(reader.read_double(), resilience::CheckpointError);
  }
  {
    // reading a double vector as float
    resilience::CheckpointReader reader(path);
    reader.read_u64();
    Vector<float> v;
    EXPECT_THROW(reader.read_vector(v), resilience::CheckpointError);
  }
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, CorruptionTruncationAndBadHeaderAreRejected)
{
  const std::string path = temp_path("corrupt.ckpt");
  {
    resilience::CheckpointWriter writer(path);
    writer.write_double(1.5);
    writer.write_u64(7);
    writer.close();
  }
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 40u);

  // flip one payload byte: checksum must catch it
  {
    std::vector<char> bad = good;
    bad[bad.size() - 3] = static_cast<char>(bad[bad.size() - 3] ^ 0x10);
    write_file(path, bad);
    try
    {
      resilience::CheckpointReader reader(path);
      FAIL() << "corrupted checkpoint was accepted";
    }
    catch (const resilience::CheckpointError &e)
    {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    }
  }

  // truncated payload
  {
    std::vector<char> bad(good.begin(), good.end() - 4);
    write_file(path, bad);
    EXPECT_THROW(resilience::CheckpointReader reader(path),
                 resilience::CheckpointError);
  }

  // bad magic
  {
    std::vector<char> bad = good;
    bad[0] = 'X';
    write_file(path, bad);
    EXPECT_THROW(resilience::CheckpointReader reader(path),
                 resilience::CheckpointError);
  }

  // missing file
  std::remove(path.c_str());
  EXPECT_THROW(resilience::CheckpointReader reader(path),
               resilience::CheckpointError);
}

// A future version and version 1 (the FNV-1a checksummed format) are both
// rejected by the version check, before any checksum is computed.
TEST(CheckpointFileTest, UnsupportedVersionIsRejected)
{
  const std::string path = temp_path("version.ckpt");
  {
    resilience::CheckpointWriter writer(path);
    writer.write_u64(1);
    writer.close();
  }
  const std::vector<char> good = read_file(path);
  for (const std::uint32_t version : {99u, 1u})
  {
    std::vector<char> bytes = good;
    std::memcpy(bytes.data() + resilience::internal::version_offset, &version,
                sizeof(version));
    write_file(path, bytes);
    try
    {
      resilience::CheckpointReader reader(path);
      FAIL() << "a version-" << version << " checkpoint was accepted";
    }
    catch (const resilience::CheckpointError &e)
    {
      EXPECT_NE(std::string(e.what()).find("format version " +
                                           std::to_string(version)),
                std::string::npos)
        << e.what();
    }
  }
  std::remove(path.c_str());
}

// A checksum-valid image whose 'v' record claims 2^61 + 1 doubles but
// carries 8 bytes: count * 8 wraps to 8 in 64 bits, so the record must be
// checked against the bytes left before the vector is sized.
TEST(CheckpointFileTest, VectorRecordLargerThanThePayloadIsRejected)
{
  resilience::CheckpointWriter writer("oversized.ckpt");
  writer.write_vector(Vector<double>(1));
  std::vector<char> image = writer.encode();
  const std::uint64_t claimed = (std::uint64_t(1) << 61) + 1;
  // the count follows the header, the 'v' tag and the element size byte
  const std::size_t count_offset = resilience::internal::header_bytes + 2;
  std::memcpy(image.data() + count_offset, &claimed, sizeof(claimed));
  const char *payload = image.data() + resilience::internal::header_bytes;
  const std::uint64_t checksum =
    xxh64(payload, image.size() - resilience::internal::header_bytes);
  std::memcpy(image.data() + resilience::internal::checksum_offset,
              &checksum, sizeof(checksum));

  resilience::CheckpointReader reader(std::move(image), "oversized");
  Vector<double> v;
  try
  {
    reader.read_vector(v);
    FAIL() << "a vector of " << v.size() << " elements was read from 8 bytes";
  }
  catch (const resilience::CheckpointError &e)
  {
    EXPECT_NE(std::string(e.what()).find("payload bytes remain"),
              std::string::npos)
      << e.what();
  }
}

TEST(CheckpointINSTest, RestartResumesBitForBit)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  const std::string path = temp_path("ins.ckpt");

  // reference run: 3 steps, checkpoint, 3 more steps
  INSSolver<double> reference;
  setup_es(reference, mesh, geom, es);
  for (int i = 0; i < 3; ++i)
    reference.advance();
  {
    resilience::CheckpointWriter writer(path);
    reference.serialize(writer);
    writer.close();
  }
  for (int i = 0; i < 3; ++i)
    reference.advance();

  // restarted run: fresh solver, same setup, resume from the checkpoint
  INSSolver<double> restarted;
  setup_es(restarted, mesh, geom, es);
  {
    resilience::CheckpointReader reader(path);
    restarted.deserialize(reader);
    EXPECT_TRUE(reader.exhausted());
  }
  std::remove(path.c_str());
  for (int i = 0; i < 3; ++i)
    restarted.advance();

  // exact resume: the adaptive dt sequence and all fields are identical
  EXPECT_EQ(restarted.time(), reference.time());
  ASSERT_EQ(restarted.velocity().size(), reference.velocity().size());
  for (std::size_t i = 0; i < reference.velocity().size(); ++i)
    ASSERT_EQ(restarted.velocity()[i], reference.velocity()[i]) << "dof " << i;
  for (std::size_t i = 0; i < reference.pressure().size(); ++i)
    ASSERT_EQ(restarted.pressure()[i], reference.pressure()[i]) << "dof " << i;
}

TEST(CheckpointINSTest, MismatchedDiscretizationIsRejected)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());

  INSSolver<double> coarse;
  setup_es(coarse, mesh, geom, es);
  coarse.advance();
  resilience::CheckpointWriter writer("ins_mismatch.ckpt");
  coarse.serialize(writer);
  resilience::CheckpointReader reader(writer.encode(), "coarse state");

  Mesh fine(unit_cube());
  fine.refine_uniform(1);
  TrilinearGeometry fine_geom(fine.coarse());
  INSSolver<double> other;
  setup_es(other, fine, fine_geom, es);
  EXPECT_THROW(other.deserialize(reader), std::runtime_error);
}

// The solver's state published through the generation ring — encoded on
// the solving thread, written by the background writer, as LungApplication
// does — restores from the newest generation and resumes bit for bit.
TEST(SolverCheckpointing, AsyncRestartResumesBitForBit)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  const std::string root = temp_path("solver_async");
  std::filesystem::remove_all(root);

  // reference: 6 uninterrupted steps, no checkpointing
  INSSolver<double> reference;
  setup_es(reference, mesh, geom, es);
  for (int i = 0; i < 6; ++i)
    reference.advance();

  // checkpointed run: every step snapshots through the async writer
  {
    INSSolver<double> solver;
    setup_es(solver, mesh, geom, es);
    resilience::AsyncCheckpointer ckpt(root);
    for (int i = 0; i < 3; ++i)
    {
      solver.advance();
      resilience::CheckpointWriter writer("state.ckpt"); // encode only
      solver.serialize(writer);
      std::vector<resilience::AsyncCheckpointer::NamedImage> images;
      images.push_back({"state.ckpt", writer.encode()});
      ckpt.submit(std::move(images));
    }
    ckpt.drain();
    EXPECT_EQ(ckpt.status().published, 3ull);
  }

  // "crash" and restart: a fresh solver restores the newest generation
  resilience::AsyncCheckpointer reopened(root);
  const auto newest = reopened.store().newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 2ull);
  INSSolver<double> restarted;
  setup_es(restarted, mesh, geom, es);
  {
    resilience::CheckpointReader reader(
      reopened.store().generation_directory(*newest) + "/state.ckpt");
    restarted.deserialize(reader);
    EXPECT_TRUE(reader.exhausted());
  }
  std::filesystem::remove_all(root);
  for (int i = 0; i < 3; ++i)
    restarted.advance();

  EXPECT_EQ(restarted.time(), reference.time());
  ASSERT_EQ(restarted.velocity().size(), reference.velocity().size());
  for (std::size_t i = 0; i < reference.velocity().size(); ++i)
    ASSERT_EQ(restarted.velocity()[i], reference.velocity()[i]) << "dof " << i;
  for (std::size_t i = 0; i < reference.pressure().size(); ++i)
    ASSERT_EQ(restarted.pressure()[i], reference.pressure()[i]) << "dof " << i;
}
