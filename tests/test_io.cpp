// XYZ reader, LAMMPS data files and checkpoint round trips.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "io/checkpoint.hpp"
#include "io/lammps_data.hpp"
#include "io/xyz_reader.hpp"
#include "md/dump.hpp"
#include "md/velocity.hpp"
#include "run/run_dir.hpp"

namespace sdcmd {
namespace {

System sample_system() {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  maxwell_boltzmann_velocities(system.atoms().velocity, system.mass(),
                               300.0, 17);
  system.atoms().image[5] = {1, -2, 0};
  return system;
}

/// Doubles that stress a text codec: signed zero, the smallest subnormal,
/// the normal range ends, a value with no short decimal form, large and
/// small exponents; plus extreme ids and negative image counters.
System edge_system() {
  Box box({-0.0, 5e-324, -1e21}, {DBL_MAX, 1.0, 1e21}, {true, false, true});
  Atoms atoms(2);
  atoms.id[0] = UINT32_MAX;
  atoms.position[0] = {-0.0, 5e-324, DBL_MIN};
  atoms.velocity[0] = {DBL_MAX, 0.1 + 0.2, 1e21};
  atoms.image[0] = {-1, -123456, INT_MIN};
  atoms.id[1] = 0;
  atoms.position[1] = {1e-7, -DBL_MAX, -DBL_MIN};
  atoms.velocity[1] = {-5e-324, -1e-7, 1.0 / 3.0};
  atoms.image[1] = {0, -2, INT_MAX};
  return System(box, std::move(atoms), 0.1 + 0.2);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

void expect_bit_identical(const System& a, const System& b) {
  EXPECT_TRUE(same_bits(a.mass(), b.mass()));
  EXPECT_TRUE(same_bits(a.box().lo(), b.box().lo()));
  EXPECT_TRUE(same_bits(a.box().hi(), b.box().hi()));
  for (int dim = 0; dim < 3; ++dim) {
    EXPECT_EQ(a.box().periodic(dim), b.box().periodic(dim));
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.atoms().id[i], b.atoms().id[i]) << "row " << i;
    EXPECT_TRUE(same_bits(a.atoms().position[i], b.atoms().position[i]))
        << "row " << i;
    EXPECT_TRUE(same_bits(a.atoms().velocity[i], b.atoms().velocity[i]))
        << "row " << i;
    EXPECT_EQ(a.atoms().image[i], b.atoms().image[i]) << "row " << i;
  }
}

/// A v2 file as the iostream writer produced it before the codec moved
/// to std::to_chars: 17 significant digits and the same FNV-1a footer.
std::string legacy_v2_text(const System& system, long step) {
  const Atoms& atoms = system.atoms();
  const Box& box = system.box();
  std::ostringstream out;
  out << "sdcmd-checkpoint 2\n" << "step " << step << '\n';
  out << std::setprecision(17);
  out << "mass " << system.mass() << '\n';
  out << "box " << box.lo().x << ' ' << box.lo().y << ' ' << box.lo().z
      << ' ' << box.hi().x << ' ' << box.hi().y << ' ' << box.hi().z << ' '
      << box.periodic(0) << ' ' << box.periodic(1) << ' ' << box.periodic(2)
      << '\n';
  out << "atoms " << atoms.size() << '\n';
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Vec3& r = atoms.position[i];
    const Vec3& v = atoms.velocity[i];
    out << atoms.id[i] << ' ' << r.x << ' ' << r.y << ' ' << r.z << ' '
        << v.x << ' ' << v.y << ' ' << v.z << ' ' << atoms.image[i][0]
        << ' ' << atoms.image[i][1] << ' ' << atoms.image[i][2] << '\n';
  }
  const std::string payload = out.str();
  std::ostringstream footer;
  footer << "checksum fnv1a64 " << std::hex << std::setw(16)
         << std::setfill('0') << fnv1a64(payload) << '\n';
  return payload + footer.str();
}

/// A v1 (footer-less) two-atom file whose second atom row is `row1`, so
/// the parser itself meets the damage on line 7.
std::string v1_with_second_row(const std::string& row1) {
  return "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
         "box 0 0 0 10 10 10 1 1 1\natoms 2\n"
         "0 1 2 3 0.1 0.2 0.3 0 0 0\n" +
         row1 + "\n";
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(XyzReader, RoundTripsWriteXyz) {
  const System system = sample_system();
  std::stringstream stream;
  write_xyz(stream, system, "Fe", "step=7");
  const auto frame = read_xyz_frame(stream);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->positions.size(), system.size());
  ASSERT_TRUE(frame->box.has_value());
  EXPECT_NEAR(frame->box->length(0), system.box().length(0), 1e-6);
  EXPECT_EQ(frame->species[0], "Fe");
  EXPECT_NE(frame->comment.find("step=7"), std::string::npos);
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_NEAR(norm(frame->positions[i] - system.atoms().position[i]),
                0.0, 1e-7);
  }
}

TEST(XyzReader, ReadsMultipleFrames) {
  const System system = sample_system();
  std::stringstream stream;
  write_xyz(stream, system);
  write_xyz(stream, system);
  int frames = 0;
  while (read_xyz_frame(stream)) ++frames;
  EXPECT_EQ(frames, 2);
}

TEST(XyzReader, EofReturnsNullopt) {
  std::stringstream empty;
  EXPECT_FALSE(read_xyz_frame(empty).has_value());
}

TEST(XyzReader, MalformedCountThrows) {
  std::stringstream stream("not-a-number\ncomment\n");
  EXPECT_THROW(read_xyz_frame(stream), ParseError);
}

TEST(XyzReader, TruncatedFrameThrows) {
  std::stringstream stream("3\ncomment\nFe 0 0 0\n");
  EXPECT_THROW(read_xyz_frame(stream), ParseError);
}

TEST(XyzReader, ParseErrorsNameTheOffendingLine) {
  // The malformed atom row is line 4 of the stream.
  std::stringstream stream("2\ncomment\nFe 0 0 0\nFe oops 0 0\n");
  try {
    read_xyz_frame(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(XyzReader, FileErrorsCarryThePath) {
  const std::string path = "sdcmd_test_bad.xyz";
  std::ofstream(path) << "1\ncomment\nFe broken\n";
  try {
    read_xyz_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(XyzReader, NonOrthorhombicLatticeYieldsNoBox) {
  std::stringstream stream(
      "1\nLattice=\"10 1 0 0 10 0 0 0 10\"\nFe 0 0 0\n");
  const auto frame = read_xyz_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->box.has_value());
}

TEST(LammpsData, RoundTripPreservesEverything) {
  const System original = sample_system();
  std::stringstream stream;
  write_lammps_data(stream, original);
  const System parsed = read_lammps_data(stream);

  EXPECT_EQ(parsed.size(), original.size());
  EXPECT_DOUBLE_EQ(parsed.mass(), original.mass());
  EXPECT_NEAR(parsed.box().length(0), original.box().length(0), 1e-12);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    // Rows are written in storage order with 1-based ids.
    EXPECT_EQ(parsed.atoms().id[i], original.atoms().id[i]);
    EXPECT_NEAR(
        norm(parsed.atoms().position[i] - original.atoms().position[i]),
        0.0, 1e-12);
    EXPECT_NEAR(
        norm(parsed.atoms().velocity[i] - original.atoms().velocity[i]),
        0.0, 1e-12);
  }
}

TEST(LammpsData, RejectsMultiTypeFiles) {
  std::stringstream stream(
      "c\n\n1 atoms\n2 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, RejectsMissingBounds) {
  std::stringstream stream("c\n\n1 atoms\n1 atom types\n\nAtoms\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, RejectsTruncatedAtoms) {
  std::stringstream stream(
      "c\n\n2 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, ParseErrorsNameTheOffendingLine) {
  // The malformed Atoms row is line 11 of the stream.
  std::stringstream stream(
      "c\n\n1 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 oops 0 0\n");
  try {
    read_lammps_data(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos)
        << e.what();
  }
}

TEST(LammpsData, FileErrorsCarryThePath) {
  const std::string path = "sdcmd_test_bad.data";
  std::ofstream(path)
      << "c\n\n1 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n"
         "0 1 zlo zhi\n\nAtoms # atomic\n\n1 1 oops 0 0\n";
  try {
    read_lammps_data_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripIsExact) {
  const System original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, 1234);
  const Checkpoint restored = load_checkpoint(stream);

  EXPECT_EQ(restored.step, 1234);
  EXPECT_EQ(restored.system.size(), original.size());
  EXPECT_DOUBLE_EQ(restored.system.mass(), original.mass());
  EXPECT_EQ(restored.system.box(), original.box());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // Bit-exact round trip (shortest round-trip digits).
    EXPECT_EQ(restored.system.atoms().position[i],
              original.atoms().position[i]);
    EXPECT_EQ(restored.system.atoms().velocity[i],
              original.atoms().velocity[i]);
    EXPECT_EQ(restored.system.atoms().image[i], original.atoms().image[i]);
    EXPECT_EQ(restored.system.atoms().id[i], original.atoms().id[i]);
  }
}

TEST(Checkpoint, FileRoundTrip) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_test.chk";
  const System original = sample_system();
  save_checkpoint_file(path, original, 42);
  const Checkpoint restored = load_checkpoint_file(path);
  EXPECT_EQ(restored.step, 42);
  EXPECT_EQ(restored.system.size(), original.size());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream stream("wrong-magic 1\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsFutureVersion) {
  std::stringstream stream("sdcmd-checkpoint 999\nstep 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsTruncatedAtomTable) {
  const System original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, 0);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_checkpoint(truncated), ParseError);
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint_file("/nonexistent/x.chk"), ParseError);
}

TEST(Checkpoint, V2CarriesChecksumFooter) {
  std::stringstream stream;
  save_checkpoint(stream, sample_system(), 3);
  const std::string text = stream.str();
  EXPECT_NE(text.find("sdcmd-checkpoint 2"), std::string::npos);
  EXPECT_NE(text.find("checksum fnv1a64 "), std::string::npos);
}

TEST(Checkpoint, DetectsSingleCharacterCorruption) {
  std::stringstream stream;
  save_checkpoint(stream, sample_system(), 3);
  std::string text = stream.str();
  // Flip one digit inside the atom table, away from the footer.
  const std::size_t pos = text.find("atoms ") + 20;
  text[pos] = text[pos] == '7' ? '8' : '7';
  std::stringstream corrupted(text);
  EXPECT_THROW(load_checkpoint(corrupted), ChecksumError);
}

TEST(Checkpoint, LegacyV1StillLoads) {
  // v1 files have no checksum footer; they parse with validation only.
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 5\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n");
  const Checkpoint c = load_checkpoint(stream);
  EXPECT_EQ(c.step, 5);
  EXPECT_EQ(c.system.size(), 1u);
  EXPECT_DOUBLE_EQ(c.system.atoms().position[0].y, 2.0);
}

TEST(Checkpoint, HugeAtomCountFailsFastOnTruncatedFile) {
  // The declared count exceeds the rows present: must fail before trying
  // to read (or allocate) a billion atoms.
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1000000000\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n");
  try {
    load_checkpoint(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("rows remain"), std::string::npos);
  }
}

TEST(Checkpoint, RejectsNonPositiveOrNonFiniteMass) {
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass -5\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsInvertedBox) {
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 -10 10 10 1 1 1\natoms 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, TruncatedV2LosesItsFooter) {
  std::stringstream stream;
  save_checkpoint(stream, sample_system(), 9);
  std::string text = stream.str();
  text.resize(text.size() - 10);  // clip inside the footer line
  std::stringstream truncated(text);
  EXPECT_THROW(load_checkpoint(truncated), ParseError);
}

TEST(Checkpoint, SaveFileLeavesNoTempBehind) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_atomic.chk";
  save_checkpoint_file(path, sample_system(), 1);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file should have been renamed away";
  EXPECT_EQ(load_checkpoint_file(path).step, 1);
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedSaveUnlinksItsTempFile) {
  // A detected short write must throw AND clean up: a retrying caller (the
  // run supervisor) would otherwise accumulate one stale .tmp per attempt.
  const std::string path = testing::TempDir() + "sdcmd_ckpt_shortw.chk";
  save_checkpoint_file(path, sample_system(), 1);  // previous generation

  FaultSpec fault;
  fault.magnitude = 0.5;
  FaultInjector::instance().arm(faults::kCheckpointShortWrite, fault);
  EXPECT_THROW(save_checkpoint_file(path, sample_system(), 2), Error);
  FaultInjector::instance().disarm_all();

  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "failed save left " << path << ".tmp behind";
  // The previous generation is untouched.
  EXPECT_EQ(load_checkpoint_file(path).step, 1);
  std::remove(path.c_str());
}

TEST(Checkpoint, DiskFullFaultCleansUpAndThrows) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_enospc.chk";
  FaultSpec fault;
  fault.shots = 1;
  FaultInjector::instance().arm(faults::kDiskFull, fault);
  try {
    save_checkpoint_file(path, sample_system(), 3);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no space left"), std::string::npos);
  }
  FaultInjector::instance().disarm_all();
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // The fault consumed its shot: the retry goes through.
  save_checkpoint_file(path, sample_system(), 3);
  EXPECT_EQ(load_checkpoint_file(path).step, 3);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationErrorsPointAtRowLineAndByte) {
  // v1 (no footer, so the parser — not the checksum — sees the damage):
  // the second atom row is cut short mid-field.
  std::stringstream truncated(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 2\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n"
      "1 4 5 6\n");
  try {
    load_checkpoint(truncated);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 1 of 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find("byte "), std::string::npos) << what;
  }
}

TEST(Checkpoint, EdgeValuesRoundTripBitExactThroughAFile) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_edges.chk";
  const System original = edge_system();
  save_checkpoint_file(path, original, -7);
  const Checkpoint restored = load_checkpoint_file(path);
  EXPECT_EQ(restored.step, -7);
  expect_bit_identical(original, restored.system);
  std::remove(path.c_str());
}

TEST(Checkpoint, SeventeenDigitV2FilesLoadBitIdentically) {
  // Files already on disk were written with setprecision(17); the
  // std::from_chars reader must restore them to the same bits.
  for (const System& original : {sample_system(), edge_system()}) {
    std::stringstream stream(legacy_v2_text(original, 77));
    const Checkpoint restored = load_checkpoint(stream);
    EXPECT_EQ(restored.step, 77);
    expect_bit_identical(original, restored.system);
  }
}

TEST(Checkpoint, MalformedRowsNameRowLineAndByte) {
  const char* rows[] = {
      "1 1.2.3 5 6 0.4 0.5 0.6 0 0 0",     // a number that runs on
      "1 abc 5 6 0.4 0.5 0.6 0 0 0",       // not a number at all
      "1 4 5 6 0.4 0.5 0.6 0 0 0 7",       // an 11th field
      "1 4 5 6\n0.4 0.5 0.6 0 0 0",        // one row split over two lines
  };
  for (const char* row : rows) {
    std::stringstream stream(v1_with_second_row(row));
    try {
      load_checkpoint(stream);
      ADD_FAILURE() << "expected ParseError for row '" << row << "'";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("malformed atom table at row 1 of 2"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("(line 7, byte "), std::string::npos) << what;
    }
  }
}

TEST(Checkpoint, NanAndInfTokensHitTheNonFiniteCheck) {
  for (const char* row : {"1 nan 5 6 0.4 0.5 0.6 0 0 0",
                          "1 4 5 6 0.4 -inf 0.6 0 0 0"}) {
    std::stringstream stream(v1_with_second_row(row));
    try {
      load_checkpoint(stream);
      ADD_FAILURE() << "expected ParseError for row '" << row << "'";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite position or velocity at row 1"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("(line 7, byte "), std::string::npos) << what;
    }
  }
}

TEST(Checkpoint, SaveReturnsTheDigestOfTheFileBytes) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_digest.chk";
  const std::uint64_t digest = save_checkpoint_file(path, sample_system(), 5);
  EXPECT_EQ(digest, fnv1a64(read_bytes(path)));
  std::remove(path.c_str());
}

TEST(Checkpoint, ManifestChecksumMatchesTheCommittedFile) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "sdcmd_ckpt_manifest";
  std::filesystem::remove_all(dir);
  run::RunDir run_dir(dir.string(), 2);
  for (long step : {10, 20}) {
    run::RunState state;
    state.step = step;
    run_dir.commit(sample_system(), state);
  }
  const std::vector<run::RingEntry> ring = run_dir.read_manifest();
  ASSERT_EQ(ring.size(), 2u);
  for (const run::RingEntry& entry : ring) {
    const std::string bytes = read_bytes(run_dir.file_path(entry.file));
    EXPECT_EQ(entry.checksum, fnv1a64(bytes)) << entry.file;
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, FileErrorsArePrefixedWithThePath) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_badfile.chk";
  {
    std::ofstream out(path, std::ios::binary);
    out << "sdcmd-checkpoint 2\nstep x\n";
  }
  try {
    load_checkpoint_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdcmd
