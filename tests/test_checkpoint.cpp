// Tests for crash-consistent SCF checkpoints (robust/checkpoint.hpp) and the
// restore path of the SCF driver: format round-trip, corruption detection,
// fingerprint guarding, and — the property the subsystem exists for —
// bit-identical continuation of an interrupted run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

/// Unique-per-process scratch path; the file is removed in TearDown.
std::string scratch_path(const std::string& name) {
  return "./ckpt_test_" + name + "." + std::to_string(::getpid());
}

MatrixD filled(std::size_t rows, std::size_t cols, double base) {
  MatrixD m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = base + 0.25 * static_cast<double>(i);
  }
  return m;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }

  std::string track(const std::string& name) {
    cleanup_.push_back(scratch_path(name));
    return cleanup_.back();
  }

  static void expect_bitwise_equal(const MatrixD& a, const MatrixD& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  }

  std::vector<std::string> cleanup_;
};

// --- raw file images, for tests that forge checkpoints -------------------

/// A checkpoint file's bytes plus where each section sits in them.
struct CkptImage {
  struct Section {
    std::uint32_t tag;
    std::size_t header;   ///< offset of [tag][len][crc]
    std::size_t payload;  ///< offset of the payload
    std::size_t len;
  };
  std::string bytes;
  std::vector<Section> sections;

  static constexpr std::size_t kCountOffset = 8 + 4 + 8;  // magic, ver, fp
  static constexpr std::size_t kSectionHeader = 4 + 8 + 4;

  static CkptImage read(const std::string& path) {
    CkptImage im;
    std::ifstream in(path, std::ios::binary);
    im.bytes.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    std::uint32_t count = 0;
    std::memcpy(&count, im.bytes.data() + kCountOffset, sizeof count);
    std::size_t at = kCountOffset + sizeof count;
    for (std::uint32_t i = 0; i < count; ++i) {
      Section sec{};
      sec.header = at;
      std::uint64_t len = 0;
      std::memcpy(&sec.tag, im.bytes.data() + at, 4);
      std::memcpy(&len, im.bytes.data() + at + 4, 8);
      sec.payload = at + kSectionHeader;
      sec.len = static_cast<std::size_t>(len);
      im.sections.push_back(sec);
      at = sec.payload + sec.len;
    }
    return im;
  }

  [[nodiscard]] const Section& find(const char (&tag)[5]) const {
    std::uint32_t t = 0;
    std::memcpy(&t, tag, 4);
    for (const Section& sec : sections) {
      if (sec.tag == t) return sec;
    }
    throw std::runtime_error(std::string("no section ") + tag);
  }

  void put_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(&bytes[at], &v, sizeof v);
  }

  /// Re-stamps a section's CRC so a forged payload passes the CRC check and
  /// reaches the payload parser.
  void restamp(const Section& sec) {
    const std::uint32_t crc = crc32(bytes.data() + sec.payload, sec.len);
    std::memcpy(&bytes[sec.header + 12], &crc, sizeof crc);
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

/// Expects `path` to be refused as a corrupt checkpoint (typed InputError,
/// not std::bad_alloc or a crash).
void expect_corrupt(const std::string& path) {
  try {
    (void)load_checkpoint(path);
    ADD_FAILURE() << "forged checkpoint loaded without error";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt) << e.what();
  }
}

TEST_F(CheckpointTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII string "123456789".
  EXPECT_EQ(0xCBF43926u, crc32("123456789", 9));
  EXPECT_EQ(0u, crc32("", 0));
}

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  ScfState s;
  s.fingerprint = 0x1234'5678'9abc'def0ull;
  s.next_iteration = 17;
  s.last_energy = -76.02345678901234;
  s.last_error = 3.25e-5;
  s.force_exact = 1;
  s.converged = 0;
  s.energy = -76.0;
  s.e_nuclear = 9.1;
  s.e_one_electron = -120.5;
  s.e_coulomb = 46.9;
  s.e_exact_exchange = -8.9;
  s.e_xc = -2.6;
  s.density = filled(7, 7, 0.5);
  s.fock = filled(7, 7, -1.5);
  s.coefficients = filled(7, 7, 0.125);
  s.orbital_energies = VectorD(7, -0.375);
  s.ladder_rung = 3;
  s.damping = 1;
  s.fp64_latched = 1;
  s.full_rebuild = 1;
  s.cooldown_until = 21;
  s.governor_ladder_stage = 1;
  s.rise_streak = 2;
  s.err_hist = VectorD(5, 1e-3);
  s.prev_y_occ = filled(7, 5, 0.0625);
  s.d_prev = filled(7, 7, 2.0);
  s.j_prev = filled(7, 7, 3.0);
  s.k_prev = filled(7, 7, 4.0);
  s.diis_focks = {filled(7, 7, 5.0), filled(7, 7, 6.0)};
  s.diis_errors = {filled(7, 7, 7.0), filled(7, 7, 8.0)};
  s.recovery_log.push_back({4, FaultKind::kNonFinite,
                            RecoveryAction::kPrecisionEscalation,
                            "test event"});

  const std::string path = track("roundtrip");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  const ScfState r = load_checkpoint(path, s.fingerprint);

  EXPECT_EQ(r.fingerprint, s.fingerprint);
  EXPECT_EQ(r.next_iteration, s.next_iteration);
  EXPECT_EQ(r.last_energy, s.last_energy);
  EXPECT_EQ(r.last_error, s.last_error);
  EXPECT_EQ(r.force_exact, s.force_exact);
  EXPECT_EQ(r.converged, s.converged);
  EXPECT_EQ(r.energy, s.energy);
  EXPECT_EQ(r.e_nuclear, s.e_nuclear);
  EXPECT_EQ(r.e_one_electron, s.e_one_electron);
  EXPECT_EQ(r.e_coulomb, s.e_coulomb);
  EXPECT_EQ(r.e_exact_exchange, s.e_exact_exchange);
  EXPECT_EQ(r.e_xc, s.e_xc);
  expect_bitwise_equal(r.density, s.density);
  expect_bitwise_equal(r.fock, s.fock);
  expect_bitwise_equal(r.coefficients, s.coefficients);
  ASSERT_EQ(r.orbital_energies.size(), s.orbital_energies.size());
  EXPECT_EQ(0, std::memcmp(r.orbital_energies.data(),
                           s.orbital_energies.data(),
                           s.orbital_energies.size() * sizeof(double)));
  EXPECT_EQ(r.ladder_rung, s.ladder_rung);
  EXPECT_EQ(r.damping, s.damping);
  EXPECT_EQ(r.fp64_latched, s.fp64_latched);
  EXPECT_EQ(r.full_rebuild, s.full_rebuild);
  EXPECT_EQ(r.cooldown_until, s.cooldown_until);
  EXPECT_EQ(r.governor_ladder_stage, s.governor_ladder_stage);
  EXPECT_EQ(r.rise_streak, s.rise_streak);
  ASSERT_EQ(r.err_hist.size(), s.err_hist.size());
  expect_bitwise_equal(r.prev_y_occ, s.prev_y_occ);
  expect_bitwise_equal(r.d_prev, s.d_prev);
  expect_bitwise_equal(r.j_prev, s.j_prev);
  expect_bitwise_equal(r.k_prev, s.k_prev);
  ASSERT_EQ(r.diis_focks.size(), s.diis_focks.size());
  ASSERT_EQ(r.diis_errors.size(), s.diis_errors.size());
  for (std::size_t i = 0; i < s.diis_focks.size(); ++i) {
    expect_bitwise_equal(r.diis_focks[i], s.diis_focks[i]);
    expect_bitwise_equal(r.diis_errors[i], s.diis_errors[i]);
  }
  ASSERT_EQ(r.recovery_log.size(), 1u);
  EXPECT_EQ(r.recovery_log[0].iteration, 4);
  EXPECT_EQ(r.recovery_log[0].fault, FaultKind::kNonFinite);
  EXPECT_EQ(r.recovery_log[0].action, RecoveryAction::kPrecisionEscalation);
  EXPECT_EQ(r.recovery_log[0].detail, "test event");
}

TEST_F(CheckpointTest, AtomicWriteLeavesNoTempFile) {
  const std::string path = track("atomic");
  ASSERT_TRUE(save_checkpoint(path, ScfState{}).is_ok());
  std::ifstream final_file(path, std::ios::binary);
  EXPECT_TRUE(final_file.good());
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream tmp_file(tmp, std::ios::binary);
  EXPECT_FALSE(tmp_file.good());
}

TEST_F(CheckpointTest, SaveToUnwritablePathReturnsFaultNotThrow) {
  const Status st =
      save_checkpoint("/nonexistent-dir/ckpt.bin", ScfState{});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.kind(), FaultKind::kCheckpointError);
}

TEST_F(CheckpointTest, SingleFlippedByteIsDetected) {
  ScfState s;
  s.density = filled(5, 5, 1.0);
  s.energy = -1.25;
  const std::string path = track("corrupt");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());

  // Flip one byte deep inside a payload section.
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 64);
  const std::streamoff at = size - 9;
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();

  try {
    (void)load_checkpoint(path);
    FAIL() << "corrupt checkpoint loaded without error";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

TEST_F(CheckpointTest, TruncatedFileIsDetected) {
  ScfState s;
  s.fock = filled(6, 6, 2.0);
  const std::string path = track("truncated");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  try {
    (void)load_checkpoint(path);
    FAIL() << "truncated checkpoint loaded without error";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

TEST_F(CheckpointTest, MissingFileIsAnInputError) {
  EXPECT_THROW((void)load_checkpoint(scratch_path("never-written")),
               InputError);
}

TEST_F(CheckpointTest, FingerprintMismatchIsDetected) {
  ScfState s;
  s.fingerprint = 0xAAAA'BBBB'CCCC'DDDDull;
  const std::string path = track("fingerprint");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  try {
    (void)load_checkpoint(path, 0x1111'2222'3333'4444ull);
    FAIL() << "foreign checkpoint accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }
  // Zero means "don't check" (the caller has no expectation).
  EXPECT_EQ(load_checkpoint(path, 0).fingerprint, s.fingerprint);
}

// A CRC-consistent file whose size fields claim more data than it holds is
// corrupt, and is refused before anything is allocated: a 2^20 x 2^20
// matrix would be an 8 TiB zero-filled buffer and a 2^28-element vector
// 2 GiB.
TEST_F(CheckpointTest, OversizedFieldIsRefusedBeforeAllocating) {
  ScfState s;
  s.density = filled(2, 2, 1.0);
  s.orbital_energies = VectorD(2, -0.5);
  const std::string path = track("oversized");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  const CkptImage good = CkptImage::read(path);

  CkptImage big_matrix = good;
  const auto& dens = big_matrix.find("DENS");
  big_matrix.put_u64(dens.payload, 1u << 20);
  big_matrix.put_u64(dens.payload + 8, 1u << 20);
  big_matrix.restamp(dens);
  big_matrix.write(path);
  expect_corrupt(path);

  CkptImage big_vector = good;
  const auto& evals = big_vector.find("EVAL");
  big_vector.put_u64(evals.payload, 1u << 28);
  big_vector.restamp(evals);
  big_vector.write(path);
  expect_corrupt(path);

  CkptImage big_history = good;
  const auto& diis = big_history.find("DIIS");
  big_history.put_u64(diis.payload, 1000);
  big_history.restamp(diis);
  big_history.write(path);
  expect_corrupt(path);
}

// Files written before the opaque RNG slot was retired carry an extra
// "RNGS" section.  The reader checks its CRC, ignores it, and loads the
// rest unchanged.
TEST_F(CheckpointTest, RetiredRngSectionIsIgnored) {
  ScfState s;
  s.next_iteration = 9;
  s.density = filled(3, 3, 0.5);
  const std::string path = track("rngs");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  CkptImage im = CkptImage::read(path);

  const std::string rng = "opaque-engine-bytes";
  std::string payload(8, '\0');
  const std::uint64_t len = rng.size();
  std::memcpy(payload.data(), &len, sizeof len);
  payload += rng;
  const std::uint32_t tag = 'R' | 'N' << 8 | 'G' << 16 | 'S' << 24;
  const std::uint64_t plen = payload.size();
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  im.bytes.append(reinterpret_cast<const char*>(&tag), 4);
  im.bytes.append(reinterpret_cast<const char*>(&plen), 8);
  im.bytes.append(reinterpret_cast<const char*>(&crc), 4);
  im.bytes += payload;
  const auto count = static_cast<std::uint32_t>(im.sections.size() + 1);
  std::memcpy(&im.bytes[CkptImage::kCountOffset], &count, sizeof count);
  im.write(path);

  const ScfState r = load_checkpoint(path);
  EXPECT_EQ(r.next_iteration, 9);
  expect_bitwise_equal(r.density, s.density);
}

/// The seeded mutant stream over a real SCF checkpoint: byte flips with the
/// section CRC re-stamped (so the payload parser, not just the CRC, sees
/// them), truncations, and inflated size/count/length fields.  Mutants are
/// drawn from one RNG stream, so mutant m is reproducible only by drawing
/// mutants 0..m in order.
class SeededMutants {
 public:
  static constexpr int kCount = 2000;

  explicit SeededMutants(const CkptImage& source) : source_(source) {
    // Every size, count and length field of the format: the section length
    // in each header, plus the leading field(s) of each payload.
    for (const auto& sec : source.sections) {
      fields_.emplace_back(sec.header + 4, nullptr);  // header: no CRC
      if (sec.len >= 8) fields_.emplace_back(sec.payload, &sec);
      if (sec.len >= 16) fields_.emplace_back(sec.payload + 8, &sec);
    }
  }

  /// Draws mutant m into `im`; false when mutant m is skipped.
  bool next(int m, CkptImage& im, std::string& what) {
    static constexpr std::uint64_t kHuge[] = {
        1u << 20,   (1u << 20) + 1, 1u << 28,   (1u << 28) + 1,
        1ull << 32, 1ull << 40,     1ull << 62, 1ull << 63,
        ~0ull,      ~0ull - 7,      1000,       1025};
    im = source_;
    switch (m % 3) {
      case 0: {  // byte flip inside a payload, CRC re-stamped
        const auto& sec = im.sections[rng_() % im.sections.size()];
        if (sec.len == 0) return false;
        const std::size_t at = sec.payload + rng_() % sec.len;
        im.bytes[at] = static_cast<char>(im.bytes[at] ^ (1 + rng_() % 255));
        im.restamp(sec);
        what = "flip at " + std::to_string(at);
        return true;
      }
      case 1: {  // truncation
        im.bytes.resize(rng_() % im.bytes.size());
        what = "truncate to " + std::to_string(im.bytes.size());
        return true;
      }
      default: {  // inflated size/count/length field
        const auto& [at, sec] = fields_[rng_() % fields_.size()];
        const std::uint64_t v =
            (rng_() % 4 == 0) ? rng_() : kHuge[rng_() % std::size(kHuge)];
        im.put_u64(at, v);
        if (sec != nullptr) im.restamp(*sec);
        what = "field at " + std::to_string(at) + " = " + std::to_string(v);
        return true;
      }
    }
  }

 private:
  const CkptImage& source_;
  std::vector<std::pair<std::size_t, const CkptImage::Section*>> fields_;
  std::mt19937_64 rng_{20251018};
};

/// The checkpoint the mutants are drawn from: water/STO-3G after 4
/// iterations.
CkptImage mutation_source(const Molecule& w, const BasisSet& bs,
                          const std::string& path) {
  ScfOptions opt;
  opt.max_iterations = 4;
  opt.durability.checkpoint_path = path;
  (void)run_scf(w, bs, opt);
  return CkptImage::read(path);
}

// Every seeded mutant either loads or is refused with InputError — never
// another exception, an allocation failure, or an out-of-bounds read
// (ASan).  Every mutant that loads is also restored through run_scf, which
// must accept it or refuse it with InputError before its loop, never abort.
TEST_F(CheckpointTest, LoadSurvivesSeededMutations) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const CkptImage source = mutation_source(w, bs, track("mutation-source"));
  ASSERT_GE(source.sections.size(), 12u);
  SeededMutants mutants(source);

  const std::string path = track("mutant");
  int loaded = 0;
  int refused = 0;
  int restored = 0;
  CkptImage im;
  std::string what;
  for (int m = 0; m < SeededMutants::kCount; ++m) {
    if (!mutants.next(m, im, what)) continue;
    im.write(path);
    try {
      (void)load_checkpoint(path);
      ++loaded;
    } catch (const InputError&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " (" << what
                    << ") threw a non-InputError: " << e.what();
      continue;
    }
    ScfOptions restore;
    restore.max_iterations = 1;
    restore.durability.restore_path = path;
    try {
      (void)run_scf(w, bs, restore);
      ++restored;
    } catch (const InputError&) {
      // Refusing the file is a valid outcome too.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " (" << what
                    << ") made run_scf throw a non-InputError: " << e.what();
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);  // payload flips in plain doubles load fine
  EXPECT_GT(restored, 0);
}

// Three seeded mutants load as well-shaped states holding overflow-scale
// doubles (a density element near 1e100 or 1e85, a DIIS Fock element near
// 6e269).  Iterating from them passes the J/K and energy sentinels, and the
// direct diagonalizer then fails on the extrapolated Fock.  That must end the
// run as a hard fault, not a throw.
TEST_F(CheckpointTest, OverflowScaleRestoreEndsInAFault) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const CkptImage source = mutation_source(w, bs, track("mutation-source"));
  SeededMutants mutants(source);

  const std::string path = track("mutant");
  const int wanted[] = {27, 579, 1596};
  CkptImage im;
  std::string what;
  for (int m = 0; m <= wanted[std::size(wanted) - 1]; ++m) {
    const bool drawn = mutants.next(m, im, what);
    if (std::find(std::begin(wanted), std::end(wanted), m) ==
        std::end(wanted)) {
      continue;
    }
    ASSERT_TRUE(drawn) << "mutant " << m;
    im.write(path);
    ScfState state;
    ASSERT_NO_THROW(state = load_checkpoint(path)) << "mutant " << m;
    ScfOptions restore;
    restore.max_iterations = state.next_iteration + 1;  // one iteration
    restore.durability.restore_path = path;
    ScfResult r;
    ASSERT_NO_THROW(r = run_scf(w, bs, restore))
        << "mutant " << m << " (" << what << ")";
    EXPECT_EQ(r.health, Health::kFault) << "mutant " << m << " (" << what
                                        << "): " << r.status.message();
  }
}

/// The state of a 3-iteration water/STO-3G run (nbf = northo = 7, nocc = 5),
/// checkpointed to `path` and loaded back.
ScfState water_state(const Molecule& w, const BasisSet& bs,
                     const std::string& path) {
  ScfOptions opt;
  opt.max_iterations = 3;
  opt.durability.checkpoint_path = path;
  (void)run_scf(w, bs, opt);
  return load_checkpoint(path);
}

/// One edit to a restored state that keeps its CRCs and fingerprint
/// consistent but leaves a matrix of the wrong shape, or a negative
/// iteration cursor.
struct Forgery {
  const char* name;
  void (*apply)(ScfState&);
};

void PrintTo(const Forgery& f, std::ostream* os) { *os << f.name; }

class MisshapenRestoreTest : public CheckpointTest,
                             public ::testing::WithParamInterface<Forgery> {};

/// run_scf refuses the forged state before its loop.
TEST_P(MisshapenRestoreTest, RefusedBeforeTheLoop) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfState bad = water_state(w, bs, track("shape-source"));
  ASSERT_EQ(bad.density.rows(), 7u);
  ASSERT_FALSE(bad.diis_focks.empty());
  GetParam().apply(bad);
  const std::string path = track("shape-forged");
  ASSERT_TRUE(save_checkpoint(path, bad).is_ok());
  ScfOptions restore;
  restore.durability.restore_path = path;
  try {
    (void)run_scf(w, bs, restore);
    ADD_FAILURE() << "restored a misshapen checkpoint";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Forgeries, MisshapenRestoreTest,
    ::testing::Values(
        Forgery{"Density6x7",
                [](ScfState& s) { s.density = filled(6, 7, 0.5); }},
        Forgery{"Fock7x6", [](ScfState& s) { s.fock = filled(7, 6, 0.5); }},
        Forgery{"Coefficients8Columns",
                [](ScfState& s) { s.coefficients = filled(7, 8, 0.5); }},
        Forgery{"Coefficients4Columns",
                [](ScfState& s) { s.coefficients = filled(7, 4, 0.5); }},
        Forgery{"Coefficients6Columns",
                [](ScfState& s) {
                  s.coefficients = filled(7, 6, 0.5);
                  s.orbital_energies = VectorD(6, -0.5);
                }},
        Forgery{"ShortOrbitalEnergies",
                [](ScfState& s) { s.orbital_energies.pop_back(); }},
        Forgery{"EmptyPreviousDensity",
                [](ScfState& s) { s.d_prev = MatrixD(); }},
        Forgery{"PreviousJ6x6",
                [](ScfState& s) { s.j_prev = filled(6, 6, 0.5); }},
        Forgery{"PreviousK7x8",
                [](ScfState& s) { s.k_prev = filled(7, 8, 0.5); }},
        Forgery{"DiisFock6x7",
                [](ScfState& s) { s.diis_focks.back() = filled(6, 7, 0.5); }},
        Forgery{"DiisError7x6",
                [](ScfState& s) { s.diis_errors.front() = filled(7, 6, 0.5); }},
        Forgery{"OccupiedBlock7x4",
                [](ScfState& s) { s.prev_y_occ = filled(7, 4, 0.5); }},
        Forgery{"NegativeIterationCursor",
                [](ScfState& s) { s.next_iteration = -3; }}),
    [](const ::testing::TestParamInfo<Forgery>& info) {
      return std::string(info.param.name);
    });

/// The forgeries' unmodified source state restores and converges.
TEST_F(CheckpointTest, UnforgedWaterStateRestores) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string path = track("shape-source");
  ASSERT_TRUE(save_checkpoint(path, water_state(w, bs, path)).is_ok());
  ScfOptions restore;
  restore.durability.restore_path = path;
  EXPECT_TRUE(run_scf(w, bs, restore).converged);
}

/// META keeps the byte of the retired diagonalizer-fallback latch.  It is
/// written as 0, and a 1 there (a file saved at the old fallback rung) loads
/// to the same state and resumes to the same energy, bit for bit.
TEST_F(CheckpointTest, RetiredMetaLatchIsWrittenAsZeroAndIgnored) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string path = track("latch-source");
  const ScfState clean = water_state(w, bs, path);

  CkptImage im = CkptImage::read(path);
  const CkptImage::Section& meta = im.find("META");
  // next_iteration (4 bytes), force_exact (1), converged (1), ladder_rung
  // (4), damping (1), fp64_latched (1), then the retired latch.
  const std::size_t at = meta.payload + 12;
  ASSERT_EQ(im.bytes[at], '\0');
  im.bytes[at] = 1;
  im.restamp(meta);
  const std::string forged = track("latch-forged");
  im.write(forged);

  ScfState set;
  ASSERT_NO_THROW(set = load_checkpoint(forged));
  EXPECT_EQ(set.next_iteration, clean.next_iteration);
  EXPECT_EQ(set.ladder_rung, clean.ladder_rung);
  EXPECT_EQ(set.damping, clean.damping);
  EXPECT_EQ(set.fp64_latched, clean.fp64_latched);
  EXPECT_EQ(set.full_rebuild, clean.full_rebuild);
  EXPECT_EQ(set.cooldown_until, clean.cooldown_until);

  ScfOptions from_clean;
  from_clean.durability.restore_path = path;
  ScfOptions from_forged;
  from_forged.durability.restore_path = forged;
  const ScfResult a = run_scf(w, bs, from_clean);
  const ScfResult b = run_scf(w, bs, from_forged);
  EXPECT_TRUE(b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(0, std::memcmp(&a.energy, &b.energy, sizeof a.energy));
}

/// A file saved while the ladder had five rungs may hold rung 5.  It resumes
/// at the top rung (4, full rebuilds), whose latch it already carries, and
/// the checkpoints it writes from then on hold rung 4.
TEST_F(CheckpointTest, RestoreAboveTheTopRungResumesAtTheTop) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_clean = run_scf(w, bs, {}).energy;
  const std::string path = track("rung5-source");
  ScfState old = water_state(w, bs, path);
  old.ladder_rung = 5;
  old.full_rebuild = true;
  ASSERT_TRUE(save_checkpoint(path, old).is_ok());

  const std::string out = track("rung5-resumed");
  ScfOptions restore;
  restore.durability.restore_path = path;
  restore.durability.checkpoint_path = out;
  ScfResult r;
  ASSERT_NO_THROW(r = run_scf(w, bs, restore));
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.full_rebuild_latched);
  EXPECT_NEAR(r.energy, e_clean, 1e-8);

  const ScfState last = load_checkpoint(out);
  EXPECT_EQ(last.ladder_rung, 4);
  EXPECT_TRUE(last.full_rebuild);
}

// --- SCF driver integration ----------------------------------------------

/// The tentpole property: interrupt a run after N iterations, restore, and
/// the continuation reproduces the uninterrupted trajectory *bit for bit* —
/// identical per-iteration energies/errors and an identical final state.
TEST_F(CheckpointTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");

  const ScfResult full = run_scf(w, bs, {});
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 6);

  const std::string ck = track("resume");
  ScfOptions head;
  head.max_iterations = 4;  // interrupt: stop after 4 completed iterations
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);
  EXPECT_EQ(part.health, Health::kNotConverged);
  EXPECT_EQ(part.iterations, 4);

  ScfOptions tail;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.health, Health::kOk);
  EXPECT_EQ(resumed.resumed_from, 4);
  EXPECT_EQ(resumed.resumed_from + resumed.iterations, full.iterations);

  // Bit-identical, not merely close: exact double equality everywhere.
  EXPECT_EQ(resumed.energy, full.energy);
  EXPECT_EQ(resumed.e_one_electron, full.e_one_electron);
  EXPECT_EQ(resumed.e_coulomb, full.e_coulomb);
  EXPECT_EQ(resumed.e_exact_exchange, full.e_exact_exchange);
  expect_bitwise_equal(resumed.density, full.density);
  expect_bitwise_equal(resumed.fock, full.fock);
  ASSERT_EQ(resumed.iteration_log.size(), full.iteration_log.size() - 4);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    EXPECT_EQ(resumed.iteration_log[i].energy,
              full.iteration_log[i + 4].energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].error, full.iteration_log[i + 4].error)
        << "DIIS error diverged at resumed iteration " << i;
  }
}

/// Same property with the incremental-Fock accumulators in play — the
/// d_prev/j_prev/k_prev sections must carry the delta-build state across.
TEST_F(CheckpointTest, ResumeIsBitIdenticalWithIncrementalFock) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions base;
  base.incremental_fock = true;

  const ScfResult full = run_scf(w, bs, base);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 5);

  const std::string ck = track("resume-incr");
  ScfOptions head = base;
  head.max_iterations = 3;
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, 3);
  EXPECT_EQ(resumed.energy, full.energy);
  expect_bitwise_equal(resumed.density, full.density);
}

/// Mid-ladder interruption: the run is stopped after the precision ladder's
/// TF32 step latched, and the resumed run must continue with non-default
/// governor state — same TF32 kernels, same trajectory, bit for bit.
TEST_F(CheckpointTest, ResumeIsBitIdenticalMidPrecisionLadder) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions base;
  base.enable_quantization = true;
  base.precision.use_precision_ladder = true;
  // Take the TF32 step early so the interruption lands after the latch.
  base.precision.ladder_switch_error = 1e-1;

  const ScfResult full = run_scf(w, bs, base);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 5);

  const std::string ck = track("resume-ladder");
  ScfOptions head = base;
  head.max_iterations = 4;
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);

  // The checkpoint must carry the non-default governor state.
  const ScfState saved = load_checkpoint(ck);
  EXPECT_EQ(saved.governor_ladder_stage, 1)
      << "interruption did not land after the TF32 latch; trajectory changed";

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, 4);
  EXPECT_EQ(resumed.energy, full.energy);
  expect_bitwise_equal(resumed.density, full.density);
  ASSERT_EQ(resumed.iteration_log.size(), full.iteration_log.size() - 4);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    EXPECT_EQ(resumed.iteration_log[i].energy,
              full.iteration_log[i + 4].energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].quartets_quantized,
              full.iteration_log[i + 4].quartets_quantized)
        << "quartet routing diverged at resumed iteration " << i;
  }
}

/// Restoring under a different --precision mode is refused: the mode shapes
/// the whole trajectory, so it is part of the checkpoint fingerprint.
TEST_F(CheckpointTest, ScfRejectsCheckpointUnderDifferentPrecisionMode) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("precision-mode");
  ScfOptions head;
  head.enable_quantization = true;
  head.max_iterations = 2;
  head.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, head);

  ScfOptions tail = head;
  tail.max_iterations = 60;
  tail.durability.checkpoint_path.clear();
  tail.durability.restore_path = ck;
  tail.precision.mode = PrecisionMode::kFP64;
  try {
    (void)run_scf(w, bs, tail);
    FAIL() << "restored a checkpoint under a different precision mode";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // A ladder flip is also trajectory-shaping and must be refused too.
  ScfOptions ladder = head;
  ladder.durability.checkpoint_path.clear();
  ladder.durability.restore_path = ck;
  ladder.precision.use_precision_ladder = true;
  EXPECT_THROW((void)run_scf(w, bs, ladder), InputError);
}

/// The XC grid shapes the trajectory, so it is in the fingerprint: resuming
/// a coarse-grid B3LYP run on the fine grid is refused.
TEST_F(CheckpointTest, ScfRejectsCheckpointUnderDifferentGrid) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("grid");
  ScfOptions head;
  head.xc = XcFunctional(XcKind::kB3LYP);
  head.grid = GridSpec::coarse();
  head.max_iterations = 2;
  head.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, head);

  ScfOptions tail = head;
  tail.max_iterations = 3;
  tail.durability.checkpoint_path.clear();
  tail.durability.restore_path = ck;
  ScfOptions fine = tail;
  fine.grid = GridSpec::fine();
  try {
    (void)run_scf(w, bs, fine);
    FAIL() << "restored a checkpoint under a different XC grid";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // The same grid restores fine: the refusal above is the mismatch, not
  // the file.
  EXPECT_NO_THROW((void)run_scf(w, bs, tail));
}

/// Mid-recovery-ladder interruption.  A perturbed density (one fire per
/// iteration, `fires` of them) walks the ladder into rung 2 (damping + level
/// shift).  A second run is stopped `after_damping` iterations after that
/// rung latched, and no earlier than the last fire, so the resumed run sees
/// the same fault-free inputs as the uninterrupted one from there on.  The
/// resume must reproduce the uninterrupted trajectory — energies, errors,
/// every later escalation and the whole recovery log — bit for bit.
/// `saved` receives the checkpoint the resume started from.
void resume_mid_recovery_ladder(const std::string& ck, int fires,
                                int after_damping, int* stop, ScfResult* full,
                                ScfState* saved) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 0.3;
  spec.max_fires = fires;
  auto arm = [&] {
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().arm("scf.density_perturb", spec);
  };
  ScfOptions base;
  base.max_iterations = 100;

  arm();
  *full = run_scf(w, bs, base);
  FaultInjector::instance().disarm_all();
  ASSERT_TRUE(full->converged);
  int damping_at = -1;
  for (const RecoveryEvent& e : full->recovery_log) {
    if (e.action == RecoveryAction::kDamping) damping_at = e.iteration;
  }
  ASSERT_GE(damping_at, 0) << "the perturbation no longer reaches rung 2";
  *stop = std::max(damping_at + after_damping, fires);
  ASSERT_LT(*stop, full->iterations);

  ScfOptions head = base;
  head.max_iterations = *stop;
  head.durability.checkpoint_path = ck;
  arm();
  const ScfResult part = run_scf(w, bs, head);
  FaultInjector::instance().disarm_all();
  ASSERT_FALSE(part.converged);
  ASSERT_EQ(part.iterations, *stop);
  *saved = load_checkpoint(ck);
  EXPECT_GE(saved->ladder_rung, 2);
  EXPECT_TRUE(saved->damping);
  EXPECT_EQ(saved->prev_y_occ.rows(), bs.nbf());
  EXPECT_EQ(saved->err_hist.size(), static_cast<std::size_t>(*stop));

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, *stop);
  EXPECT_EQ(resumed.energy, full->energy);
  EXPECT_EQ(0, std::memcmp(resumed.density.data(), full->density.data(),
                           full->density.size() * sizeof(double)));
  const auto skip = static_cast<std::size_t>(*stop);
  ASSERT_EQ(resumed.iteration_log.size(), full->iteration_log.size() - skip);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    const ScfIterationRecord& want = full->iteration_log[i + skip];
    EXPECT_EQ(resumed.iteration_log[i].energy, want.energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].error, want.error)
        << "DIIS error diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].recovery_mask, want.recovery_mask)
        << "ladder diverged at resumed iteration " << i;
  }
  ASSERT_EQ(resumed.recovery_log.size(), full->recovery_log.size());
  for (std::size_t i = 0; i < full->recovery_log.size(); ++i) {
    const RecoveryEvent& want = full->recovery_log[i];
    EXPECT_EQ(resumed.recovery_log[i].iteration, want.iteration);
    EXPECT_EQ(resumed.recovery_log[i].fault, want.fault);
    EXPECT_EQ(resumed.recovery_log[i].action, want.action);
    EXPECT_EQ(resumed.recovery_log[i].detail, want.detail);
  }
  EXPECT_EQ(resumed.fp64_latched, full->fp64_latched);
  EXPECT_EQ(resumed.full_rebuild_latched, full->full_rebuild_latched);
}

TEST_F(CheckpointTest, ResumeIsBitIdenticalMidRecoveryLadder) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  const std::string ck = track("resume-recovery");
  int stop = 0;
  ScfResult full;
  ScfState saved;

  // Interrupted mid energy-rise streak and mid cooldown: the next
  // divergence verdict counts rises from both sides of the interruption.
  resume_mid_recovery_ladder(ck, 12, 3, &stop, &full, &saved);
  if (HasFatalFailure()) return;
  EXPECT_GT(saved.rise_streak, 0) << "interruption no longer mid-streak";
  EXPECT_GT(saved.cooldown_until, stop)
      << "interruption no longer mid-cooldown";

  // Interrupted within one stagnation window (6 iterations) of an
  // error-history escalation: that verdict compares against errors recorded
  // before the interruption.
  const int window = 6;
  resume_mid_recovery_ladder(ck, 15, 1, &stop, &full, &saved);
  if (HasFatalFailure()) return;
  EXPECT_TRUE(std::any_of(
      full.recovery_log.begin(), full.recovery_log.end(),
      [&](const RecoveryEvent& e) {
        return e.iteration >= stop && e.iteration < stop + window &&
               (e.fault == FaultKind::kOscillation ||
                e.fault == FaultKind::kStagnation);
      }))
      << "no error-history escalation right after the interruption";
}

TEST_F(CheckpointTest, CheckpointIntervalSkipsIntermediateWrites) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("interval");
  ScfOptions opt;
  opt.max_iterations = 5;
  opt.durability.checkpoint_path = ck;
  opt.durability.checkpoint_interval = 3;
  const ScfResult r = run_scf(w, bs, opt);
  ASSERT_FALSE(r.converged);
  // Iterations 3 was the only periodic write; the final-state write then
  // persists iteration 5 on exit, so the file must resume at iteration 5.
  const ScfState s = load_checkpoint(ck);
  EXPECT_EQ(s.next_iteration, 5);
}

TEST_F(CheckpointTest, RestoringAConvergedCheckpointReturnsImmediately) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("converged");
  ScfOptions opt;
  opt.durability.checkpoint_path = ck;
  const ScfResult full = run_scf(w, bs, opt);
  ASSERT_TRUE(full.converged);

  ScfOptions again;
  again.durability.restore_path = ck;
  const ScfResult r = run_scf(w, bs, again);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.health, Health::kOk);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.resumed_from, full.iterations);
  EXPECT_EQ(r.energy, full.energy);
}

TEST_F(CheckpointTest, ScfRejectsCheckpointOfDifferentProblem) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("foreign");
  ScfOptions opt;
  opt.max_iterations = 2;
  opt.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, opt);

  // Same checkpoint, different molecule: the fingerprint must refuse it.
  const Molecule methane = make_alkane(1);
  const BasisSet mbs(methane, "sto-3g");
  ScfOptions restore;
  restore.durability.restore_path = ck;
  try {
    (void)run_scf(methane, mbs, restore);
    FAIL() << "restored a checkpoint of a different molecule";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // Different trajectory-shaping option on the same molecule: also refused.
  ScfOptions incremental;
  incremental.incremental_fock = true;
  incremental.durability.restore_path = ck;
  EXPECT_THROW((void)run_scf(w, bs, incremental), InputError);
}

TEST_F(CheckpointTest, ScfRejectsCorruptedCheckpoint) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("scf-corrupt");
  ScfOptions opt;
  opt.max_iterations = 2;
  opt.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, opt);

  std::fstream f(ck, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff at = static_cast<std::streamoff>(f.tellg()) / 2;
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();

  ScfOptions restore;
  restore.durability.restore_path = ck;
  try {
    (void)run_scf(w, bs, restore);
    FAIL() << "restored a corrupted checkpoint";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

// Regression for the batch-exposed staging collision: writers used to stage
// into a shared `<path>.tmp.<pid>` name, so two same-process threads saving
// concurrently could rename each other's half-written file into place.
// Staging names are now unique per writer; every save must succeed and the
// surviving file must always be one complete, CRC-valid checkpoint.
TEST_F(CheckpointTest, ConcurrentWritersToOnePathNeverCorruptIt) {
  const std::string path = track("collision");
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;

  std::vector<ScfState> states(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    states[w].fingerprint = 0xc0ffee;
    states[w].next_iteration = w + 1;
    states[w].last_energy = -76.0 - w;
    states[w].density = filled(6, 6, 1.0 + w);
    states[w].fock = filled(6, 6, -1.0 - w);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        if (!save_checkpoint(path, states[w]).is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Whichever writer won the last rename, the file is a complete state of
  // one of them — load_checkpoint throws on any torn/corrupt image.
  const ScfState r = load_checkpoint(path, 0xc0ffee);
  ASSERT_GE(r.next_iteration, 1);
  ASSERT_LE(r.next_iteration, kWriters);
  const ScfState& expect = states[r.next_iteration - 1];
  EXPECT_EQ(r.last_energy, expect.last_energy);
  expect_bitwise_equal(r.density, expect.density);
  expect_bitwise_equal(r.fock, expect.fock);
}


}  // namespace
}  // namespace mako
