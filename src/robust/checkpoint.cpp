#include "robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

namespace mako {
namespace {

constexpr char kMagic[8] = {'M', 'A', 'K', 'O', 'C', 'K', 'P', 'T'};
// Version 2 appended the precision-governor ladder stage to META.
constexpr std::uint32_t kFormatVersion = 2;

/// Section tag (fourcc, host-endian u32).
constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// Smallest encodings of list items, for bounding counts by payload size:
/// a DIIS pair is two (rows, cols) headers; a recovery event is iteration,
/// fault, action and the detail length.
constexpr std::size_t kDiisPairMinBytes = 4 * sizeof(std::uint64_t);
constexpr std::size_t kEventMinBytes = 3 * sizeof(std::uint32_t) +
                                       sizeof(std::uint64_t);

[[noreturn]] void corrupt(const char* what) {
  throw InputError(FaultKind::kCheckpointCorrupt, what);
}

void append(std::vector<unsigned char>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

/// The checkpoint's one field list: every ScfState field, named once, in its
/// section and its position in the format-v2 payload.  `Io` is a ByteSink
/// (with `State` = const ScfState) when saving and a ByteSource when loading.
template <class Io, class State>
void visit(Io& io, State& s) {
  io.section(fourcc("META"), [&] {
    io.scalar(s.next_iteration);
    io.scalar(s.force_exact);
    io.flag(s.converged);
    io.scalar(s.ladder_rung);
    io.flag(s.damping);
    io.scalar(s.fp64_latched);
    io.flag(s.direct_diag);
    io.flag(s.full_rebuild);
    io.scalar(s.cooldown_until);
    io.scalar(s.rise_streak);
    io.scalar(s.last_energy);
    io.scalar(s.last_error);
    io.scalar(s.energy);
    io.scalar(s.e_nuclear);
    io.scalar(s.e_one_electron);
    io.scalar(s.e_coulomb);
    io.scalar(s.e_exact_exchange);
    io.scalar(s.e_xc);
    io.scalar(s.governor_ladder_stage);
  });
  io.section(fourcc("DENS"), [&] { io.matrix(s.density); });
  io.section(fourcc("FOCK"), [&] { io.matrix(s.fock); });
  io.section(fourcc("COEF"), [&] { io.matrix(s.coefficients); });
  io.section(fourcc("YOCC"), [&] { io.matrix(s.prev_y_occ); });
  io.section(fourcc("DPRV"), [&] { io.matrix(s.d_prev); });
  io.section(fourcc("JPRV"), [&] { io.matrix(s.j_prev); });
  io.section(fourcc("KPRV"), [&] { io.matrix(s.k_prev); });
  io.section(fourcc("EVAL"), [&] { io.vec(s.orbital_energies); });
  io.section(fourcc("EHST"), [&] { io.vec(s.err_hist); });
  io.section(fourcc("DIIS"), [&] {
    const std::uint64_t k =
        io.count(std::min(s.diis_focks.size(), s.diis_errors.size()), 1024,
                 kDiisPairMinBytes);
    io.resize(s.diis_focks, k);
    io.resize(s.diis_errors, k);
    for (std::uint64_t i = 0; i < k; ++i) {
      io.matrix(s.diis_focks[i]);
      io.matrix(s.diis_errors[i]);
    }
  });
  io.section(fourcc("RLOG"), [&] {
    const std::uint64_t k =
        io.count(s.recovery_log.size(), 1u << 20, kEventMinBytes);
    io.resize(s.recovery_log, k);
    for (auto& e : s.recovery_log) {
      io.scalar(e.iteration);
      io.enum32(e.fault);
      io.enum32(e.action);
      io.text(e.detail);
    }
  });
}

/// Saving side of visit(): appends each field to the payload of the section
/// being written, and seals each section with its tag, length and CRC32.
/// Doubles are written as their exact 8-byte representation, so a round-trip
/// is bitwise.
struct ByteSink {
  std::vector<unsigned char> body;     ///< sealed sections, in order
  std::vector<unsigned char> payload;  ///< the section being written
  std::uint32_t sections = 0;

  template <class F>
  void section(std::uint32_t tag, F&& fields) {
    payload.clear();
    fields();
    const std::uint64_t len = payload.size();
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    append(body, &tag, sizeof tag);
    append(body, &len, sizeof len);
    append(body, &crc, sizeof crc);
    body.insert(body.end(), payload.begin(), payload.end());
    ++sections;
  }
  void raw(const void* p, std::size_t n) { append(payload, p, n); }
  template <class T>
  void scalar(T v) {
    static_assert(std::is_arithmetic_v<T>);
    raw(&v, sizeof v);
  }
  void flag(bool v) { scalar<std::uint8_t>(v ? 1 : 0); }
  template <class E>
  void enum32(E e) {
    scalar(static_cast<std::uint32_t>(e));
  }
  std::uint64_t count(std::uint64_t k, std::uint64_t, std::size_t) {
    scalar(k);
    return k;
  }
  template <class T>
  void resize(const std::vector<T>&, std::uint64_t) {}  // sizes are given
  void matrix(const MatrixD& m) {
    scalar<std::uint64_t>(m.rows());
    scalar<std::uint64_t>(m.cols());
    raw(m.data(), m.size() * sizeof(double));
  }
  void vec(const VectorD& v) {
    scalar<std::uint64_t>(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void text(const std::string& t) {
    scalar<std::uint64_t>(t.size());
    raw(t.data(), t.size());
  }
};

/// Loading side of visit(): a bounds-checked cursor, first over the file
/// header and then over one CRC-verified section payload at a time.  Throws
/// the corrupt-checkpoint InputError on any overrun, and on any size or count
/// field larger than the bytes left, before anything is allocated —
/// truncated sections are corruption, not defaults.
struct ByteSource {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;
  const unsigned char* file = nullptr;
  const char* path = "";
  /// tag -> (offset in file, payload bytes) of every CRC-verified section.
  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> sections;

  template <class F>
  void section(std::uint32_t tag, F&& fields) {
    const auto it = sections.find(tag);
    if (it == sections.end()) {
      char msg[512];
      std::snprintf(msg, sizeof msg,
                    "checkpoint: '%s' is missing a required section "
                    "(truncated or corrupt)",
                    path);
      corrupt(msg);
    }
    p = file + it->second.first;
    n = it->second.second;
    off = 0;
    fields();
  }
  [[nodiscard]] std::size_t left() const noexcept { return n - off; }
  void need(std::size_t k) const {
    if (k > left()) corrupt("checkpoint: section payload truncated");
  }
  void raw(void* out, std::size_t k) {
    need(k);
    if (k == 0) return;  // an empty matrix's data() may be null
    std::memcpy(out, p + off, k);
    off += k;
  }
  template <class T>
  void scalar(T& v) {
    static_assert(std::is_arithmetic_v<T>);
    raw(&v, sizeof v);
  }
  template <class T>
  T take() {
    T v;
    scalar(v);
    return v;
  }
  void flag(bool& v) { v = take<std::uint8_t>() != 0; }
  template <class E>
  void enum32(E& e) {
    e = static_cast<E>(take<std::uint32_t>());
  }
  std::uint64_t count(std::uint64_t, std::uint64_t max,
                      std::size_t min_item_bytes) {
    const auto k = take<std::uint64_t>();
    if (k > max || k > left() / min_item_bytes) {
      corrupt("checkpoint: implausible list length (corrupt count field)");
    }
    return k;
  }
  template <class T>
  void resize(std::vector<T>& v, std::uint64_t k) {
    v.resize(static_cast<std::size_t>(k));
  }
  void matrix(MatrixD& m) {
    const auto r = take<std::uint64_t>();
    const auto c = take<std::uint64_t>();
    if (r > (1u << 20) || c > (1u << 20) ||
        r * c > left() / sizeof(double)) {
      corrupt("checkpoint: implausible matrix dimensions (corrupt size "
              "field)");
    }
    m = MatrixD(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    raw(m.data(), m.size() * sizeof(double));
  }
  void vec(VectorD& v) {
    const auto k = take<std::uint64_t>();
    if (k > (1u << 28) || k > left() / sizeof(double)) {
      corrupt("checkpoint: implausible vector length (corrupt size field)");
    }
    v.resize(static_cast<std::size_t>(k));
    raw(v.data(), v.size() * sizeof(double));
  }
  void text(std::string& t) {
    const auto k = take<std::uint64_t>();
    need(static_cast<std::size_t>(k));
    t.assign(reinterpret_cast<const char*>(p + off),
             static_cast<std::size_t>(k));
    off += static_cast<std::size_t>(k);
  }
};

std::uint32_t crc_table_entry(std::uint32_t i) noexcept {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = crc_table_entry(i);
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const ScfState& state) {
  ByteSink sink;
  visit(sink, state);
  std::vector<unsigned char> bytes;
  bytes.reserve(sizeof kMagic + 16 + sink.body.size());
  append(bytes, kMagic, sizeof kMagic);
  append(bytes, &kFormatVersion, sizeof kFormatVersion);
  append(bytes, &state.fingerprint, sizeof state.fingerprint);
  append(bytes, &sink.sections, sizeof sink.sections);
  bytes.insert(bytes.end(), sink.body.begin(), sink.body.end());

  // --- atomic write: temp + fsync + rename + fsync(dir) ------------------
  // The staging name is unique per WRITE, not just per process: concurrent
  // batch jobs checkpointing into one directory (or even one path) must
  // never interleave bytes in a shared temp file, so a process-wide
  // sequence number joins the pid in the suffix.
  static std::atomic<std::uint64_t> write_seq{0};
  char msg[512];
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(write_seq.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: cannot open '%s' for writing", tmp.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = wrote && std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!synced) {
    std::remove(tmp.c_str());
    std::snprintf(msg, sizeof msg,
                  "checkpoint: short write or fsync failure on '%s'",
                  tmp.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::snprintf(msg, sizeof msg,
                  "checkpoint: rename '%s' -> '%s' failed", tmp.c_str(),
                  path.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::ok();
}

ScfState load_checkpoint(const std::string& path,
                         std::uint64_t expected_fingerprint) {
  char msg[512];
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: cannot open '%s' (does the file exist and is "
                  "it readable?)",
                  path.c_str());
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  }
  std::vector<unsigned char> bytes;
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (sz > 0) {
    bytes.resize(static_cast<std::size_t>(sz));
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      bytes.clear();
    }
  }
  std::fclose(f);

  ByteSource src;
  src.p = src.file = bytes.data();
  src.n = bytes.size();
  src.path = path.c_str();
  char magic[8];
  try {
    src.raw(magic, sizeof magic);
  } catch (const InputError&) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: '%s' is too short to be a checkpoint file",
                  path.c_str());
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  }
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: '%s' has a bad magic header (not a mako "
                  "checkpoint, or the header bytes were corrupted)",
                  path.c_str());
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  }
  const auto version = src.take<std::uint32_t>();
  if (version != kFormatVersion) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: '%s' has format version %u; this build reads "
                  "version %u only",
                  path.c_str(), version, kFormatVersion);
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  }
  ScfState state;
  state.fingerprint = src.take<std::uint64_t>();
  if (expected_fingerprint != 0 &&
      state.fingerprint != expected_fingerprint) {
    std::snprintf(
        msg, sizeof msg,
        "checkpoint: '%s' was written for a different molecule/basis/"
        "options (fingerprint %016llx, this run is %016llx); refusing to "
        "restore — rerun with matching inputs or drop --restore",
        path.c_str(),
        static_cast<unsigned long long>(state.fingerprint),
        static_cast<unsigned long long>(expected_fingerprint));
    throw InputError(FaultKind::kCheckpointMismatch, msg);
  }

  // Verify every section's CRC up front; sections this build does not read
  // (such as the retired "RNGS") are checked and then ignored.
  const auto nsections = src.take<std::uint32_t>();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const auto tag = src.take<std::uint32_t>();
    const auto len = src.take<std::uint64_t>();
    const auto crc = src.take<std::uint32_t>();
    src.need(static_cast<std::size_t>(len));
    if (crc32(src.p + src.off, static_cast<std::size_t>(len)) != crc) {
      std::snprintf(msg, sizeof msg,
                    "checkpoint: '%s' section '%c%c%c%c' failed its CRC32 "
                    "check — the file is corrupt; delete it and restart "
                    "from scratch",
                    path.c_str(), static_cast<char>(tag & 0xFF),
                    static_cast<char>((tag >> 8) & 0xFF),
                    static_cast<char>((tag >> 16) & 0xFF),
                    static_cast<char>((tag >> 24) & 0xFF));
      throw InputError(FaultKind::kCheckpointCorrupt, msg);
    }
    src.sections[tag] = {src.off, static_cast<std::size_t>(len)};
    src.off += static_cast<std::size_t>(len);
  }
  visit(src, state);
  return state;
}

}  // namespace mako
