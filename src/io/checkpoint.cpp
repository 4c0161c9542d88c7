#include "io/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"

namespace sdcmd {

namespace {

constexpr std::string_view kMagic = "sdcmd-checkpoint";
// v1: bare payload. v2: payload + "checksum fnv1a64 <hex>" footer.
constexpr int kVersion = 2;
constexpr std::string_view kFooterTag = "checksum fnv1a64 ";

// Longest std::to_chars output per field: a shortest round-trip double
// ("-2.2250738585072014e-308") is 24 characters, an int 11, a uint32 10.
constexpr std::size_t kDoubleChars = 24;
constexpr std::size_t kRowChars =
    10 + 6 * kDoubleChars + 3 * 11 + 10;  // fields + separators + '\n'
constexpr std::size_t kHeaderChars = 512;  // magic..atoms lines + footer

bool finite3(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

/// Lowercase hex without padding.
std::string to_hex(std::uint64_t value) {
  char buf[16];
  const auto end = std::to_chars(buf, buf + sizeof buf, value, 16).ptr;
  return std::string(buf, end);
}

/// Composes one payload line in a stack buffer with std::to_chars, then
/// appends it to the text and folds it into the running FNV-1a digest
/// while it is still cache-hot: formatting and hashing are one pass.
class LineWriter {
 public:
  LineWriter(std::string& text, std::uint64_t& digest)
      : text_(text), digest_(digest) {}

  /// Appends one space-separated field: a word or a number.
  template <typename T>
  LineWriter& operator<<(const T& field) {
    if (end_ != buf_) *end_++ = ' ';
    if constexpr (std::is_convertible_v<T, std::string_view>) {
      const std::string_view word(field);
      end_ = std::copy(word.begin(), word.end(), end_);
    } else if constexpr (std::is_same_v<T, bool>) {
      *end_++ = field ? '1' : '0';
    } else {
      end_ = std::to_chars(end_, buf_ + sizeof buf_, field).ptr;
    }
    return *this;
  }

  void end_line() {
    *end_++ = '\n';
    const std::string_view line(buf_, static_cast<std::size_t>(end_ - buf_));
    text_.append(line);
    digest_ = fnv1a64(line, digest_);
    end_ = buf_;
  }

 private:
  std::string& text_;
  std::uint64_t& digest_;
  char buf_[2 * kRowChars];
  char* end_ = buf_;
};

/// Composes the v2 text — payload plus checksum footer — into `text` and
/// returns the FNV-1a digest of all of its bytes. The footer carries the
/// payload digest; FNV-1a streams, so continuing it over the footer line
/// gives the whole-file digest without a second pass.
std::uint64_t compose(const System& system, long step, std::string& text) {
  const Atoms& atoms = system.atoms();
  const Box& box = system.box();
  text.clear();
  text.reserve(kHeaderChars + atoms.size() * kRowChars);

  std::uint64_t digest = kFnv1a64Offset;
  LineWriter line(text, digest);
  (line << kMagic << kVersion).end_line();
  (line << "step" << step).end_line();
  // std::to_chars emits the shortest digits that round-trip bit-exactly.
  (line << "mass" << system.mass()).end_line();
  (line << "box" << box.lo().x << box.lo().y << box.lo().z << box.hi().x
        << box.hi().y << box.hi().z << box.periodic(0) << box.periodic(1)
        << box.periodic(2))
      .end_line();
  (line << "atoms" << atoms.size()).end_line();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Vec3& r = atoms.position[i];
    const Vec3& v = atoms.velocity[i];
    (line << atoms.id[i] << r.x << r.y << r.z << v.x << v.y << v.z
          << atoms.image[i][0] << atoms.image[i][1] << atoms.image[i][2])
        .end_line();
  }

  const std::string hex = to_hex(digest);
  std::string footer(kFooterTag);
  footer.append(16 - hex.size(), '0').append(hex).push_back('\n');
  text.append(footer);
  return fnv1a64(footer, digest);
}

/// " (line L, byte B of N)" for offset `byte` inside `payload`, so a parse
/// error points at the exact spot — the same one-glance triage the
/// setfl/funcfl ParseErrors give via line numbers. Only error paths pay
/// for the line count.
std::string at_offset(std::string_view payload, std::size_t byte) {
  byte = std::min(byte, payload.size());
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(payload.begin(),
                         payload.begin() + static_cast<std::ptrdiff_t>(byte),
                         '\n'));
  return " (line " + std::to_string(line) + ", byte " + std::to_string(byte) +
         " of " + std::to_string(payload.size()) + ")";
}

/// Forward-only std::from_chars reader over the payload. A number must
/// end at whitespace or at the end of the text, so "1.2.3" or "12abc" is
/// rejected instead of being split into two fields.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  std::size_t pos() const { return pos_; }

  /// Skips all whitespace, newlines included (header fields, row starts).
  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  /// Skips field separators within one line.
  void skip_blanks() {
    while (pos_ < text_.size() && is_blank(text_[pos_])) ++pos_;
  }

  /// True when nothing but whitespace is left.
  bool exhausted() {
    skip_space();
    return pos_ == text_.size();
  }

  /// Next whitespace-delimited token equals `word`.
  bool word(std::string_view word) {
    skip_space();
    if (text_.substr(pos_, word.size()) != word ||
        !at_separator(pos_ + word.size())) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  /// A number after any whitespace (header fields).
  template <typename T>
  bool field(T& value) {
    skip_space();
    return number(value);
  }

  /// A number after blanks only: it must sit on the current line.
  template <typename T>
  bool row_field(T& value) {
    skip_blanks();
    return number(value);
  }

  /// Consumes the rest of the line: blanks, then '\n' or the end of text.
  bool end_of_line() {
    skip_blanks();
    if (pos_ == text_.size()) return true;
    if (text_[pos_] != '\n') return false;
    ++pos_;
    return true;
  }

 private:
  static bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  static bool is_space(char c) {
    return is_blank(c) || c == '\n' || c == '\v' || c == '\f';
  }
  bool at_separator(std::size_t at) const {
    return at == text_.size() || is_space(text_[at]);
  }

  template <typename T>
  bool number(T& value) {
    const char* first = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(first, text_.data() + text_.size(), value);
    const std::size_t stop = static_cast<std::size_t>(end - text_.data());
    if (ec != std::errc{} || !at_separator(stop)) return false;
    pos_ = stop;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Checkpoint parse_payload(std::string_view payload) {
  Cursor in(payload);
  int declared_version = 0;
  in.word(kMagic);  // magic and version already validated by the caller
  in.field(declared_version);

  long step = 0;
  double mass = 0.0;
  if (!in.word("step") || !in.field(step)) {
    throw ParseError("checkpoint: missing step" +
                     at_offset(payload, in.pos()));
  }
  if (!in.word("mass") || !in.field(mass)) {
    throw ParseError("checkpoint: missing mass" +
                     at_offset(payload, in.pos()));
  }
  if (!std::isfinite(mass) || mass <= 0.0) {
    throw ParseError("checkpoint: mass must be finite and positive" +
                     at_offset(payload, in.pos()));
  }

  Vec3 lo, hi;
  int periodic[3] = {0, 0, 0};
  const bool box_ok = in.word("box") && in.field(lo.x) && in.field(lo.y) &&
                      in.field(lo.z) && in.field(hi.x) && in.field(hi.y) &&
                      in.field(hi.z) && in.field(periodic[0]) &&
                      in.field(periodic[1]) && in.field(periodic[2]);
  if (!box_ok || std::any_of(periodic, periodic + 3,
                             [](int p) { return p != 0 && p != 1; })) {
    throw ParseError("checkpoint: missing box" + at_offset(payload, in.pos()));
  }
  if (!finite3(lo) || !finite3(hi)) {
    throw ParseError("checkpoint: box extents must be finite" +
                     at_offset(payload, in.pos()));
  }
  for (int dim = 0; dim < 3; ++dim) {
    if (!(hi[dim] > lo[dim])) {
      throw ParseError("checkpoint: box hi must exceed lo on every axis" +
                       at_offset(payload, in.pos()));
    }
  }

  std::size_t count = 0;
  if (!in.word("atoms") || !in.field(count)) {
    throw ParseError("checkpoint: missing atom count" +
                     at_offset(payload, in.pos()));
  }
  // Fail fast on truncated files: each atom occupies one payload line, so
  // the declared count cannot exceed the lines that remain. This rejects
  // garbage counts before they turn into a huge Atoms allocation.
  const std::size_t remaining_lines = static_cast<std::size_t>(std::count(
      payload.begin() + static_cast<std::ptrdiff_t>(in.pos()), payload.end(),
      '\n'));
  if (remaining_lines < count) {
    throw ParseError("checkpoint: declares " + std::to_string(count) +
                     " atoms but only " + std::to_string(remaining_lines) +
                     " rows remain (truncated file?)" +
                     at_offset(payload, in.pos()));
  }

  Atoms atoms(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t id;
    Vec3 r, v;
    int ix, iy, iz;
    in.skip_space();
    const std::size_t row_start = in.pos();
    if (!(in.row_field(id) && in.row_field(r.x) && in.row_field(r.y) &&
          in.row_field(r.z) && in.row_field(v.x) && in.row_field(v.y) &&
          in.row_field(v.z) && in.row_field(ix) && in.row_field(iy) &&
          in.row_field(iz))) {
      const std::size_t stop = in.pos();
      if (in.exhausted()) {
        throw ParseError("checkpoint: truncated atom table at row " +
                         std::to_string(i) + " of " + std::to_string(count) +
                         at_offset(payload, row_start));
      }
      throw ParseError("checkpoint: malformed atom table at row " +
                       std::to_string(i) + " of " + std::to_string(count) +
                       ": expected 10 numbers on the row" +
                       at_offset(payload, stop));
    }
    if (!finite3(r) || !finite3(v)) {
      throw ParseError("checkpoint: non-finite position or velocity at row " +
                       std::to_string(i) + at_offset(payload, in.pos()));
    }
    if (!in.end_of_line()) {
      throw ParseError("checkpoint: malformed atom table at row " +
                       std::to_string(i) + " of " + std::to_string(count) +
                       ": more than 10 fields on the row" +
                       at_offset(payload, in.pos()));
    }
    atoms.id[i] = id;
    atoms.position[i] = r;
    atoms.velocity[i] = v;
    atoms.image[i] = {ix, iy, iz};
  }

  Box box(lo, hi, {periodic[0] == 1, periodic[1] == 1, periodic[2] == 1});
  return Checkpoint{System(box, std::move(atoms), mass), step};
}

Checkpoint parse_text(std::string_view text) {
  Cursor header(text);
  int version = 0;
  if (!header.word(kMagic) || !header.field(version)) {
    throw ParseError("checkpoint: bad magic");
  }
  if (version != 1 && version != kVersion) {
    throw ParseError("checkpoint: unsupported version " +
                     std::to_string(version));
  }

  if (version == 1) {
    // Legacy files carry no checksum; parse them as-is.
    return parse_payload(text);
  }

  const std::size_t footer = text.rfind(kFooterTag);
  if (footer == std::string_view::npos ||
      (footer != 0 && text[footer - 1] != '\n')) {
    throw ParseError("checkpoint: missing checksum footer (file ends at byte " +
                     std::to_string(text.size()) + "; truncated?)");
  }
  const std::string_view payload = text.substr(0, footer);
  const std::string_view hex = text.substr(footer + kFooterTag.size());
  std::uint64_t declared = 0;
  if (std::from_chars(hex.data(), hex.data() + hex.size(), declared, 16).ec !=
      std::errc{}) {
    throw ParseError("checkpoint: malformed checksum footer at byte " +
                     std::to_string(footer));
  }
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != declared) {
    throw ChecksumError("checkpoint: checksum mismatch (stored " +
                        to_hex(declared) + ", computed " + to_hex(actual) +
                        " over " + std::to_string(payload.size()) +
                        " payload bytes); file is corrupt");
  }
  return parse_payload(payload);
}

/// The rest of `in`: one sized read when the stream can seek (files,
/// string streams), fixed-size chunks otherwise (pipes).
std::string read_all(std::istream& in) {
  std::string text;
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    text.resize(static_cast<std::size_t>(end - start));
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return text;
  }
  in.clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

}  // namespace

void save_checkpoint(std::ostream& out, const System& system, long step) {
  std::string text;
  compose(system, step, text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::uint64_t save_checkpoint_file(const std::string& path,
                                   const System& system, long step) {
  std::string text;
  const std::uint64_t digest = compose(system, step, text);

  // Fault injection: the write stops after a prefix of the payload — the
  // short write an ENOSPC or a dying disk produces. The writer detects it
  // below, cleans up and throws like any real failure.
  bool simulate_short_write = false;
  if (const auto fault = FaultInjector::instance().should_fire(
          faults::kCheckpointShortWrite)) {
    const double kept =
        fault->magnitude > 0.0 && fault->magnitude < 1.0 ? fault->magnitude
                                                         : 0.5;
    text.resize(static_cast<std::size_t>(
        static_cast<double>(text.size()) * kept));
    simulate_short_write = true;
  }

  // Temp-then-rename: a failed or interrupted save never clobbers the
  // previous good checkpoint at `path`, and every error path below removes
  // the temp file so retries (and keep-last-K ring pruning) never trip
  // over a stale `.tmp`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::remove(tmp.c_str());  // in case open() itself left a husk
      throw Error("checkpoint: cannot open '" + tmp + "' for writing");
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("checkpoint: short write to '" + tmp + "'");
    }
  }
  if (simulate_short_write) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to '" + tmp +
                "' (injected checkpoint.short_write)");
  }
  if (FaultInjector::instance().should_fire(faults::kDiskFull)) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: write failed on '" + tmp +
                "': no space left on device (injected run.disk_full)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
  return digest;
}

Checkpoint load_checkpoint(std::istream& in) {
  return parse_text(read_all(in));
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError("checkpoint: cannot open '" + path + "'");
  }
  // Re-throw with the path up front so a resume scan over a ring of
  // candidates names the offending file, not just the offending byte.
  try {
    return load_checkpoint(in);
  } catch (const ChecksumError& e) {
    throw ChecksumError(path + ": " + e.what());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

}  // namespace sdcmd
