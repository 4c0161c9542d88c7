// Checkpoint / restart.
//
// Saves everything needed to continue a run bit-for-bit at the physics
// level: box, per-atom state (position, velocity, id, image counters),
// species mass, and the step counter. Text format with a versioned
// header, so checkpoints remain debuggable and portable; every double is
// written with the shortest round-trip digits via `std::to_chars`,
// bit-exact, and read back with `std::from_chars`.
//
// Format v2 appends a `checksum fnv1a64 <hex>` footer covering the exact
// payload bytes; the loader verifies it (ChecksumError on mismatch) before
// parsing and rejects truncated, malformed or non-finite state with
// ParseError — errors carry the offending row and line/byte offset for
// one-glance triage. Each atom row must hold exactly 10 numbers on one
// line. `save_checkpoint_file` is crash-safe: it writes `<path>.tmp` and
// renames it into place, so an interrupted save never clobbers the
// previous good checkpoint, and every failed save unlinks its `.tmp`
// before throwing. Legacy v1 files (no footer) still load.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "md/system.hpp"

namespace sdcmd {

struct Checkpoint {
  System system;
  long step = 0;
};

void save_checkpoint(std::ostream& out, const System& system, long step);
/// Returns the FNV-1a 64 digest of the whole file's bytes (what a run
/// directory's MANIFEST records), computed while composing the text.
std::uint64_t save_checkpoint_file(const std::string& path,
                                   const System& system, long step);

/// Throws ParseError on malformed, truncated or version-mismatched input
/// and ChecksumError when a v2 footer does not match the payload.
Checkpoint load_checkpoint(std::istream& in);
Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace sdcmd
