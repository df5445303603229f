#ifndef AUTOGLOBE_PERSIST_SNAPSHOT_H_
#define AUTOGLOBE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace autoglobe::persist {

/// The snapshot container format (.agsnap):
///
///   magic "AGSNAP01" (8 bytes)
///   format version  u32
///   state fingerprint u64   (SimulationRunner::StateFingerprint)
///   section count   u32
///   per section:    name (u32-prefixed), payload size u64, FNV-1a u64
///   payloads, concatenated in table order
///   trailer: FNV-1a u64 over every preceding byte
///
/// Every payload carries its own checksum, so a bit flip names the
/// section it corrupted; the trailer checksum catches a truncated
/// final payload (its section checksum would never be reached).
/// Writes go through AtomicWriteFile — a crash mid-checkpoint leaves
/// the previous generation intact, never a torn file.

inline constexpr char kSnapshotMagic[8] = {'A', 'G', 'S', 'N',
                                           'A', 'P', '0', '1'};
inline constexpr uint32_t kSnapshotVersion = 3;

/// A decoded snapshot: the fingerprint it was taken under plus the
/// named section payloads, in file order.
struct SnapshotData {
  uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, std::string>> sections;
};

/// Encodes the container to bytes (no I/O). Takes the sections by
/// value and releases each payload once it is copied into the image,
/// so a moved-in checkpoint never holds all of its state twice.
std::string EncodeSnapshot(
    uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections);

/// Decodes and fully validates a container image: magic, version,
/// section table bounds, every per-section checksum, and the trailer.
/// Errors are descriptive (which check failed, which section).
Result<SnapshotData> DecodeSnapshot(std::string_view bytes);

/// Encode + AtomicWriteFile.
Status WriteSnapshotFile(
    const std::string& path, uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections);

/// Read + DecodeSnapshot. When `expected_fingerprint` is nonzero, a
/// snapshot taken under a different fingerprint (other landscape,
/// seed, rng plane, strategy, or fault-plan presence) is rejected
/// with FailedPrecondition.
Result<SnapshotData> ReadSnapshotFile(const std::string& path,
                                      uint64_t expected_fingerprint = 0);

}  // namespace autoglobe::persist

#endif  // AUTOGLOBE_PERSIST_SNAPSHOT_H_
