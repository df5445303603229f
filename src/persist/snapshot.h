#ifndef AUTOGLOBE_PERSIST_SNAPSHOT_H_
#define AUTOGLOBE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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
///
/// Checkpoints stream through the file one section at a time. The
/// header and table have a fixed size once the section names are
/// known, so the writer puts each payload at its offset past them as
/// it is produced, then writes the header and table, then the trailer
/// (FNV-1a continued over the payloads read back in 64 KB chunks). The
/// reader validates a file in one chunked pass and keeps only its
/// table; a restore reads the payloads again, one at a time. Writes go
/// through AtomicFile — a crash mid-checkpoint leaves the previous
/// generation intact, never a torn file.

inline constexpr char kSnapshotMagic[8] = {'A', 'G', 'S', 'N',
                                           'A', 'P', '0', '1'};
inline constexpr uint32_t kSnapshotVersion = 3;

/// One row of a container's section table, with where its payload
/// sits in the image.
struct SectionEntry {
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// A validated snapshot: the fingerprint it was taken under and its
/// section table, in file order. The payloads stay where they were
/// validated — in `image` (DecodeSnapshot) or in the file at `path`
/// (ReadSnapshotFile) — and are read one at a time through Payload().
struct SnapshotData {
  uint64_t fingerprint = 0;
  std::vector<SectionEntry> sections;
  /// Container size in bytes, trailer included.
  uint64_t size = 0;
  std::string image;
  std::string path;

  /// Section `index`'s payload, checked against its table checksum
  /// again (a file may have changed since it was validated); a
  /// mismatch is a ParseError naming the section. From an image the
  /// view points into it; from a file the payload is read into
  /// `*buffer`, which can serve section after section.
  Result<std::string_view> Payload(size_t index, std::string* buffer) const;
};

/// Receives one section; the payload need only live during the call.
using SectionSink =
    std::function<Status(std::string_view name, std::string_view payload)>;
/// Produces a container's sections by calling the sink once per
/// declared name, in order (SimulationRunner::SaveStateSections).
using SectionProducer = std::function<Status(const SectionSink& sink)>;

/// Encodes the container to bytes (no I/O). Releases each payload once
/// it is copied into the image, so a moved-in checkpoint never holds
/// all of its state twice.
std::string EncodeSnapshot(
    uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections);

/// Fully validates a container image — magic, version, section table
/// bounds, every per-section checksum, and the trailer — and returns
/// its table over the image it now owns. Errors are descriptive (which
/// check failed, which section).
Result<SnapshotData> DecodeSnapshot(std::string image);

/// Streams a container to `path` (atomically): `produce` must emit
/// exactly `names`, in order. A section out of order, unknown or
/// missing is InvalidArgument, and leaves no file behind.
Status WriteSnapshotFile(const std::string& path, uint64_t fingerprint,
                         const std::vector<std::string_view>& names,
                         const SectionProducer& produce);
/// The same for sections already in memory.
Status WriteSnapshotFile(
    const std::string& path, uint64_t fingerprint,
    const std::vector<std::pair<std::string, std::string>>& sections);

/// Validates the file as DecodeSnapshot does, in one chunked pass, and
/// returns its table. When `expected_fingerprint` is nonzero, a
/// snapshot taken under a different fingerprint (other landscape,
/// seed, rng plane, strategy, or fault-plan presence) is rejected
/// with FailedPrecondition.
Result<SnapshotData> ReadSnapshotFile(const std::string& path,
                                      uint64_t expected_fingerprint = 0);

}  // namespace autoglobe::persist

#endif  // AUTOGLOBE_PERSIST_SNAPSHOT_H_
