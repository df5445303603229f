#ifndef AUTOGLOBE_PERSIST_CHECKPOINT_STORE_H_
#define AUTOGLOBE_PERSIST_CHECKPOINT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "persist/snapshot.h"

namespace autoglobe::persist {

/// A directory of rotating snapshot generations:
///
///   <dir>/checkpoint-000001.agsnap
///   <dir>/checkpoint-000002.agsnap
///   ...
///
/// Write() appends a new generation (atomic write, then prunes the
/// oldest beyond `keep` and the temporaries that writers killed
/// mid-checkpoint left for generations no newer); LoadLatest() walks
/// generations newest-first and returns the first one that decodes
/// and validates — a torn or bit-flipped newest generation falls back
/// to the previous one, with every rejection reason reported.
class CheckpointStore {
 public:
  /// Creates the directory if missing. `keep` >= 1 generations are
  /// retained.
  static Result<CheckpointStore> Open(std::string dir, int keep = 3);

  /// Streams the next generation (see WriteSnapshotFile) and prunes
  /// old ones, and orphaned temporaries of this or older generations.
  /// Returns the path written.
  Result<std::string> Write(uint64_t fingerprint,
                            const std::vector<std::string_view>& names,
                            const SectionProducer& produce);
  /// The same for sections already in memory.
  Result<std::string> Write(
      uint64_t fingerprint,
      const std::vector<std::pair<std::string, std::string>>& sections);

  /// Loaded snapshot (its validated table; the payloads stay in the
  /// file) plus where it came from and what was skipped.
  struct Loaded {
    SnapshotData data;
    std::string path;
    /// One human-readable line per newer generation that failed
    /// validation (empty when the newest loaded cleanly).
    std::vector<std::string> skipped;
  };

  /// Newest valid generation; NotFound when the directory holds no
  /// loadable snapshot (the message lists every candidate's failure).
  Result<Loaded> LoadLatest(uint64_t expected_fingerprint = 0) const;

  /// Generation file names present (sorted ascending).
  Result<std::vector<std::string>> ListGenerations() const;

  const std::string& dir() const { return dir_; }

 private:
  CheckpointStore(std::string dir, int keep)
      : dir_(std::move(dir)), keep_(keep) {}

  /// Names the next generation, has `write` create it, then prunes.
  Result<std::string> WriteGeneration(
      const std::function<Status(const std::string& path)>& write);

  std::string dir_;
  int keep_;
};

}  // namespace autoglobe::persist

#endif  // AUTOGLOBE_PERSIST_CHECKPOINT_STORE_H_
