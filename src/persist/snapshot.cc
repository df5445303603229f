#include "persist/snapshot.h"

#include <cstring>

#include "common/bytes.h"
#include "common/fileio.h"
#include "common/strings.h"

namespace autoglobe::persist {

std::string EncodeSnapshot(
    uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections) {
  // Header, table, payloads and trailer go into one buffer, reserved
  // once at the image's exact size.
  size_t size = sizeof(kSnapshotMagic) + 4 + 8 + 4 + 8;
  for (const auto& [name, payload] : sections) {
    size += 4 + name.size() + 2 * 8 + payload.size();
  }
  ByteWriter w;
  w.Reserve(size);
  w.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(kSnapshotVersion);
  w.U64(fingerprint);
  w.U32(static_cast<uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    w.Str(name);
    w.U64(payload.size());
    w.U64(Fnv1a64(payload));
  }
  for (auto& [name, payload] : sections) {
    w.Raw(payload.data(), payload.size());
    std::string().swap(payload);
  }
  w.U64(Fnv1a64(w.data()));
  return w.Take();
}

Result<SnapshotData> DecodeSnapshot(std::string_view bytes) {
  // Trailer first: it covers everything, so a truncated file fails
  // here with one clear message instead of a puzzling partial parse.
  if (bytes.size() < sizeof(kSnapshotMagic) + sizeof(uint64_t)) {
    return Status::ParseError(StrFormat(
        "snapshot too small (%zu byte(s)) to be a container",
        bytes.size()));
  }
  ByteReader trailer(bytes.substr(bytes.size() - sizeof(uint64_t)));
  AG_ASSIGN_OR_RETURN(uint64_t stored_total, trailer.U64());
  std::string_view body = bytes.substr(0, bytes.size() - sizeof(uint64_t));
  uint64_t actual_total = Fnv1a64(body);
  if (stored_total != actual_total) {
    return Status::ParseError(StrFormat(
        "snapshot trailer checksum mismatch (stored %016llx, actual "
        "%016llx): file is truncated or corrupt",
        static_cast<unsigned long long>(stored_total),
        static_cast<unsigned long long>(actual_total)));
  }

  ByteReader r(body);
  char magic[sizeof(kSnapshotMagic)];
  AG_RETURN_IF_ERROR(r.Raw(magic, sizeof(magic)));
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a snapshot: bad magic");
  }
  AG_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kSnapshotVersion) {
    return Status::ParseError(StrFormat(
        "unsupported snapshot version %u (this build reads version %u)",
        version, kSnapshotVersion));
  }
  SnapshotData data;
  AG_ASSIGN_OR_RETURN(data.fingerprint, r.U64());
  AG_ASSIGN_OR_RETURN(uint32_t section_count, r.U32());
  AG_RETURN_IF_ERROR(r.CheckCount(section_count, 4 + 2 * 8));
  struct TableEntry {
    std::string name;
    uint64_t size = 0;
    uint64_t checksum = 0;
  };
  std::vector<TableEntry> table;
  table.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    TableEntry entry;
    AG_ASSIGN_OR_RETURN(entry.name, r.Str());
    AG_ASSIGN_OR_RETURN(entry.size, r.U64());
    AG_ASSIGN_OR_RETURN(entry.checksum, r.U64());
    table.push_back(std::move(entry));
  }
  for (TableEntry& entry : table) {
    if (entry.size > r.remaining()) {
      return Status::ParseError(StrFormat(
          "section \"%s\" claims %llu byte(s) but only %zu remain",
          entry.name.c_str(),
          static_cast<unsigned long long>(entry.size), r.remaining()));
    }
    std::string payload(entry.size, '\0');
    AG_RETURN_IF_ERROR(r.Raw(payload.data(), payload.size()));
    uint64_t actual = Fnv1a64(payload);
    if (actual != entry.checksum) {
      return Status::ParseError(StrFormat(
          "section \"%s\" checksum mismatch (stored %016llx, actual "
          "%016llx)",
          entry.name.c_str(),
          static_cast<unsigned long long>(entry.checksum),
          static_cast<unsigned long long>(actual)));
    }
    data.sections.emplace_back(std::move(entry.name), std::move(payload));
  }
  AG_RETURN_IF_ERROR(r.ExpectEnd());
  return data;
}

Status WriteSnapshotFile(
    const std::string& path, uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections) {
  return AtomicWriteFile(path,
                         EncodeSnapshot(fingerprint, std::move(sections)));
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path,
                                      uint64_t expected_fingerprint) {
  AG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  AG_ASSIGN_OR_RETURN(SnapshotData data, DecodeSnapshot(bytes));
  if (expected_fingerprint != 0 &&
      data.fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot \"%s\" was taken under fingerprint %016llx but this "
        "run's is %016llx — different landscape, seed, rng plane, "
        "strategy, or fault-plan presence",
        path.c_str(), static_cast<unsigned long long>(data.fingerprint),
        static_cast<unsigned long long>(expected_fingerprint)));
  }
  return data;
}

}  // namespace autoglobe::persist
