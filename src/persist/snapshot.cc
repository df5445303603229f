#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::persist {

namespace {

constexpr uint64_t kHeaderBytes = sizeof(kSnapshotMagic) + 4 + 8 + 4;
constexpr uint64_t kTrailerBytes = sizeof(uint64_t);
/// Name prefix, payload size and checksum of one table row.
constexpr uint64_t kMinEntryBytes = 4 + 2 * 8;
/// Every pass over a container's payloads moves this much at a time.
constexpr uint64_t kChunkBytes = uint64_t{1} << 16;

/// Stores `bytes` at `offset` of the container being written.
using WriteAt = std::function<Status(uint64_t offset, std::string_view bytes)>;
/// The `n` container bytes at `offset`; the view lives until the next
/// call.
using ReadAt =
    std::function<Result<std::string_view>(uint64_t offset, size_t n)>;

Status SectionChecksumMismatch(const SectionEntry& entry, uint64_t actual) {
  return Status::ParseError(StrFormat(
      "section \"%s\" checksum mismatch (stored %016llx, actual %016llx)",
      entry.name.c_str(), static_cast<unsigned long long>(entry.checksum),
      static_cast<unsigned long long>(actual)));
}

std::vector<std::string_view> NamesOf(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::vector<std::string_view> names;
  names.reserve(sections.size());
  for (const auto& [name, payload] : sections) names.push_back(name);
  return names;
}

/// The one container writer. Payloads go to their offsets past the
/// fixed-size header and table as `produce` emits them, each hashed on
/// the way; then the header and table; then the trailer, FNV-1a
/// continued from the header and table over the payloads read back a
/// chunk at a time.
Status WriteContainer(uint64_t fingerprint,
                      const std::vector<std::string_view>& names,
                      const SectionProducer& produce,
                      const WriteAt& write_at, const ReadAt& read_at) {
  uint64_t offset = kHeaderBytes;
  for (std::string_view name : names) offset += kMinEntryBytes + name.size();
  const uint64_t payloads_begin = offset;
  std::vector<SectionEntry> table;
  table.reserve(names.size());
  AG_RETURN_IF_ERROR(produce(
      [&](std::string_view name, std::string_view payload) -> Status {
        if (table.size() == names.size() || name != names[table.size()]) {
          const std::string expected =
              table.size() == names.size() ? std::string()
                                           : std::string(names[table.size()]);
          return Status::InvalidArgument(StrFormat(
              "section \"%s\" emitted out of the declared order "
              "(expected \"%s\")",
              std::string(name).c_str(), expected.c_str()));
        }
        AG_RETURN_IF_ERROR(write_at(offset, payload));
        table.push_back(SectionEntry{std::string(name), offset,
                                     payload.size(), Fnv1a64(payload)});
        offset += payload.size();
        return Status::OK();
      }));
  if (table.size() != names.size()) {
    return Status::InvalidArgument(StrFormat(
        "declared section \"%s\" was never emitted",
        std::string(names[table.size()]).c_str()));
  }

  ByteWriter framing;
  framing.Reserve(payloads_begin);
  framing.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  framing.U32(kSnapshotVersion);
  framing.U64(fingerprint);
  framing.U32(static_cast<uint32_t>(table.size()));
  for (const SectionEntry& entry : table) {
    framing.Str(entry.name);
    framing.U64(entry.size);
    framing.U64(entry.checksum);
  }
  AG_RETURN_IF_ERROR(write_at(0, framing.data()));

  uint64_t trailer = Fnv1a64(framing.data());
  for (uint64_t at = payloads_begin; at < offset; at += kChunkBytes) {
    AG_ASSIGN_OR_RETURN(std::string_view chunk,
                        read_at(at, std::min(kChunkBytes, offset - at)));
    trailer = Fnv1a64(chunk, trailer);
  }
  ByteWriter tail;
  tail.U64(trailer);
  return write_at(offset, tail.data());
}

/// The one parser of the header and table, for a container whose body
/// (everything before the trailer) is `body` bytes. The table's length
/// follows from its name-length prefixes, so those are walked first
/// and the header and table are then read in one piece of exactly that
/// size. Payload offsets are assigned here and must tile the body.
Result<SnapshotData> ParseFraming(uint64_t body, const ReadAt& read_at) {
  uint64_t table_end = std::min(body, kHeaderBytes);
  {
    AG_ASSIGN_OR_RETURN(std::string_view header, read_at(0, table_end));
    ByteReader r(header);
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
    AG_RETURN_IF_ERROR(r.U64().status());
    AG_ASSIGN_OR_RETURN(uint32_t section_count, r.U32());
    const uint64_t fit = (body - kHeaderBytes) / kMinEntryBytes;
    if (section_count > fit) {
      return Status::ParseError(StrFormat(
          "corrupt count %u at offset %llu: %llu byte(s) left hold at "
          "most %llu element(s) of %llu byte(s)",
          section_count, static_cast<unsigned long long>(kHeaderBytes),
          static_cast<unsigned long long>(body - kHeaderBytes),
          static_cast<unsigned long long>(fit),
          static_cast<unsigned long long>(kMinEntryBytes)));
    }
    for (uint32_t i = 0; i < section_count && table_end + 4 <= body; ++i) {
      AG_ASSIGN_OR_RETURN(std::string_view prefix, read_at(table_end, 4));
      AG_ASSIGN_OR_RETURN(uint32_t name_size, ByteReader(prefix).U32());
      table_end = std::min(body, table_end + kMinEntryBytes + name_size);
    }
  }

  AG_ASSIGN_OR_RETURN(std::string_view framing, read_at(0, table_end));
  ByteReader r(framing.substr(sizeof(kSnapshotMagic) + 4));
  SnapshotData data;
  AG_ASSIGN_OR_RETURN(data.fingerprint, r.U64());
  AG_ASSIGN_OR_RETURN(uint32_t section_count, r.U32());
  data.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry entry;
    AG_ASSIGN_OR_RETURN(entry.name, r.Str());
    AG_ASSIGN_OR_RETURN(entry.size, r.U64());
    AG_ASSIGN_OR_RETURN(entry.checksum, r.U64());
    data.sections.push_back(std::move(entry));
  }
  uint64_t offset = table_end;
  for (SectionEntry& entry : data.sections) {
    if (entry.size > body - offset) {
      return Status::ParseError(StrFormat(
          "section \"%s\" claims %llu byte(s) but only %llu remain",
          entry.name.c_str(), static_cast<unsigned long long>(entry.size),
          static_cast<unsigned long long>(body - offset)));
    }
    entry.offset = offset;
    offset += entry.size;
  }
  if (offset != body) {
    return Status::ParseError(StrFormat(
        "section has %llu trailing byte(s) past offset %llu",
        static_cast<unsigned long long>(body - offset),
        static_cast<unsigned long long>(offset)));
  }
  return data;
}

/// The one container reader: validates the `size`-byte container
/// behind `read_at` in a single chunked pass — the trailer over every
/// byte, each section's checksum over its payload — and returns its
/// table. A trailer mismatch is reported before any framing error, so
/// a truncated file fails with one clear message instead of a puzzling
/// partial parse.
Result<SnapshotData> ScanContainer(uint64_t size, const ReadAt& read_at) {
  if (size < sizeof(kSnapshotMagic) + kTrailerBytes) {
    return Status::ParseError(StrFormat(
        "snapshot too small (%llu byte(s)) to be a container",
        static_cast<unsigned long long>(size)));
  }
  const uint64_t body = size - kTrailerBytes;
  Result<SnapshotData> data = ParseFraming(body, read_at);
  std::vector<uint64_t> actual;
  if (data.ok()) actual.assign(data->sections.size(), kFnv1a64Basis);

  uint64_t total = kFnv1a64Basis;
  size_t section = 0;
  for (uint64_t at = 0; at < body; at += kChunkBytes) {
    const uint64_t end = std::min(body, at + kChunkBytes);
    AG_ASSIGN_OR_RETURN(std::string_view chunk, read_at(at, end - at));
    total = Fnv1a64(chunk, total);
    if (!data.ok()) continue;
    // This chunk's share of each payload it overlaps.
    for (; section < data->sections.size(); ++section) {
      const SectionEntry& entry = data->sections[section];
      const uint64_t from = std::max(at, entry.offset);
      const uint64_t to = std::min(end, entry.offset + entry.size);
      if (from < to) {
        actual[section] =
            Fnv1a64(chunk.substr(from - at, to - from), actual[section]);
      }
      if (entry.offset + entry.size > end) break;
    }
  }

  AG_ASSIGN_OR_RETURN(std::string_view tail, read_at(body, kTrailerBytes));
  AG_ASSIGN_OR_RETURN(uint64_t stored_total, ByteReader(tail).U64());
  if (stored_total != total) {
    return Status::ParseError(StrFormat(
        "snapshot trailer checksum mismatch (stored %016llx, actual "
        "%016llx): file is truncated or corrupt",
        static_cast<unsigned long long>(stored_total),
        static_cast<unsigned long long>(total)));
  }
  if (!data.ok()) return data.status();
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != data->sections[i].checksum) {
      return SectionChecksumMismatch(data->sections[i], actual[i]);
    }
  }
  data->size = size;
  return data;
}

/// Reads a file (ReadOnlyFile, or the AtomicFile being written) into
/// one reused buffer.
template <typename File>
ReadAt ReaderOf(const File& file, std::string* buffer) {
  return [&file, buffer](uint64_t offset,
                         size_t n) -> Result<std::string_view> {
    buffer->resize(n);
    AG_RETURN_IF_ERROR(file.ReadAt(offset, n, buffer->data()));
    return std::string_view(*buffer);
  };
}

/// Reads an in-memory image.
ReadAt ReaderOf(const std::string& image) {
  return [&image](uint64_t offset, size_t n) -> Result<std::string_view> {
    return std::string_view(image).substr(offset, n);
  };
}

}  // namespace

Result<std::string_view> SnapshotData::Payload(size_t index,
                                               std::string* buffer) const {
  const SectionEntry& entry = sections[index];
  std::string_view payload;
  if (path.empty()) {
    if (entry.offset > image.size() ||
        entry.size > image.size() - entry.offset) {
      return Status::ParseError(StrFormat(
          "section \"%s\" lies outside the snapshot image",
          entry.name.c_str()));
    }
    payload = std::string_view(image).substr(entry.offset, entry.size);
  } else {
    AG_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
    // Released before it grows, so a larger section never shares the
    // heap with the previous one.
    if (buffer->capacity() < entry.size) std::string().swap(*buffer);
    buffer->resize(entry.size);
    AG_RETURN_IF_ERROR(file.ReadAt(entry.offset, entry.size, buffer->data()));
    payload = *buffer;
  }
  const uint64_t actual = Fnv1a64(payload);
  if (actual != entry.checksum) return SectionChecksumMismatch(entry, actual);
  return payload;
}

std::string EncodeSnapshot(
    uint64_t fingerprint,
    std::vector<std::pair<std::string, std::string>> sections) {
  // The image is reserved once at its exact size.
  const std::vector<std::string_view> names = NamesOf(sections);
  uint64_t size = kHeaderBytes + kTrailerBytes;
  for (const auto& [name, payload] : sections) {
    size += kMinEntryBytes + name.size() + payload.size();
  }
  std::string image;
  image.reserve(size);
  AG_CHECK_OK(WriteContainer(
      fingerprint, names,
      [&sections](const SectionSink& sink) {
        for (auto& [name, payload] : sections) {
          AG_RETURN_IF_ERROR(sink(name, payload));
          std::string().swap(payload);
        }
        return Status::OK();
      },
      [&image](uint64_t offset, std::string_view bytes) {
        if (image.size() < offset + bytes.size()) {
          image.resize(offset + bytes.size());
        }
        std::memcpy(image.data() + offset, bytes.data(), bytes.size());
        return Status::OK();
      },
      ReaderOf(image)));
  return image;
}

Result<SnapshotData> DecodeSnapshot(std::string image) {
  AG_ASSIGN_OR_RETURN(SnapshotData data,
                      ScanContainer(image.size(), ReaderOf(image)));
  data.image = std::move(image);
  return data;
}

Status WriteSnapshotFile(const std::string& path, uint64_t fingerprint,
                         const std::vector<std::string_view>& names,
                         const SectionProducer& produce) {
  AG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  std::string chunk;
  AG_RETURN_IF_ERROR(WriteContainer(
      fingerprint, names, produce,
      [&file](uint64_t offset, std::string_view bytes) {
        return file.WriteAt(offset, bytes);
      },
      ReaderOf(file, &chunk)));
  return file.Commit();
}

Status WriteSnapshotFile(
    const std::string& path, uint64_t fingerprint,
    const std::vector<std::pair<std::string, std::string>>& sections) {
  return WriteSnapshotFile(path, fingerprint, NamesOf(sections),
                           [&sections](const SectionSink& sink) {
                             for (const auto& [name, payload] : sections) {
                               AG_RETURN_IF_ERROR(sink(name, payload));
                             }
                             return Status::OK();
                           });
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path,
                                      uint64_t expected_fingerprint) {
  AG_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  std::string chunk;
  AG_ASSIGN_OR_RETURN(SnapshotData data,
                      ScanContainer(file.size(), ReaderOf(file, &chunk)));
  if (expected_fingerprint != 0 &&
      data.fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot \"%s\" was taken under fingerprint %016llx but this "
        "run's is %016llx — different landscape, seed, rng plane, "
        "strategy, or fault-plan presence",
        path.c_str(), static_cast<unsigned long long>(data.fingerprint),
        static_cast<unsigned long long>(expected_fingerprint)));
  }
  data.path = path;
  return data;
}

}  // namespace autoglobe::persist
