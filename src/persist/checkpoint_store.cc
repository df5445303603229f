#include "persist/checkpoint_store.h"

#include <algorithm>
#include <cstdlib>

#include "common/fileio.h"
#include "common/strings.h"

namespace autoglobe::persist {

namespace {

constexpr std::string_view kPrefix = "checkpoint-";
constexpr std::string_view kSuffix = ".agsnap";

/// checkpoint-000042.agsnap -> 42; nullopt for foreign files.
std::optional<uint64_t> GenerationOf(std::string_view name) {
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) {
    return std::nullopt;
  }
  std::string_view digits =
      name.substr(kPrefix.size(),
                  name.size() - kPrefix.size() - kSuffix.size());
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

/// checkpoint-000042.agsnap.tmp.<pid> (the temporary a writer killed
/// mid-checkpoint leaves behind) -> 42; nullopt for any other file.
std::optional<uint64_t> TmpGenerationOf(std::string_view name) {
  constexpr std::string_view kTmp = ".tmp.";
  size_t at = name.find(kTmp);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view pid = name.substr(at + kTmp.size());
  if (pid.empty() || pid.find_first_not_of("0123456789") !=
                         std::string_view::npos) {
    return std::nullopt;
  }
  return GenerationOf(name.substr(0, at));
}

}  // namespace

Result<CheckpointStore> CheckpointStore::Open(std::string dir, int keep) {
  if (keep < 1) {
    return Status::InvalidArgument("checkpoint store must keep >= 1");
  }
  AG_RETURN_IF_ERROR(MakeDirectories(dir));
  return CheckpointStore(std::move(dir), keep);
}

Result<std::vector<std::string>> CheckpointStore::ListGenerations() const {
  AG_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                      ListDirectory(dir_));
  std::vector<std::string> generations;
  for (std::string& entry : entries) {
    if (GenerationOf(entry).has_value()) {
      generations.push_back(std::move(entry));
    }
  }
  // ListDirectory sorts lexicographically; the zero-padded names make
  // that generation order up to 999999, and the numeric tiebreak keeps
  // it correct beyond.
  std::sort(generations.begin(), generations.end(),
            [](const std::string& a, const std::string& b) {
              return *GenerationOf(a) < *GenerationOf(b);
            });
  return generations;
}

Result<std::string> CheckpointStore::Write(
    uint64_t fingerprint, const std::vector<std::string_view>& names,
    const SectionProducer& produce) {
  return WriteGeneration([&](const std::string& path) {
    return WriteSnapshotFile(path, fingerprint, names, produce);
  });
}

Result<std::string> CheckpointStore::Write(
    uint64_t fingerprint,
    const std::vector<std::pair<std::string, std::string>>& sections) {
  return WriteGeneration([&](const std::string& path) {
    return WriteSnapshotFile(path, fingerprint, sections);
  });
}

Result<std::string> CheckpointStore::WriteGeneration(
    const std::function<Status(const std::string& path)>& write) {
  AG_ASSIGN_OR_RETURN(std::vector<std::string> generations,
                      ListGenerations());
  uint64_t next = 1;
  if (!generations.empty()) {
    next = *GenerationOf(generations.back()) + 1;
  }
  std::string path = StrFormat("%s/checkpoint-%06llu%s", dir_.c_str(),
                               static_cast<unsigned long long>(next),
                               std::string(kSuffix).c_str());
  AG_RETURN_IF_ERROR(write(path));
  // Prune: keep the newest `keep_` generations (the one just written
  // counts).
  while (static_cast<int>(generations.size()) + 1 > keep_) {
    AG_RETURN_IF_ERROR(
        RemoveFileIfExists(dir_ + "/" + generations.front()));
    generations.erase(generations.begin());
  }
  // A writer killed mid-checkpoint leaves its temporary behind. One for
  // a generation no newer than this one is dead: remove it.
  AG_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDirectory(dir_));
  for (const std::string& entry : entries) {
    std::optional<uint64_t> generation = TmpGenerationOf(entry);
    if (generation.has_value() && *generation <= next) {
      AG_RETURN_IF_ERROR(RemoveFileIfExists(dir_ + "/" + entry));
    }
  }
  return path;
}

Result<CheckpointStore::Loaded> CheckpointStore::LoadLatest(
    uint64_t expected_fingerprint) const {
  AG_ASSIGN_OR_RETURN(std::vector<std::string> generations,
                      ListGenerations());
  Loaded loaded;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    std::string path = dir_ + "/" + *it;
    auto snapshot = ReadSnapshotFile(path, expected_fingerprint);
    if (snapshot.ok()) {
      loaded.data = std::move(*snapshot);
      loaded.path = std::move(path);
      return loaded;
    }
    loaded.skipped.push_back(StrFormat(
        "%s: %s", it->c_str(), snapshot.status().ToString().c_str()));
  }
  std::string detail;
  for (const std::string& line : loaded.skipped) {
    detail += "\n  " + line;
  }
  return Status::NotFound(StrFormat(
      "no loadable checkpoint in \"%s\"%s", dir_.c_str(),
      detail.empty() ? " (directory holds no generations)"
                     : detail.c_str()));
}

}  // namespace autoglobe::persist
