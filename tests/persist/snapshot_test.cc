// Corruption battery for the snapshot container and the checkpoint
// store: truncated, bit-flipped, wrong-version, and wrong-landscape
// images are all rejected with a descriptive Status, and the store
// falls back to the previous generation when the newest is damaged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "autoglobe/availability.h"
#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "autoglobe/landscape_gen.h"
#include "common/bytes.h"
#include "common/fileio.h"
#include "monitor/load_archive.h"
#include "persist/checkpoint_store.h"
#include "persist/runner_checkpoint.h"
#include "persist/snapshot.h"

namespace autoglobe {
namespace {

using persist::CheckpointStore;
using persist::DecodeSnapshot;
using persist::EncodeSnapshot;
using persist::kSnapshotVersion;
using persist::SnapshotData;

// Fresh per-test scratch directory: wiped on entry so reruns in the
// same temp root never see a previous run's generations.
std::string TempDir(const char* name) {
  std::string dir = ::testing::TempDir() + "ag_persist_" + name;
  auto entries = ListDirectory(dir);
  if (entries.ok()) {
    for (const std::string& entry : *entries) {
      EXPECT_TRUE(RemoveFileIfExists(dir + "/" + entry).ok());
    }
  }
  return dir;
}

using Sections = std::vector<std::pair<std::string, std::string>>;

Sections SampleSections() {
  return {{"alpha", "first section payload"},
          {"beta", std::string("\x00\x01\x02 binary \xff", 12)},
          {"gamma", ""}};
}

/// Every payload of a validated snapshot, read through Payload().
Sections PayloadsOf(const SnapshotData& snapshot) {
  Sections sections;
  std::string buffer;
  for (size_t i = 0; i < snapshot.sections.size(); ++i) {
    auto payload = snapshot.Payload(i, &buffer);
    EXPECT_TRUE(payload.ok()) << payload.status();
    sections.emplace_back(snapshot.sections[i].name,
                          std::string(payload.value_or("")));
  }
  return sections;
}

/// `sections` through the full container codec, ready to restore.
SnapshotData Snapshotted(uint64_t fingerprint, Sections sections) {
  auto decoded =
      DecodeSnapshot(EncodeSnapshot(fingerprint, std::move(sections)));
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? std::move(*decoded) : SnapshotData{};
}

/// Validates `bytes` both ways a container is read: decoded from
/// memory and read from a file holding them.
std::vector<Status> ReadBothWays(const std::string& bytes,
                                 const std::string& path) {
  std::vector<Status> statuses;
  statuses.push_back(DecodeSnapshot(bytes).status());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    EXPECT_TRUE(out.good()) << path;
  }
  statuses.push_back(persist::ReadSnapshotFile(path).status());
  return statuses;
}

TEST(SnapshotTest, RoundTrips) {
  Sections sections = SampleSections();
  std::string image = EncodeSnapshot(0xfeedf00d, sections);
  auto decoded = DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint, 0xfeedf00dull);
  EXPECT_EQ(decoded->size, image.size());
  EXPECT_EQ(PayloadsOf(*decoded), sections);
}

TEST(SnapshotTest, EncodedImageBytesArePinned) {
  // The container layout is fixed by the format version: the same
  // sections must always encode to the same bytes.
  std::string image = EncodeSnapshot(3, SampleSections());
  EXPECT_EQ(image.size(), 139u);
  EXPECT_EQ(Fnv1a64(image), 0x7713556da849cf0aull);
}

TEST(SnapshotTest, RejectsTruncation) {
  std::string dir = TempDir("truncation");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  std::string image = EncodeSnapshot(1, SampleSections());
  // Every proper prefix must be rejected — a torn write never parses,
  // from memory or from a file.
  for (size_t cut : {image.size() - 1, image.size() / 2, size_t{5}}) {
    for (const Status& status :
         ReadBothWays(image.substr(0, cut), dir + "/cut.agsnap")) {
      EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes parsed";
    }
  }
}

TEST(SnapshotTest, RejectsEveryBitFlip) {
  std::string dir = TempDir("bitflip");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  Sections sections = {{"alpha", "payload-a"}, {"beta", "payload-b"}};
  std::string image = EncodeSnapshot(2, sections);
  // Flip one bit per byte position; a single-bit error anywhere in
  // the file must surface as a checksum or parse failure.
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    for (const Status& status :
         ReadBothWays(corrupt, dir + "/flipped.agsnap")) {
      EXPECT_FALSE(status.ok()) << "bit flip at byte " << i << " parsed";
    }
  }
}

/// Rewrites the container's version field and re-seals the trailer,
/// so only the version check can fire.
std::string WithVersion(std::string image, uint32_t version) {
  // The version u32 sits right after the 8-byte magic.
  for (int i = 0; i < 4; ++i) {
    image[8 + static_cast<size_t>(i)] =
        static_cast<char>((version >> (8 * i)) & 0xff);
  }
  std::string body = image.substr(0, image.size() - 8);
  uint64_t checksum = Fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    image[body.size() + static_cast<size_t>(i)] =
        static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  return image;
}

TEST(SnapshotTest, RejectsWrongVersion) {
  std::string image = EncodeSnapshot(3, SampleSections());
  auto decoded = DecodeSnapshot(WithVersion(image, kSnapshotVersion + 1));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotTest, RejectsVersion1Snapshots) {
  // Version 1 runner sections still carried the legacy failure model's
  // RNG state; they must fail on the version, never misparse.
  ASSERT_NE(kSnapshotVersion, 1u);
  std::string image = EncodeSnapshot(3, SampleSections());
  auto decoded = DecodeSnapshot(WithVersion(image, 1));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().ToString().find("unsupported snapshot version 1"),
            std::string::npos)
      << decoded.status();
}

TEST(SnapshotTest, RejectsVersion2Snapshots) {
  // Version 2 archive sections held plain samples only; version 3
  // encodes them as runs. A version-2 image must fail on the version.
  ASSERT_EQ(kSnapshotVersion, 3u);
  std::string image = EncodeSnapshot(3, SampleSections());
  auto decoded = DecodeSnapshot(WithVersion(image, 2));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().ToString().find("unsupported snapshot version 2"),
            std::string::npos)
      << decoded.status();
}

TEST(SnapshotTest, FileRoundTripAndFingerprintCheck) {
  std::string dir = TempDir("file");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  std::string path = dir + "/one.agsnap";
  ASSERT_TRUE(
      persist::WriteSnapshotFile(path, 0xabc, SampleSections()).ok());
  auto ok = persist::ReadSnapshotFile(path, 0xabc);
  ASSERT_TRUE(ok.ok()) << ok.status();
  auto mismatched = persist::ReadSnapshotFile(path, 0xdef);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.status().ToString().find("fingerprint"),
            std::string::npos)
      << mismatched.status();
}

TEST(SnapshotTest, WrongLandscapeRefusesToRestore) {
  // A snapshot of the full-mobility run must not restore into a
  // static-scenario runner: the fingerprints differ (strategy aside,
  // the landscapes share names — the config axes still diverge).
  Landscape full = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig full_config =
      MakeScenarioConfig(Scenario::kFullMobility, 1.0, 42);
  full_config.duration = Duration::Hours(1);
  auto runner = SimulationRunner::Create(full, full_config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(SimTime::Start() + Duration::Minutes(30))
                  .ok());
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
  SnapshotData snapshot =
      Snapshotted((*runner)->StateFingerprint(), std::move(sections));

  Landscape other = MakePaperLandscape(Scenario::kStatic);
  RunnerConfig other_config =
      MakeScenarioConfig(Scenario::kStatic, 1.0, 43);
  other_config.duration = Duration::Hours(1);
  auto restored = persist::RestoreRunner(other, other_config, snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("fingerprint"),
            std::string::npos)
      << restored.status();
}

TEST(CheckpointStoreTest, RotationKeepsNewestGenerations) {
  std::string dir = TempDir("rotate");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();
  for (uint64_t i = 1; i <= 5; ++i) {
    Sections sections = {{"n", std::string(1, static_cast<char>('0' + i))}};
    ASSERT_TRUE(store->Write(7, sections).ok());
  }
  auto generations = store->ListGenerations();
  ASSERT_TRUE(generations.ok());
  ASSERT_EQ(generations->size(), 3u);
  EXPECT_EQ((*generations)[0], "checkpoint-000003.agsnap");
  EXPECT_EQ((*generations)[2], "checkpoint-000005.agsnap");
  auto loaded = store->LoadLatest(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(PayloadsOf(loaded->data)[0].second, "5");
  EXPECT_EQ(loaded->data.path, loaded->path);
  EXPECT_TRUE(loaded->skipped.empty());
}

TEST(CheckpointStoreTest, WriteRemovesOrphanedTmpFiles) {
  std::string dir = TempDir("orphans");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Write(7, {{"n", "one"}}).ok());
  // What a writer killed while writing generation 2 leaves behind, a
  // temporary of a newer generation, and files the store does not own.
  const std::vector<std::string> kept = {
      "checkpoint-000003.agsnap.tmp.4242", "checkpoint-000002.agsnap.tmp.",
      "checkpoint-000002.agsnap.tmp.12x", "notes.txt"};
  for (const std::string& name :
       {std::string("checkpoint-000002.agsnap.tmp.31337"), kept[0], kept[1],
        kept[2], kept[3]}) {
    ASSERT_TRUE(AtomicWriteFile(dir + "/" + name, "partial").ok());
  }
  ASSERT_TRUE(store->Write(7, {{"n", "two"}}).ok());
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok()) << entries.status();
  std::vector<std::string> expected = kept;
  expected.push_back("checkpoint-000001.agsnap");
  expected.push_back("checkpoint-000002.agsnap");
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*entries, expected);
  auto loaded = store->LoadLatest(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(PayloadsOf(loaded->data)[0].second, "two");
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPrevious) {
  std::string dir = TempDir("fallback");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Write(7, {{"n", "good"}}).ok());
  auto second = store->Write(7, {{"n", "newest"}});
  ASSERT_TRUE(second.ok());
  // Damage the newest generation: truncate it mid-file.
  auto bytes = ReadFileToString(*second);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      AtomicWriteFile(*second, bytes->substr(0, bytes->size() / 2)).ok());

  auto loaded = store->LoadLatest(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(PayloadsOf(loaded->data)[0].second, "good");
  ASSERT_EQ(loaded->skipped.size(), 1u);
  EXPECT_NE(loaded->skipped[0].find("checkpoint-000002"),
            std::string::npos);
}

TEST(CheckpointStoreTest, AllCorruptReportsEveryCandidate) {
  std::string dir = TempDir("hopeless");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Write(7, {{"n", "one"}}).ok());
  ASSERT_TRUE(store->Write(7, {{"n", "two"}}).ok());
  auto generations = store->ListGenerations();
  ASSERT_TRUE(generations.ok());
  for (const std::string& name : *generations) {
    ASSERT_TRUE(AtomicWriteFile(dir + "/" + name, "garbage").ok());
  }
  auto loaded = store->LoadLatest(7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checkpoint-000001"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().ToString().find("checkpoint-000002"),
            std::string::npos)
      << loaded.status();
}

/// CheckpointRunner and SaveRunnerSnapshot stream `runner` to files
/// equal to EncodeSnapshot of its sections, and the file's table reads
/// those sections back.
void ExpectStreamedFilesEqualImage(const SimulationRunner& runner,
                                   const std::string& dir) {
  Sections sections;
  ASSERT_TRUE(runner.SaveStateSections(&sections).ok());
  const std::string image =
      EncodeSnapshot(runner.StateFingerprint(), sections);

  auto store = CheckpointStore::Open(dir, 1);
  ASSERT_TRUE(store.ok()) << store.status();
  auto checkpoint = persist::CheckpointRunner(runner, &*store);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  auto stored = ReadFileToString(*checkpoint);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->size(), image.size());
  EXPECT_TRUE(*stored == image) << "CheckpointRunner file differs";

  const std::string path = dir + "/single.agsnap";
  ASSERT_TRUE(persist::SaveRunnerSnapshot(runner, path).ok());
  auto single = ReadFileToString(path);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_TRUE(*single == image) << "SaveRunnerSnapshot file differs";

  auto loaded = store->LoadLatest(runner.StateFingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->data.size, image.size());
  EXPECT_TRUE(PayloadsOf(loaded->data) == sections);
}

const std::string& SectionNamed(const Sections& sections,
                                std::string_view name) {
  static const std::string kAbsent = "<absent>";
  for (const auto& [section, payload] : sections) {
    if (section == name) return payload;
  }
  return kAbsent;
}

TEST(SnapshotTest, StreamedFileEqualsEncodedImage) {
  {
    // Paper FM with a fault plan: the faults section is present, and
    // the default strategy's section is empty.
    SCOPED_TRACE("paper FM with a fault plan");
    Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
    RunnerConfig config =
        MakeScenarioConfig(Scenario::kFullMobility, 1.15, 42);
    config.duration = Duration::Hours(8);
    faults::FaultPlan plan;
    plan.events.push_back({SimTime::Start() + Duration::Hours(1),
                           faults::FaultKind::kServerFailure, "Blade3",
                           Duration::Hours(1)});
    config.fault_plan = plan;
    auto runner = SimulationRunner::Create(landscape, config);
    ASSERT_TRUE(runner.ok()) << runner.status();
    ASSERT_TRUE(
        (*runner)->RunUntil(SimTime::Start() + Duration::Minutes(90)).ok());
    Sections sections;
    ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
    EXPECT_FALSE(SectionNamed(sections, "faults").empty());
    EXPECT_TRUE(SectionNamed(sections, "strategy").empty());
    ASSERT_EQ(sections.size(), (*runner)->StateSectionNames().size());
    for (size_t i = 0; i < sections.size(); ++i) {
      EXPECT_EQ(sections[i].first, (*runner)->StateSectionNames()[i]);
    }
    ExpectStreamedFilesEqualImage(**runner, TempDir("streamed_paper"));
  }
  {
    SCOPED_TRACE("1k-server fleet");
    auto landscape = GenerateLandscape(MakeScaleSpec(1000));
    ASSERT_TRUE(landscape.ok()) << landscape.status();
    RunnerConfig config;
    config.tick = Duration::Minutes(1);
    config.duration = Duration::Hours(3);
    config.seed = 42;
    config.user_scale = 1.5;
    config.fluctuation_per_minute = 0.0;
    config.archive_retention = Duration::Hours(1);
    config.archive_bucket = Duration::Minutes(15);
    config.controller.pool_prescreen = true;
    auto runner = SimulationRunner::Create(*landscape, config);
    ASSERT_TRUE(runner.ok()) << runner.status();
    ASSERT_TRUE(
        (*runner)->RunUntil(SimTime::Start() + Duration::Minutes(30)).ok());
    EXPECT_EQ(SectionNamed(
                  [&] {
                    Sections sections;
                    EXPECT_TRUE((*runner)->SaveStateSections(&sections).ok());
                    return sections;
                  }(),
                  "faults"),
              "<absent>");
    ExpectStreamedFilesEqualImage(**runner, TempDir("streamed_fleet"));
  }
}

TEST(CheckpointStoreTest, SectionChangedAfterLoadIsParseError) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0, 42);
  config.duration = Duration::Hours(1);
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(SimTime::Start() + Duration::Minutes(30))
                  .ok());
  auto store = CheckpointStore::Open(TempDir("changed"), 1);
  ASSERT_TRUE(store.ok()) << store.status();
  auto path = persist::CheckpointRunner(**runner, &*store);
  ASSERT_TRUE(path.ok()) << path.status();
  auto loaded = store->LoadLatest((*runner)->StateFingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Validation is over; the restore reads each payload again and must
  // notice one that changed since.
  auto archive = std::find_if(
      loaded->data.sections.begin(), loaded->data.sections.end(),
      [](const persist::SectionEntry& entry) {
        return entry.name == "archive";
      });
  ASSERT_NE(archive, loaded->data.sections.end());
  ASSERT_GT(archive->size, 0u);
  auto bytes = ReadFileToString(*path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  (*bytes)[archive->offset] = static_cast<char>((*bytes)[archive->offset] ^ 1);
  ASSERT_TRUE(AtomicWriteFile(*path, *bytes).ok());

  auto restored = persist::RestoreRunner(landscape, config, loaded->data);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("section \"archive\""),
            std::string::npos)
      << restored.status();
}

TEST(CheckpointStoreTest, SectionOutOfDeclaredOrderIsErrorAndLeavesNoFile) {
  std::string dir = TempDir("order");
  auto store = CheckpointStore::Open(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::vector<std::string_view> names = {"alpha", "beta"};
  auto emitting = [](std::vector<std::string_view> emitted) {
    return [emitted](const persist::SectionSink& sink) {
      for (std::string_view name : emitted) {
        AG_RETURN_IF_ERROR(sink(name, "payload"));
      }
      return Status::OK();
    };
  };
  struct Case {
    const char* what;
    std::vector<std::string_view> emitted;
  };
  const Case cases[] = {
      {"swapped", {"beta", "alpha"}},
      {"unknown", {"alpha", "delta"}},
      {"missing", {"alpha"}},
      {"extra", {"alpha", "beta", "gamma"}},
  };
  for (const Case& c : cases) {
    auto written = store->Write(7, names, emitting(c.emitted));
    ASSERT_FALSE(written.ok()) << c.what;
    EXPECT_EQ(written.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << written.status();
    auto entries = ListDirectory(dir);
    ASSERT_TRUE(entries.ok()) << entries.status();
    EXPECT_TRUE(entries->empty())
        << c.what << " left " << entries->front();

    const std::string path = dir + "/direct.agsnap";
    EXPECT_FALSE(
        persist::WriteSnapshotFile(path, 7, names, emitting(c.emitted))
            .ok())
        << c.what;
    entries = ListDirectory(dir);
    ASSERT_TRUE(entries.ok()) << entries.status();
    EXPECT_TRUE(entries->empty())
        << c.what << " left " << entries->front();
  }

  auto written = store->Write(7, names, emitting({"alpha", "beta"}));
  ASSERT_TRUE(written.ok()) << written.status();
  auto loaded = store->LoadLatest(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(PayloadsOf(loaded->data),
            (Sections{{"alpha", "payload"}, {"beta", "payload"}}));
}

// Offset of a server's smoothing-ring head in the runner section: past
// the 15 RunMetrics fields, the message log, the oscillation history,
// the ring layout, the earlier servers' rings and this ring's two sums.
// The ring's count follows the head.
size_t RingHeadOffset(std::string_view runner, size_t server) {
  ByteReader r(runner);
  for (int i = 0; i < 15; ++i) EXPECT_TRUE(r.U64().ok());
  const uint32_t messages = r.U32().value_or(0);
  for (uint32_t i = 0; i < messages; ++i) EXPECT_TRUE(r.Str().ok());
  const uint32_t histories = r.U32().value_or(0);
  for (uint32_t i = 0; i < histories; ++i) {
    EXPECT_TRUE(r.Str().ok());
    for (int field = 0; field < 2; ++field) {
      EXPECT_TRUE(r.U8().ok());
      EXPECT_TRUE(r.I64().ok());
    }
    EXPECT_TRUE(r.Str().ok());
    EXPECT_TRUE(r.Str().ok());
    EXPECT_TRUE(r.I64().ok());
  }
  EXPECT_TRUE(r.U32().ok());  // server count
  const uint64_t window = r.U64().value_or(0);
  for (size_t s = 0; s < server; ++s) {
    // Streak, sum, head, count and the ring's samples.
    for (uint64_t field = 0; field < 4 + window; ++field) {
      EXPECT_TRUE(r.U64().ok());
    }
  }
  EXPECT_TRUE(r.F64().ok());  // streak minutes
  EXPECT_TRUE(r.F64().ok());  // window sum
  return runner.size() - r.remaining();
}

TEST(SnapshotTest, HostileRunnerCountsAndRingHeadsAreParseErrors) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0, 42);
  config.duration = Duration::Hours(1);
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(SimTime::Start() + Duration::Minutes(30))
                  .ok());
  const uint64_t fingerprint = (*runner)->StateFingerprint();
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
  ASSERT_TRUE(persist::RestoreRunner(landscape, config,
                                     Snapshotted(fingerprint, sections))
                  .ok());

  // Each site gets 0xffffffff in its first four bytes: the runner
  // section's message-log count (after the 15 fixed-width RunMetrics
  // fields), the metrics section's counter count, and the first
  // server's smoothing-ring head, which the next tick would use as an
  // index into its ring.
  auto runner_section = std::find_if(
      sections.begin(), sections.end(),
      [](const auto& entry) { return entry.first == "runner"; });
  ASSERT_NE(runner_section, sections.end());
  const std::pair<std::string, size_t> sites[] = {
      {"runner", 15 * 8},
      {"metrics", 0},
      {"runner", RingHeadOffset(runner_section->second, 0)}};
  for (const auto& [name, offset] : sites) {
    Sections hostile = sections;
    auto section = std::find_if(
        hostile.begin(), hostile.end(),
        [&name](const auto& entry) { return entry.first == name; });
    ASSERT_NE(section, hostile.end()) << name;
    ASSERT_GE(section->second.size(), offset + 4) << name;
    section->second.replace(offset, 4, "\xff\xff\xff\xff");
    auto restored = persist::RestoreRunner(
        landscape, config, Snapshotted(fingerprint, std::move(hostile)));
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError)
        << name << ": " << restored.status();
  }
}

TEST(SnapshotTest, HostileSmoothingRingsAreParseErrors) {
  // 37 ticks into a 15-tick smoothing window every ring is full with
  // its oldest sample at slot 7; all servers share that position.
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0, 42);
  config.duration = Duration::Hours(1);
  ASSERT_EQ(config.overload_smoothing, Duration::Minutes(15));
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(SimTime::Start() + Duration::Minutes(37))
                  .ok());
  const uint64_t fingerprint = (*runner)->StateFingerprint();
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
  ASSERT_TRUE(persist::RestoreRunner(landscape, config,
                                     Snapshotted(fingerprint, sections))
                  .ok());

  auto runner_section = std::find_if(
      sections.begin(), sections.end(),
      [](const auto& entry) { return entry.first == "runner"; });
  ASSERT_NE(runner_section, sections.end());
  const size_t runner_index =
      static_cast<size_t>(runner_section - sections.begin());
  struct Site {
    const char* what;
    size_t server;
    size_t field;  // 0 = head, 1 = count
    uint64_t value;
  };
  const Site sites[] = {
      {"head at the window size", 0, 0, 15},
      {"count past the window size", 0, 1, 16},
      {"a head other servers do not share", 1, 0, 8},
      {"a count other servers do not share", 1, 1, 14},
  };
  for (const Site& site : sites) {
    Sections hostile = sections;
    std::string& section = hostile[runner_index].second;
    const size_t offset =
        RingHeadOffset(section, site.server) + 8 * site.field;
    ByteReader original(std::string_view(section).substr(offset, 8));
    ASSERT_EQ(original.U64().value_or(0), site.field == 0 ? 7u : 15u)
        << site.what;
    ByteWriter w;
    w.U64(site.value);
    section.replace(offset, 8, w.data());
    auto restored = persist::RestoreRunner(
        landscape, config, Snapshotted(fingerprint, std::move(hostile)));
    ASSERT_FALSE(restored.ok()) << site.what;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError)
        << site.what << ": " << restored.status();
  }
}

TEST(SnapshotTest, InstanceWatchesDisagreeingWithTheTopologyAreParseErrors) {
  // Paper FM with a fault plan: the monitor section ends with the
  // instance watches (21 bytes each, ascending id) and three counters.
  AvailabilityOptions options;
  options.scenario = Scenario::kFullMobility;
  options.duration = Duration::Hours(2);
  options.fault_spec.instance_crashes_per_hour = 1.0;
  auto config = MakeAvailabilityConfig(options, 42);
  ASSERT_TRUE(config.ok()) << config.status();
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  auto runner = SimulationRunner::Create(landscape, *config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(SimTime::Start() + Duration::Minutes(30))
                  .ok());
  const uint64_t fingerprint = (*runner)->StateFingerprint();
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
  ASSERT_TRUE(persist::RestoreRunner(landscape, *config,
                                     Snapshotted(fingerprint, sections))
                  .ok());

  // The last watch moves to an id no instance has: it still ascends
  // and names a service, so only the topology can tell.
  auto monitor_section = std::find_if(
      sections.begin(), sections.end(),
      [](const auto& entry) { return entry.first == "monitor"; });
  ASSERT_NE(monitor_section, sections.end());
  std::string& image = monitor_section->second;
  const size_t last_id = image.size() - 3 * 8 - (8 + 4 + 8 + 1);
  ByteWriter w;
  w.U64(uint64_t{1} << 40);
  image.replace(last_id, 8, w.data());
  auto restored = persist::RestoreRunner(
      landscape, *config, Snapshotted(fingerprint, std::move(sections)));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError)
      << restored.status();
}

// One (first, interval, count, value) entry of an archive image; a
// plain sample writes only `first` and `value`.
struct ImageRun {
  int64_t first = 0;
  int64_t interval = 0;
  uint64_t count = 0;
  double value = 0.0;
};

/// An archive section with one series ("server/s"), written field by
/// field so a test can break any of them.
std::string ArchiveImage(uint8_t flags, const std::vector<ImageRun>& raw,
                         const std::vector<ImageRun>& aggregates,
                         int64_t open_bucket, int64_t open_count) {
  ByteWriter w;
  w.U64(1);
  w.Str("server/s");
  w.U8(flags);
  const std::vector<ImageRun>* blocks[] = {&raw, &aggregates};
  for (int block = 0; block < 2; ++block) {
    const bool as_runs = (flags >> block) & 1;
    w.U64(blocks[block]->size());
    for (const ImageRun& run : *blocks[block]) {
      w.I64(run.first);
      if (as_runs) {
        w.I64(run.interval);
        w.U64(run.count);
      }
      w.F64(run.value);
    }
  }
  w.I64(open_bucket);
  w.F64(0.5 * static_cast<double>(open_count));
  w.I64(open_count);
  return w.Take();
}

TEST(SnapshotTest, HostileArchiveRunsAreParseErrors) {
  // One hour of retention, 15-minute buckets. The well-formed image:
  // 61 raw samples of 0.5 from 1 h to 2 h, eight closed buckets of 0.5
  // and the open bucket 8 holding the sample at 2 h.
  const Duration retention = Duration::Hours(1);
  const Duration bucket = Duration::Minutes(15);
  const ImageRun raw{3600, 60, 61, 0.5};
  const ImageRun aggregate{0, 900, 8, 0.5};
  auto restore = [&](const std::string& image) {
    monitor::LoadArchive archive(retention, bucket);
    ByteReader r(image);
    Status status = archive.RestoreState(&r);
    if (status.ok()) status = r.ExpectEnd();
    return status;
  };
  {
    const std::string image = ArchiveImage(3, {raw}, {aggregate}, 8, 1);
    monitor::LoadArchive archive(retention, bucket);
    ByteReader r(image);
    ASSERT_TRUE(archive.RestoreState(&r).ok());
    EXPECT_EQ(archive.Aggregated("server/s").size(), 9u);
    ByteWriter saved;
    archive.SaveState(&saved);
    EXPECT_EQ(saved.data(), image);
  }

  constexpr uint64_t kHuge = uint64_t{1} << 40;
  struct Case {
    const char* what;
    std::string image;
    const char* message;
  };
  const Case cases[] = {
      {"a raw run of 2^40 samples",
       ArchiveImage(3, {{3600, 60, kHuge, 0.5}}, {aggregate}, 8, 1),
       "retention window"},
      {"a raw run whose span overflows",
       ArchiveImage(3, {{3600, 60, uint64_t{1} << 62, 0.5}}, {aggregate},
                    8, 1),
       "retention window"},
      {"a raw run ending past the last representable time",
       ArchiveImage(3, {{std::numeric_limits<int64_t>::max() - 10, 60, 2,
                         0.5}},
                    {aggregate}, 8, 1),
       "last representable time"},
      {"an aggregate run of 2^40 buckets",
       ArchiveImage(3, {raw}, {{0, 900, kHuge, 0.5}}, 8, 1),
       "reaching the open bucket"},
      {"2^40 raw runs", [&] {
         std::string image = ArchiveImage(3, {raw}, {aggregate}, 8, 1);
         // The raw block's count follows the key and the flags.
         ByteWriter count;
         count.U64(kHuge);
         image.replace(8 + 4 + 8 + 1, 8, count.data());
         return image;
       }(),
       "corrupt count"},
      {"overlapping raw runs",
       ArchiveImage(3, {{3600, 60, 31, 0.5}, {5340, 60, 31, 0.6}},
                    {aggregate}, 8, 1),
       "overlaps or precedes"},
      {"out-of-order raw runs",
       ArchiveImage(3, {{5400, 60, 31, 0.6}, {3600, 60, 2, 0.5}},
                    {aggregate}, 8, 1),
       "overlaps or precedes"},
      {"out-of-order plain samples",
       ArchiveImage(2, {{4000, 0, 1, 0.5}, {3900, 0, 1, 0.5}}, {aggregate},
                    4, 1),
       "overlaps or precedes"},
      {"overlapping aggregate runs",
       ArchiveImage(3, {raw}, {{0, 900, 5, 0.5}, {3600, 900, 3, 0.6}}, 8,
                    1),
       "before the previous run ends"},
      {"out-of-order aggregate runs",
       ArchiveImage(3, {raw}, {{3600, 900, 2, 0.6}, {0, 900, 2, 0.5}}, 8,
                    1),
       "before the previous run ends"},
      {"an aggregate interval other than the bucket width",
       ArchiveImage(3, {raw}, {{0, 600, 8, 0.5}}, 8, 1),
       "is not the bucket width"},
      {"a raw run reaching past the retention window",
       ArchiveImage(3, {{0, 60, 10, 0.4}, raw}, {aggregate}, 8, 1),
       "past the 3600 s retention window"},
      {"an open bucket without the newest sample",
       ArchiveImage(3, {raw}, {aggregate}, 9, 1), "newest sample"},
      {"an unknown encoding flag",
       ArchiveImage(3 | 4, {raw}, {aggregate}, 8, 1),
       "unknown encoding flags 0x07"},
  };
  for (const Case& c : cases) {
    Status status = restore(c.image);
    ASSERT_FALSE(status.ok()) << c.what;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << c.what;
    EXPECT_NE(status.ToString().find(c.message), std::string::npos)
        << c.what << ": " << status;
  }
}

}  // namespace
}  // namespace autoglobe
