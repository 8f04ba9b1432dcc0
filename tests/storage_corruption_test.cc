// Corruption-injection sweep for the snapshot loader: every injected
// corruption — truncation at every byte boundary, single-bit flips over
// the whole file, section-table swaps, version skew, flag tampering,
// random multi-byte mutations — must either load to content identical to
// the original (benign) or return a structured non-OK Status. Never a
// crash, never a CHECK, never undefined behavior (check.sh runs this
// suite under ASan and UBSan). The file loader reads through its own byte
// source (pread), so the truncations, bit flips, hostile headers and
// trailing garbage also go through a file, and both sources must give
// the same verdict.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/random.h"

namespace tiebreak {
namespace {

using storage::LoadSnapshotFile;
using storage::LoadSnapshotFromBuffer;
using storage::SerializeSnapshot;
using storage::SnapshotContents;
using storage::SnapshotReadOptions;
using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// One shared valid snapshot (win-move over a short chain: database +
// graph, all 14 section kinds present).
class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_.emplace(
        ParseInstance("win(X) :- move(X, Y), not win(Y).",
                      "move(a, b). move(b, c). move(c, d). move(a, d)."));
    ground_.emplace(GroundOrDie(*inst_));
    Result<std::string> bytes =
        SerializeSnapshot(inst_->program, &inst_->database, &ground_->graph);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    valid_ = *std::move(bytes);
    const char* base = std::getenv("TMPDIR");
    file_ = std::string(base != nullptr ? base : "/tmp") +
            "/tiebreak_corruption_" + std::to_string(::getpid()) + ".tbs";
  }

  void TearDown() override { std::remove(file_.c_str()); }

  // Loads `bytes` from memory and, written to a file, through the file
  // source: both must accept, or both must reject with the same code.
  void ExpectSourcesAgree(const std::string& bytes, const std::string& what) {
    FILE* out = std::fopen(file_.c_str(), "wb");
    ASSERT_NE(out, nullptr) << file_;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    ASSERT_EQ(std::fclose(out), 0);
    const Result<SnapshotContents> from_buffer = LoadSnapshotFromBuffer(bytes);
    const Result<SnapshotContents> from_file = LoadSnapshotFile(file_);
    ASSERT_EQ(from_buffer.ok(), from_file.ok())
        << what << ": buffer " << from_buffer.status().ToString()
        << ", file " << from_file.status().ToString();
    EXPECT_EQ(from_buffer.status().code(), from_file.status().code())
        << what << ": buffer " << from_buffer.status().ToString()
        << ", file " << from_file.status().ToString();
  }

  // The sweep's acceptance predicate: mutated bytes must either fail with
  // a structured Status or load to content whose canonical re-dump equals
  // the original file bit-for-bit.
  void ExpectRejectedOrBenign(const std::string& mutated,
                              const std::string& what) {
    Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(mutated);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().ok()) << what;
      return;
    }
    const Database* db =
        loaded->database.has_value() ? &*loaded->database : nullptr;
    const GroundGraph* graph =
        loaded->graph.has_value() ? &*loaded->graph : nullptr;
    Result<std::string> redump =
        SerializeSnapshot(inst_->program, db, graph);
    ASSERT_TRUE(redump.ok()) << what;
    EXPECT_EQ(*redump, valid_) << what
                               << ": corrupted bytes loaded to different "
                                  "content without an error";
  }

  // Rewrites the header CRC so only deliberate field edits (version skew,
  // flag tampering) survive the header check — modelling an adversarial
  // writer rather than accidental corruption.
  static void FixHeaderCrc(std::string* bytes) {
    const uint32_t crc = Crc32c(bytes->data(), 28);
    for (int i = 0; i < 4; ++i) {
      (*bytes)[28 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
  }

  static void PutU32At(std::string* bytes, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }

  static uint32_t GetU32At(const std::string& bytes, size_t at) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = v << 8 | static_cast<unsigned char>(bytes[at + i]);
    }
    return v;
  }

  std::optional<Instance> inst_;
  std::optional<GroundingResult> ground_;
  std::string valid_;
  std::string file_;  // scratch file for the file-source sweeps
};

TEST_F(CorruptionTest, ValidSnapshotLoads) {
  Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(valid_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(CorruptionTest, EveryTruncationIsRejected) {
  // Every proper prefix, including the empty one: a torn write can stop
  // at any byte. None may load (the header records the full length).
  for (size_t length = 0; length < valid_.size(); ++length) {
    const std::string truncated = valid_.substr(0, length);
    Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(truncated);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << length << " bytes";
  }
}

TEST_F(CorruptionTest, TrailingGarbageIsRejected) {
  std::string extended = valid_ + std::string(1, '\0');
  EXPECT_FALSE(LoadSnapshotFromBuffer(extended).ok());
  extended = valid_ + "garbage";
  EXPECT_FALSE(LoadSnapshotFromBuffer(extended).ok());
}

TEST_F(CorruptionTest, EverySingleBitFlipIsRejectedOrBenign) {
  // The canonical encoding leaves no slack bytes, so in practice every
  // flip is *rejected*; the tolerant predicate only documents the
  // contract. Every bit of the file is swept.
  for (size_t bit = 0; bit < valid_.size() * 8; ++bit) {
    std::string mutated = valid_;
    mutated[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ExpectRejectedOrBenign(mutated,
                           "bit flip at " + std::to_string(bit));
  }
}

TEST_F(CorruptionTest, SectionTableSwapIsRejected) {
  // Swap two whole table entries and fix the table + header CRCs — an
  // adversarial, checksum-valid mutation. The canonical kind ordering
  // rejects it structurally.
  const uint32_t section_count = GetU32At(valid_, 12);
  ASSERT_GE(section_count, 2u);
  for (uint32_t i = 0; i + 1 < section_count; ++i) {
    std::string mutated = valid_;
    const size_t a = 32 + static_cast<size_t>(i) * 32;
    const size_t b = a + 32;
    std::swap_ranges(mutated.begin() + a, mutated.begin() + a + 32,
                     mutated.begin() + b);
    const uint32_t table_crc =
        Crc32c(mutated.data() + 32, static_cast<size_t>(section_count) * 32);
    PutU32At(&mutated, 24, table_crc);
    FixHeaderCrc(&mutated);
    Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(mutated);
    EXPECT_FALSE(loaded.ok()) << "swap of table entries " << i << ", "
                              << i + 1;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(CorruptionTest, VersionSkewIsRejectedCleanly) {
  for (uint32_t version : {0u, 2u, 7u, 0xFFFFFFFFu}) {
    std::string mutated = valid_;
    PutU32At(&mutated, 4, version);
    FixHeaderCrc(&mutated);
    Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(mutated);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  }
}

TEST_F(CorruptionTest, FlagTamperingIsRejected) {
  // Unknown flag bit (checksum-fixed).
  std::string mutated = valid_;
  PutU32At(&mutated, 8, GetU32At(valid_, 8) | 0x80);
  FixHeaderCrc(&mutated);
  EXPECT_EQ(LoadSnapshotFromBuffer(mutated).status().code(),
            StatusCode::kDataLoss);
  // Dropping the database flag leaves its sections behind: list mismatch.
  mutated = valid_;
  PutU32At(&mutated, 8, storage::kFlagHasGraph);
  FixHeaderCrc(&mutated);
  EXPECT_EQ(LoadSnapshotFromBuffer(mutated).status().code(),
            StatusCode::kDataLoss);
  // No flags at all.
  mutated = valid_;
  PutU32At(&mutated, 8, 0);
  FixHeaderCrc(&mutated);
  EXPECT_EQ(LoadSnapshotFromBuffer(mutated).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(CorruptionTest, EverySectionPayloadByteMatters) {
  // Overwrite the first byte of every section payload (offset read out of
  // the table) — each must fail its payload CRC.
  const uint32_t section_count = GetU32At(valid_, 12);
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry = 32 + static_cast<size_t>(i) * 32;
    const size_t offset = GetU32At(valid_, entry + 8);  // low word suffices
    const size_t length = GetU32At(valid_, entry + 16);
    if (length == 0) continue;
    std::string mutated = valid_;
    mutated[offset] = static_cast<char>(mutated[offset] + 1);
    EXPECT_FALSE(LoadSnapshotFromBuffer(mutated).ok())
        << "section " << i << " payload edit";
  }
}

TEST_F(CorruptionTest, RandomMutationsNeverCrash) {
  Rng rng(0xC0224407);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = valid_;
    const int edits = 1 + static_cast<int>(rng.Below(8));
    for (int e = 0; e < edits; ++e) {
      switch (rng.Below(4)) {
        case 0:  // random byte overwrite
          mutated[rng.Below(mutated.size())] =
              static_cast<char>(rng.Below(256));
          break;
        case 1:  // random bit flip
          mutated[rng.Below(mutated.size())] ^=
              static_cast<char>(1 << rng.Below(8));
          break;
        case 2:  // truncate to a random length
          mutated.resize(rng.Below(mutated.size() + 1));
          break;
        default:  // append random garbage
          mutated.push_back(static_cast<char>(rng.Below(256)));
          break;
      }
      if (mutated.empty()) break;
    }
    ExpectRejectedOrBenign(mutated, "random mutation round " +
                                        std::to_string(round));
  }
}

TEST_F(CorruptionTest, BadMagicIsReportedInHex) {
  std::string mutated = valid_;
  PutU32At(&mutated, 0, 0xdeadbeefu);
  Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(mutated);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("0xdeadbeef"), std::string::npos)
      << loaded.status().message();
}

// Hand-built headers with adversarial counts and lengths: correct magic
// and CRCs, hostile everything else.
std::vector<std::string> HostileHeaders() {
  struct Probe {
    uint32_t section_count;
    uint64_t file_length;
  };
  std::vector<std::string> headers;
  for (const Probe& probe :
       {Probe{1, 32}, Probe{0xFFFFFFFF, 1u << 20}, Probe{64, 64},
        Probe{14, 0}, Probe{1, 0xFFFFFFFFFFFFFFFFull}}) {
    std::string bytes(32, '\0');
    auto put = [&bytes](size_t at, uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    };
    put(0, storage::kSnapshotMagic);
    put(4, storage::kSnapshotVersion);
    put(8, storage::kFlagHasDatabase);
    put(12, probe.section_count);
    put(16, static_cast<uint32_t>(probe.file_length));
    put(20, static_cast<uint32_t>(probe.file_length >> 32));
    put(24, 0);
    put(28, Crc32c(bytes.data(), 28));
    headers.push_back(bytes);
  }
  return headers;
}

TEST_F(CorruptionTest, HostileHeadersNeverCrash) {
  for (const std::string& bytes : HostileHeaders()) {
    EXPECT_FALSE(LoadSnapshotFromBuffer(bytes).ok());
  }
}

// The file source against the buffer source, case by case: every
// truncation, every single-bit flip, the hostile headers and trailing
// garbage, each written to the scratch file and loaded from there.
TEST_F(CorruptionTest, FileSourceAgreesWithBufferOnEveryTruncation) {
  ExpectSourcesAgree(valid_, "the valid snapshot");
  for (size_t length = 0; length < valid_.size(); ++length) {
    ExpectSourcesAgree(valid_.substr(0, length),
                       "truncation to " + std::to_string(length) + " bytes");
  }
}

TEST_F(CorruptionTest, FileSourceAgreesWithBufferOnEverySingleBitFlip) {
  for (size_t bit = 0; bit < valid_.size() * 8; ++bit) {
    std::string mutated = valid_;
    mutated[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ExpectSourcesAgree(mutated, "bit flip at " + std::to_string(bit));
  }
}

TEST_F(CorruptionTest, FileSourceAgreesWithBufferOnHostileHeadersAndGarbage) {
  for (const std::string& bytes : HostileHeaders()) {
    ExpectSourcesAgree(bytes, "hostile header");
  }
  ExpectSourcesAgree(valid_ + std::string(1, '\0'), "one trailing zero");
  ExpectSourcesAgree(valid_ + "garbage", "trailing garbage");
}

TEST_F(CorruptionTest, FileLoadOfNonRegularFilesIsDataLoss) {
  EXPECT_EQ(LoadSnapshotFile("/dev/zero").status().code(),
            StatusCode::kDataLoss);
  const char* base = std::getenv("TMPDIR");
  EXPECT_EQ(LoadSnapshotFile(base != nullptr ? base : "/tmp").status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace tiebreak
