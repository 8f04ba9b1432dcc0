// Tests for the util substrate: Status/Result, the deterministic PRNG,
// string helpers, the wall timer, CRC32C, and the durable file helpers.
#include <sys/stat.h>

#include <climits>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/timer.h"

namespace tiebreak {
namespace {

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad arity");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kDataLoss}) {
    EXPECT_NE(std::string(StatusCodeName(code)), "UNKNOWN");
  }
}

TEST(StatusTest, DataLossFactory) {
  Status s = Status::DataLoss("checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: checksum mismatch");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, RvalueDerefMovesOut) {
  std::vector<int> v = *Result<std::vector<int>>(std::vector<int>{4, 5});
  EXPECT_EQ(v, (std::vector<int>{4, 5}));
}

// ---------------------------------------------------------------------------
// CRC32C.
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly and at "
      "odd alignments 0123456789";
  const uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(0, data.data(), split);
    crc = Crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::string data = "snapshot payload bytes";
  const uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size() * 8; ++i) {
    data[i / 8] ^= static_cast<char>(1 << (i % 8));
    EXPECT_NE(Crc32c(data), base) << "flip of bit " << i << " undetected";
    data[i / 8] ^= static_cast<char>(1 << (i % 8));
  }
}

TEST(Crc32cTest, CombineMatchesOneShotOverRandomSplits) {
  Rng rng(0x5EED);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.Below(256));
  // Two cut points per round, so pieces of every kind appear — empty
  // ones included (cuts at the ends or at the same place).
  for (int round = 0; round < 300; ++round) {
    const size_t length = rng.Below(data.size() + 1);
    size_t a = rng.Below(length + 1);
    size_t b = rng.Below(length + 1);
    if (a > b) std::swap(a, b);
    if (round % 10 == 0) b = a;  // force an empty middle piece
    const uint32_t whole = Crc32c(data.data(), length);
    const uint32_t c0 = Crc32c(data.data(), a);
    const uint32_t c1 = Crc32c(data.data() + a, b - a);
    const uint32_t c2 = Crc32c(data.data() + b, length - b);
    const uint32_t folded =
        Crc32cCombine(Crc32cCombine(c0, c1, b - a), c2, length - b);
    EXPECT_EQ(folded, whole) << "length " << length << " cuts " << a << ", "
                             << b;
  }
  EXPECT_EQ(Crc32cCombine(Crc32c("abc"), Crc32c(""), 0), Crc32c("abc"));
  EXPECT_EQ(Crc32cCombine(Crc32c(""), Crc32c("abc"), 3), Crc32c("abc"));
  EXPECT_EQ(Crc32cCombine(0, 0, 0), 0u);
}

TEST(Crc32cTest, CombineComposesAtLengthsPastFourGiB) {
  // Crc32cCombine(a, 0, n) shifts `a` past n bytes, so shifting twice by n
  // must equal shifting once by 2n, and by m then n must equal by m + n.
  // That holds only if every x^(2^k) mod P the combine uses is right,
  // which the byte-level tests above cannot reach for k >= 32 (lengths of
  // 512 MiB and more) without allocating that much.
  const uint32_t a = Crc32c("tie-breaking");
  for (int bits : {28, 29, 31, 32, 39, 40, 62}) {
    const uint64_t n = uint64_t{1} << bits;
    EXPECT_EQ(Crc32cCombine(Crc32cCombine(a, 0, n), 0, n),
              Crc32cCombine(a, 0, 2 * n))
        << "2 x 2^" << bits;
  }
  Rng rng(0xC0B1);
  for (int round = 0; round < 100; ++round) {
    const uint64_t m = rng.Next() >> 1;  // m + n stays below 2^64
    const uint64_t n = rng.Next() >> 1;
    EXPECT_EQ(Crc32cCombine(Crc32cCombine(a, 0, m), 0, n),
              Crc32cCombine(a, 0, m + n))
        << m << " + " << n;
  }
}

TEST(Crc32cTest, DispatchedPathMatchesPortableAtEveryAlignment) {
  // Crc32c runs the SSE4.2 instruction where the CPU has it; it must agree
  // with the slice-by-8 reference at every start alignment, across the
  // head/body/tail boundaries of both loops, and on a long buffer.
  Rng rng(0xA1161);
  std::vector<unsigned char> data((size_t{1} << 20) + 16);
  for (unsigned char& c : data) c = static_cast<unsigned char>(rng.Below(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 1024; ++length) {
      const unsigned char* p = data.data() + start;
      ASSERT_EQ(Crc32c(0, p, length), Crc32cPortable(0, p, length))
          << "start " << start << " length " << length;
      // A nonzero running CRC must carry through the same way.
      ASSERT_EQ(Crc32c(0x12345678u, p, length),
                Crc32cPortable(0x12345678u, p, length))
          << "start " << start << " length " << length;
    }
    const size_t mib = size_t{1} << 20;
    EXPECT_EQ(Crc32c(0, data.data() + start, mib),
              Crc32cPortable(0, data.data() + start, mib))
        << "1 MiB at start " << start;
  }
}

// ---------------------------------------------------------------------------
// File I/O.
// ---------------------------------------------------------------------------

std::string TestTempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir =
      std::string(base != nullptr ? base : "/tmp") + "/" + leaf;
  EXPECT_TRUE(RemoveAll(dir).ok());
  EXPECT_TRUE(CreateDir(dir).ok());
  return dir;
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string dir = TestTempDir("tiebreak_file_io_rt");
  const std::string path = dir + "/data.bin";
  std::string payload("binary\0payload", 14);
  payload.push_back('\0');
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  Result<int64_t> size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<int64_t>(payload.size()));
  EXPECT_TRUE(RemoveAll(dir).ok());
}

TEST(FileIoTest, AtomicWriteReplacesAndLeavesNoTemp) {
  const std::string dir = TestTempDir("tiebreak_file_io_replace");
  const std::string path = dir + "/data.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
  Result<std::vector<std::string>> names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"data.bin"});
  EXPECT_TRUE(RemoveAll(dir).ok());
}

TEST(FileIoTest, MissingPathsAreNotFound) {
  const std::string missing = "/nonexistent-tiebreak-path/x";
  EXPECT_EQ(ReadFileToString(missing).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ListDir(missing).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(FileSize(missing).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(PathExists(missing));
}

TEST(FileIoTest, RemoveAllHandlesTreesAndAbsentPaths) {
  const std::string dir = TestTempDir("tiebreak_file_io_tree");
  ASSERT_TRUE(CreateDir(dir + "/sub").ok());
  ASSERT_TRUE(WriteFileDurable(dir + "/sub/a", "a").ok());
  ASSERT_TRUE(WriteFileDurable(dir + "/b", "b").ok());
  EXPECT_TRUE(RemoveAll(dir).ok());
  EXPECT_FALSE(PathExists(dir));
  EXPECT_TRUE(RemoveAll(dir).ok());  // already gone: still OK
}

TEST(FileIoTest, GatheredWritePastIovMax) {
  // More pieces than one writev takes, of uneven sizes and with empty
  // ones among them: the file is their concatenation.
  const std::string dir = TestTempDir("tiebreak_file_io_gather");
  std::vector<std::string> storage;
  for (int i = 0; i < 3 * IOV_MAX + 7; ++i) {
    storage.push_back(std::string(static_cast<size_t>(i % 5),
                                  static_cast<char>('a' + i % 26)));
  }
  std::vector<std::string_view> pieces(storage.begin(), storage.end());
  std::string expected;
  for (const std::string& piece : storage) expected += piece;
  const Span<std::string_view> span(pieces.data(), pieces.size());
  ASSERT_TRUE(WriteFileDurable(dir + "/durable", span).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/atomic", span).ok());
  for (const char* name : {"/durable", "/atomic"}) {
    Result<std::string> read = ReadFileToString(dir + name);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(*read == expected) << name;
  }
  EXPECT_TRUE(RemoveAll(dir).ok());
}

TEST(FileIoTest, ReadOnlyFileReadsAtOffsetsAndReportsShortReads) {
  const std::string dir = TestTempDir("tiebreak_file_io_pread");
  const std::string path = dir + "/data.bin";
  ASSERT_TRUE(WriteFileDurable(path, "0123456789").ok());
  Result<ReadOnlyFile> file = ReadOnlyFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), 10u);
  char buffer[4];
  ASSERT_TRUE(file->ReadAt(3, buffer, 4).ok());
  EXPECT_EQ(std::string(buffer, 4), "3456");
  Result<std::string> all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "0123456789");
  // Past the end, and a file that shrinks under an open reader.
  EXPECT_EQ(file->ReadAt(8, buffer, 4).code(), StatusCode::kDataLoss);
  ASSERT_TRUE(WriteFileDurable(path, "01").ok());
  EXPECT_EQ(file->ReadAll().status().code(), StatusCode::kDataLoss);
  const ReadOnlyFile moved = *std::move(file);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(ReadOnlyFile::Open(dir + "/absent").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(RemoveAll(dir).ok());
}

TEST(FileIoTest, ReadOnlyFileRefusesNonRegularFiles) {
  // A FIFO would block a plain open until a writer came; a device or a
  // directory is never a store file either.
  const std::string dir = TestTempDir("tiebreak_file_io_special");
  const std::string fifo = dir + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  for (const std::string& path : {fifo, dir, std::string("/dev/zero")}) {
    Result<ReadOnlyFile> file = ReadOnlyFile::Open(path);
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << path;
    EXPECT_NE(file.status().message().find("not a regular file"),
              std::string::npos)
        << file.status().ToString();
  }
  EXPECT_TRUE(RemoveAll(dir).ok());
}

TEST(FileIoTest, ListDirSortsNames) {
  const std::string dir = TestTempDir("tiebreak_file_io_sort");
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(WriteFileDurable(dir + "/" + name, name).ok());
  }
  Result<std::vector<std::string>> names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
  EXPECT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(12345), b(12345), c(54321);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.3) ? 1 : 0;
  EXPECT_GT(hits, 2700);
  EXPECT_LT(hits, 3300);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, PickReturnsElement) {
  Rng rng(23);
  const std::vector<std::string> items{"x", "y", "z"};
  for (int i = 0; i < 20; ++i) {
    const std::string& picked = rng.Pick(items);
    EXPECT_TRUE(picked == "x" || picked == "y" || picked == "z");
  }
}

// ---------------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------------

TEST(StringsTest, JoinBasics) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join(std::vector<int>{1, 2}, "-"), "1-2");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--seed=5", "--seed="));
  EXPECT_FALSE(StartsWith("-seed", "--seed"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

// ---------------------------------------------------------------------------
// Timer.
// ---------------------------------------------------------------------------

TEST(TimerTest, MonotoneAndResets) {
  WallTimer timer;
  const double t1 = timer.Seconds();
  const double t2 = timer.Seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(timer.Micros(), 0);
  timer.Reset();
  EXPECT_GE(timer.Seconds(), 0.0);
}

}  // namespace
}  // namespace tiebreak
