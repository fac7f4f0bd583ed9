#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace sesemi {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::NotFound("model m0");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: model m0");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 13; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, CodeNameRoundTripsForEveryCode) {
  std::set<std::string_view> names;
  for (int c = 0; c <= 13; ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    const std::string_view name = StatusCodeToString(code);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    auto parsed = StatusCodeFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(StatusCodeFromString("NoSuchCode").has_value());
  EXPECT_FALSE(StatusCodeFromString("").has_value());
  EXPECT_FALSE(StatusCodeFromString("ok").has_value());  // case-sensitive
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() -> Status { return Status::Corruption("bad bytes"); };
  auto outer = [&]() -> Status {
    SESEMI_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsCorruption());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto chain = [&](bool fail) -> Result<int> {
    SESEMI_ASSIGN_OR_RETURN(int v, make(fail));
    return v + 1;
  };
  EXPECT_EQ(*chain(false), 8);
  EXPECT_FALSE(chain(true).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(HexEncode(b), "deadbeef007f");
  EXPECT_EQ(HexDecode("deadbeef007f"), b);
  EXPECT_EQ(HexDecode("DEADBEEF007F"), b);
}

TEST(BytesTest, HexRejectsMalformed) {
  EXPECT_FALSE(IsHex("abc"));    // odd length
  EXPECT_FALSE(IsHex("zz"));     // non-hex char
  EXPECT_TRUE(HexDecode("abc").empty());
  EXPECT_TRUE(IsHex(""));
  EXPECT_TRUE(HexDecode("").empty());
}

TEST(BytesTest, StringRoundTrip) {
  std::string s = "hello sesemi";
  EXPECT_EQ(ToString(ToBytes(s)), s);
}

TEST(BytesTest, ConcatAndAppend) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes c = Concat({a, b, a});
  EXPECT_EQ(c, (Bytes{1, 2, 3, 1, 2}));
  Append(&c, b);
  EXPECT_EQ(c.back(), 3);
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(BytesTest, BigEndianIntegers) {
  Bytes buf;
  PutUint32BE(&buf, 0x01020304u);
  PutUint64BE(&buf, 0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(GetUint32BE(buf.data()), 0x01020304u);
  EXPECT_EQ(GetUint64BE(buf.data() + 4), 0x0102030405060708ull);
}

TEST(BytesTest, ReaderWriterRoundTrip) {
  ByteWriter w;
  w.WriteUint8(7);
  w.WriteUint32(0xcafebabe);
  w.WriteUint64(1234567890123ull);
  w.WriteLengthPrefixedString("model-id");
  w.WriteLengthPrefixed(Bytes{9, 9, 9});
  Bytes wire = std::move(w).Take();

  ByteReader r(wire);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  std::string s;
  Bytes b;
  ASSERT_TRUE(r.ReadUint8(&u8));
  ASSERT_TRUE(r.ReadUint32(&u32));
  ASSERT_TRUE(r.ReadUint64(&u64));
  ASSERT_TRUE(r.ReadLengthPrefixedString(&s));
  ASSERT_TRUE(r.ReadLengthPrefixed(&b));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xcafebabeu);
  EXPECT_EQ(u64, 1234567890123ull);
  EXPECT_EQ(s, "model-id");
  EXPECT_EQ(b, (Bytes{9, 9, 9}));
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, ReaderUnderflowIsSafe) {
  Bytes wire = {0, 0, 0, 10, 1, 2};  // declares 10 bytes, provides 2
  ByteReader r(wire);
  Bytes out;
  EXPECT_FALSE(r.ReadLengthPrefixed(&out));
  // Position must be unchanged so callers can try another parse.
  uint32_t len;
  EXPECT_TRUE(r.ReadUint32(&len));
  EXPECT_EQ(len, 10u);
}

TEST(BytesTest, ReadIntoCopiesOnlyWhenTheBytesRemain) {
  Bytes wire = {1, 2, 3, 4, 5};
  ByteReader r(wire);
  uint8_t out[4] = {9, 9, 9, 9};
  EXPECT_FALSE(r.ReadInto(out, 6));
  EXPECT_EQ(out[0], 9);  // untouched on underflow
  EXPECT_EQ(r.remaining(), 5u);
  ASSERT_TRUE(r.ReadInto(out, 4));
  EXPECT_EQ(out[3], 4);
  EXPECT_TRUE(r.ReadInto(nullptr, 0));
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BytesTest, ReaderEmptyInput) {
  ByteReader r(ByteSpan{});
  uint8_t v;
  EXPECT_FALSE(r.ReadUint8(&v));
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
  EXPECT_EQ(rng.UniformUint64(0), 0u);
  EXPECT_EQ(rng.UniformUint64(1), 0u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatesInverseRate) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 0.25, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NextBytesLengthAndDeterminism) {
  Rng a(3), b(3);
  Bytes x = a.NextBytes(37);
  Bytes y = b.NextBytes(37);
  EXPECT_EQ(x.size(), 37u);
  EXPECT_EQ(x, y);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.Set(10);
  EXPECT_EQ(clock.Now(), 10);
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock clock;
  TimeMicros a = clock.Now();
  TimeMicros b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, Conversions) {
  EXPECT_EQ(SecondsToMicros(1.5), 1500000);
  EXPECT_EQ(SecondsToMicros(0.0000005), 1);  // rounds
  EXPECT_DOUBLE_EQ(MicrosToSeconds(250000), 0.25);
}

// ---------------------------------------------------------------- Logging

// Captures every emitted line whole (the sink is called once per message,
// under the emit lock, with the fully formatted line).
std::mutex g_captured_mutex;
std::vector<std::string> g_captured_lines;

void CaptureSink(const char* line, size_t length) {
  std::lock_guard<std::mutex> lock(g_captured_mutex);
  g_captured_lines.emplace_back(line, length);
}

TEST(LoggingTest, ConcurrentEmitsAreAtomicPerMessage) {
  {
    std::lock_guard<std::mutex> lock(g_captured_mutex);
    g_captured_lines.clear();
  }
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SetLogSink(&CaptureSink);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        SESEMI_ILOG << "thread=" << t << " message=" << i
                    << " padding=abcdefghijklmnopqrstuvwxyz";
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SetLogSink(nullptr);
  SetLogLevel(saved_level);

  std::lock_guard<std::mutex> lock(g_captured_mutex);
  ASSERT_EQ(g_captured_lines.size(), kThreads * kPerThread);
  std::set<std::string> seen;
  for (const std::string& line : g_captured_lines) {
    // Every line must be exactly one intact message: a single prefix, the
    // full payload, one trailing newline, no interleaving from other threads.
    EXPECT_EQ(line.find("[INFO"), 0u) << line;
    EXPECT_NE(line.find(" padding=abcdefghijklmnopqrstuvwxyz\n"),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    const size_t at = line.find("thread=");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_TRUE(seen.insert(line.substr(at)).second) << "duplicate: " << line;
  }
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
}

TEST(LoggingTest, SinkRestoresToStderrOnNull) {
  SetLogSink(nullptr);  // must not crash; subsequent logs go to stderr
  SESEMI_DLOG << "debug line after sink reset";
}

}  // namespace
}  // namespace sesemi
