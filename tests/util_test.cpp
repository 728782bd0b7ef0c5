// Unit tests for src/util: rng, stats, intervals, tables, scalar helpers,
// and the JSON codec (plus its round trip through the artifact families).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "src/campaign/campaign.hpp"
#include "src/campaign/manifest_io.hpp"
#include "src/campaign/shard.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/profile_io.hpp"
#include "src/util/error.hpp"
#include "src/util/ids.hpp"
#include "src/util/interval.hpp"
#include "src/util/json.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"
#include "src/util/types.hpp"

namespace noceas {
namespace {

// ---- types -----------------------------------------------------------------

TEST(TransferDuration, RoundsUp) {
  EXPECT_EQ(transfer_duration(64, 64.0), 1);
  EXPECT_EQ(transfer_duration(65, 64.0), 2);
  EXPECT_EQ(transfer_duration(128, 64.0), 2);
  EXPECT_EQ(transfer_duration(1, 64.0), 1);
}

TEST(TransferDuration, ZeroAndNegativeVolumeIsFree) {
  EXPECT_EQ(transfer_duration(0, 64.0), 0);
  EXPECT_EQ(transfer_duration(-5, 64.0), 0);
}

TEST(TransferDuration, FractionalBandwidth) {
  EXPECT_EQ(transfer_duration(10, 2.5), 4);
  EXPECT_EQ(transfer_duration(11, 2.5), 5);
}

// ---- strong ids --------------------------------------------------------------

TEST(StrongId, DefaultIsInvalid) {
  TaskId t;
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(TaskId{0}.valid());
}

TEST(StrongId, ComparesAndHashes) {
  EXPECT_LT(TaskId{1}, TaskId{2});
  EXPECT_EQ(TaskId{3}, TaskId{3});
  EXPECT_NE(std::hash<TaskId>{}(TaskId{1}), std::hash<TaskId>{}(TaskId{2}));
}

// ---- error ------------------------------------------------------------------

TEST(Require, ThrowsWithMessage) {
  try {
    NOCEAS_REQUIRE(1 == 2, "the answer is " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Require, PassesSilently) { NOCEAS_REQUIRE(2 + 2 == 4, "never"); }

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(3, 7);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 7);
    saw_lo |= (x == 3);
    saw_hi |= (x == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, InvertedBoundsThrow) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.log_uniform(0.0, 1.0), Error);
}

TEST(Rng, LogUniformRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.log_uniform(10.0, 1000.0);
    ASSERT_GE(x, 10.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsNegative) {
  Rng rng(17);
  std::vector<double> w{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(w), Error);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkIndependent) {
  Rng a(23);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---- stats -------------------------------------------------------------------

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  const double mean = (1 + 2 + 4 + 8 + 16) / 5.0;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5.0;
  EXPECT_DOUBLE_EQ(rs.mean(), mean);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 31.0);
  EXPECT_EQ(rs.count(), 5u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, SampleVariance) {
  RunningStats rs;
  rs.add(2.0);
  rs.add(4.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 1.0);         // population
  EXPECT_DOUBLE_EQ(rs.sample_variance(), 2.0);  // n-1
}

TEST(Summarize, Basics) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(GeometricMean, KnownValue) {
  const std::vector<double> xs{1.0, 100.0};
  EXPECT_NEAR(geometric_mean(xs), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

TEST(GeometricMean, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW((void)geometric_mean(xs), Error);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 50.0), Error);
  EXPECT_THROW((void)percentile({1.0}, 101.0), Error);
}

// ---- interval ------------------------------------------------------------------

TEST(Interval, OverlapSemantics) {
  const Interval a{0, 10};
  EXPECT_TRUE(a.overlaps(Interval{5, 15}));
  EXPECT_TRUE(a.overlaps(Interval{9, 10}));
  EXPECT_FALSE(a.overlaps(Interval{10, 20}));  // half-open: touching is fine
  EXPECT_FALSE(a.overlaps(Interval{-5, 0}));
  EXPECT_TRUE(a.overlaps(Interval{-5, 1}));
}

TEST(Interval, ContainsPointAndInterval) {
  const Interval a{2, 8};
  EXPECT_TRUE(a.contains(2));
  EXPECT_FALSE(a.contains(8));
  EXPECT_TRUE(a.contains(Interval{2, 8}));
  EXPECT_TRUE(a.contains(Interval{3, 7}));
  EXPECT_FALSE(a.contains(Interval{1, 7}));
}

TEST(Interval, LengthAndEmpty) {
  EXPECT_EQ((Interval{3, 7}).length(), 4);
  EXPECT_TRUE((Interval{3, 3}).empty());
  EXPECT_FALSE((Interval{3, 4}).empty());
}

// ---- table --------------------------------------------------------------------

TEST(AsciiTable, AlignsAndCounts) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(AsciiTable, RejectsWrongArity) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(AsciiTable, CsvEscapesSpecials) {
  AsciiTable t({"a"});
  t.add_row({"x,y\"z"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(FormatDouble, TrimsZeros) {
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 3), "2");
  EXPECT_EQ(format_double(0.126, 2), "0.13");
  EXPECT_EQ(format_double(0.0, 3), "0");
}

TEST(FormatPercent, Formats) { EXPECT_EQ(format_percent(0.443, 1), "44.3%"); }

// ---- JSON codec ------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::ostringstream os;
  json::write_string(os, s);
  return os.str();
}

std::string parse_string(const std::string& text) {
  const json::Value v = json::parse(text);
  EXPECT_EQ(v.kind, json::Value::Kind::Str);
  return v.str;
}

TEST(JsonCodec, ParsesEveryEscape) {
  EXPECT_EQ(parse_string(R"("\" \\ \/ \b \f \n \r \t \u0041")"), "\" \\ / \b \f \n \r \t A");
  EXPECT_EQ(parse_string(R"("a\tb")"), "a\tb");
  EXPECT_EQ(parse_string(R"("a\/b")"), "a/b");
  EXPECT_EQ(parse_string(R"("\u0000")"), std::string(1, '\0'));
  EXPECT_EQ(parse_string(R"("\u00e9\u20ac")"), "\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonCodec, RejectsMalformedEscapes) {
  for (const char* bad : {R"("\x")", R"("\u12")", R"("\u12G4")", R"("\u+123")", R"("\)"}) {
    EXPECT_THROW((void)json::parse(bad), Error) << bad;
  }
}

TEST(JsonCodec, ShortEscapesForQuoteBackslashNewline) {
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("a\"b\\c\nd"), R"("a\"b\\c\nd")");
  EXPECT_EQ(json_string("\t\r"), R"("\u0009\u000d")");
  EXPECT_EQ(json_string(std::string_view("a\0b", 3)), R"("a\u0000b")");
}

TEST(JsonCodec, AllControlBytesRoundTrip) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string s = std::string("<") + static_cast<char>(c) + ">";
    const std::string text = json_string(s);
    for (char ch : text) EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "byte " << c;
    EXPECT_EQ(parse_string(text), s) << "byte " << c;
  }
}

TEST(JsonCodec, NonAsciiPassesThrough) {
  const std::string s = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80";  // U+00E9, U+20AC, U+1F600
  EXPECT_EQ(json_string(s), "\"" + s + "\"");
  EXPECT_EQ(parse_string(json_string(s)), s);
}

TEST(JsonCodec, SurrogatePairDecodesToOneCodePoint) {
  EXPECT_EQ(parse_string(R"("\ud83d\ude00")"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(parse_string(R"("\udbff\udfff")"), "\xF4\x8F\xBF\xBF");  // U+10FFFF
}

TEST(JsonCodec, LoneSurrogateRejected) {
  for (const char* bad : {R"("\ud83d")", R"("\ud83dx")", R"("\ude00")", R"("\ud83dA")",
                          R"("\ud83d\ud83d")"}) {
    EXPECT_THROW((void)json::parse(bad), Error) << bad;
  }
}

TEST(JsonCodec, AcceptsLegacyRawControlBytes) {
  EXPECT_EQ(parse_string("\"a\tb\x01\r\""), "a\tb\x01\r");
}

TEST(JsonCodec, NestingDepthIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
  EXPECT_THROW((void)json::parse(nested(json::kMaxDepth + 1)), Error);
  EXPECT_THROW((void)json::parse(std::string(1000000, '[')), Error);
  std::string objects;
  for (int i = 0; i <= json::kMaxDepth; ++i) objects += "{\"k\":";
  try {
    (void)json::parse(objects, "manifest");
    FAIL() << "expected a nesting error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest: nesting too deep"), std::string::npos);
  }
}

TEST(JsonCodec, IntegerAccessorsAreRangeChecked) {
  EXPECT_THROW((void)json::parse(R"({"unit":-1})").at("unit").u64(), Error);
  EXPECT_THROW((void)json::parse("1e300").i64(), Error);
  EXPECT_THROW((void)json::parse("-1e300").i64(), Error);
  EXPECT_THROW((void)json::parse("9223372036854775808").i64(), Error);
  EXPECT_EQ(json::parse("-9223372036854775808").i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json::parse("2147483647").i32(), 2147483647);
  EXPECT_EQ(json::parse("-2147483648").i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_THROW((void)json::parse("2147483648").i32(), Error);
  EXPECT_THROW((void)json::parse("-2147483649").i32(), Error);
  // u64 covers [0, 2^64) directly, not through i64.
  EXPECT_EQ(json::parse("9223372036854775808").u64(), 9223372036854775808ULL);
  EXPECT_EQ(json::parse("18446744073709549568").u64(), 18446744073709549568ULL);
  EXPECT_THROW((void)json::parse("18446744073709551616").u64(), Error);
  EXPECT_EQ(json::parse("0").u64(), 0U);
  EXPECT_EQ(json::parse("42").i64(), 42);

  json::Value v;
  v.kind = json::Value::Kind::Num;
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    v.num = bad;
    EXPECT_THROW((void)v.i64(), Error);
    EXPECT_THROW((void)v.i32(), Error);
    EXPECT_THROW((void)v.u64(), Error);
  }
}

TEST(JsonCodec, NumberIsShortestRoundTripOrNull) {
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(0.1), "0.1");
  EXPECT_EQ(json::number(3.0), "3");
  EXPECT_EQ(json::number(1e300), "1e+300");
  EXPECT_EQ(json::number(-2.2250738585072014e-308), "-2.2250738585072014e-308");
  EXPECT_TRUE(std::isnan(json::parse("null").num));
}

// A name with control bytes and non-ASCII text survives every artifact
// family that echoes it: the campaign manifest, the shard manifest and the
// span profile.
const std::string kHostileName = "a\tb\x01\r \xC3\xA9";  // ends in U+00E9

TEST(JsonCodec, CampaignManifestAndShardRoundTripHostileAppName) {
  campaign::AppSpec app;
  app.kind = campaign::AppSpec::Kind::Custom;
  app.custom_name = kHostileName;
  app.custom.num_tasks = 8;
  app.custom.num_edges = 12;
  app.custom.avg_layer_width = 3.0;
  campaign::CampaignSpec spec;
  spec.apps = {app};
  spec.seeds = {1};
  spec.schedulers = {"edf"};
  const campaign::CampaignResult result = campaign::run_campaign(spec);
  ASSERT_EQ(result.outcomes.size(), 1U);
  ASSERT_TRUE(result.outcomes[0].ok) << result.outcomes[0].error;

  std::stringstream manifest;
  campaign::write_manifest_json(manifest, result);
  const campaign::Manifest m = campaign::read_manifest_json(manifest);
  ASSERT_EQ(m.apps.size(), 1U);
  EXPECT_EQ(m.apps[0], kHostileName);
  ASSERT_EQ(m.runs.size(), 1U);
  EXPECT_EQ(m.runs[0].app, kHostileName);
  EXPECT_EQ(m.runs[0].id, result.outcomes[0].id);

  std::stringstream shard;
  campaign::write_shard_header_json(shard, spec, result.units.size());
  campaign::write_shard_row_json(shard, 0, result.outcomes[0], nullptr, {});
  const campaign::ShardManifest sm = campaign::read_shard_manifest(shard, /*lenient=*/false);
  ASSERT_EQ(sm.spec.apps.size(), 1U);
  EXPECT_EQ(sm.spec.apps[0].name(), kHostileName);
  ASSERT_EQ(sm.rows.size(), 1U);
  EXPECT_EQ(sm.rows[0].outcome.app, kHostileName);
  EXPECT_EQ(sm.rows[0].outcome.id, result.outcomes[0].id);
}

TEST(JsonCodec, ProfileRoundTripsPathWithTab) {
  obs::ProfileSnapshot snap;
  obs::ProfileRecord rec;
  rec.path = "root\tspan;" + kHostileName;
  rec.name = kHostileName;
  rec.depth = 1;
  rec.count = 3;
  rec.total_ns = rec.self_ns = rec.min_ns = rec.max_ns = 7;
  snap.records.push_back(rec);
  std::stringstream os;
  obs::write_profile_json(os, snap, /*include_timings=*/true);
  const obs::ProfileSnapshot back = obs::read_profile_json(os);
  ASSERT_EQ(back.records.size(), 1U);
  EXPECT_EQ(back.records[0].path, rec.path);
  EXPECT_EQ(back.records[0].name, kHostileName);
  EXPECT_EQ(back.records[0].count, 3U);
  EXPECT_EQ(back.records[0].total_ns, 7);
}

}  // namespace
}  // namespace noceas
