// Unit tests for the common substrate: byte units, size parsing, checksums,
// pattern fill/verify, iovec math, statistics, and the knob registry against
// its documented table.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "common/checksum.hpp"
#include "common/common.hpp"
#include "common/iovec.hpp"
#include "common/options.hpp"
#include "common/timing.hpp"

namespace nemo {
namespace {

TEST(Common, RoundUpDownPow2) {
  EXPECT_EQ(round_up(0, 64), 0u);
  EXPECT_EQ(round_up(1, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
  EXPECT_EQ(round_down(63, 64), 0u);
  EXPECT_EQ(round_down(64, 64), 64u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(4 * MiB), 22u);
}

TEST(Common, FormatSize) {
  EXPECT_EQ(format_size(64 * KiB), "64KiB");
  EXPECT_EQ(format_size(4 * MiB), "4MiB");
  EXPECT_EQ(format_size(2 * GiB), "2GiB");
  EXPECT_EQ(format_size(1000), "1000B");
  EXPECT_EQ(format_size(65 * KiB), "65KiB");
}

TEST(Common, ParseSize) {
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("64KiB"), 64 * KiB);
  EXPECT_EQ(parse_size("64k"), 64 * KiB);
  EXPECT_EQ(parse_size("4M"), 4 * MiB);
  EXPECT_EQ(parse_size("1G"), 1 * GiB);
  EXPECT_EQ(parse_size("1.5M"), MiB + MiB / 2);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_size("abc"), std::invalid_argument);
}

TEST(Common, PatternFillCheckDetectsCorruption) {
  std::vector<std::byte> buf(4096);
  pattern_fill(buf, 7);
  EXPECT_EQ(pattern_check(buf, 7), kPatternOk);
  EXPECT_NE(pattern_check(buf, 8), kPatternOk);
  buf[1234] ^= std::byte{1};
  EXPECT_EQ(pattern_check(buf, 7), 1234u);
}

TEST(Common, PatternCheckWithOffsetMatchesSuffix) {
  std::vector<std::byte> buf(256);
  pattern_fill(buf, 3);
  std::span<const std::byte> tail(buf.data() + 100, 156);
  EXPECT_EQ(pattern_check(tail, 3, 100), kPatternOk);
  EXPECT_NE(pattern_check(tail, 3, 99), kPatternOk);
}

TEST(Common, Fnv1aStableAndSensitive) {
  std::vector<std::byte> a(100), b(100);
  pattern_fill(a, 1);
  pattern_fill(b, 1);
  EXPECT_EQ(fnv1a(a), fnv1a(b));
  b[50] ^= std::byte{4};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(Common, SplitMixDeterministic) {
  SplitMix64 a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(10);
  EXPECT_NE(SplitMix64(9).next(), c.next());
  for (int i = 0; i < 1000; ++i) {
    double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(c.next_below(17), 17u);
  }
}

TEST(Common, StatsSummaries) {
  Stats s;
  for (double v : {3.0, 1.0, 2.0, 5.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Common, MibPerS) {
  EXPECT_NEAR(mib_per_s(1 * MiB, 1'000'000'000ull), 1.0, 1e-9);
  EXPECT_NEAR(mib_per_s(64 * KiB, 8'000ull), 7812.5, 0.1);
  EXPECT_EQ(mib_per_s(123, 0), 0.0);
}

TEST(Iovec, TotalBytesAndAsConst) {
  std::vector<std::byte> b(100);
  SegmentList v{{b.data(), 40}, {b.data() + 50, 10}};
  EXPECT_EQ(total_bytes(v), 50u);
  const ConstSegmentList c = nemo::as_const(v);
  EXPECT_EQ(total_bytes(c), 50u);
  EXPECT_EQ(c[1].base, b.data() + 50);
}

TEST(Iovec, SegmentCursorWalksAcrossBoundaries) {
  std::vector<std::byte> b(100);
  SegmentList v{{b.data(), 10}, {b.data() + 20, 0}, {b.data() + 30, 15}};
  SegmentCursor cur(v);
  EXPECT_EQ(cur.remaining(), 25u);
  Segment s1 = cur.take(6);
  EXPECT_EQ(s1.base, b.data());
  EXPECT_EQ(s1.len, 6u);
  Segment s2 = cur.take(100);
  EXPECT_EQ(s2.len, 4u);  // Rest of first segment only (contiguity break).
  Segment s3 = cur.take(100);
  EXPECT_EQ(s3.base, b.data() + 30);
  EXPECT_EQ(s3.len, 15u);
  EXPECT_TRUE(cur.done());
}

TEST(Iovec, GatherScatterCopyCrossingBoundaries) {
  std::vector<std::byte> src(64), dst(64, std::byte{0});
  pattern_fill(src, 5);
  ConstSegmentList sv{{src.data(), 10}, {src.data() + 10, 30},
                      {src.data() + 40, 24}};
  SegmentList dv{{dst.data(), 7}, {dst.data() + 7, 57}};
  EXPECT_EQ(gather_scatter_copy(dv, sv), 64u);
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
}

TEST(Iovec, GatherScatterCopiesMinOfTotals) {
  std::vector<std::byte> src(32), dst(16);
  pattern_fill(src, 2);
  ConstSegmentList sv{{src.data(), 32}};
  SegmentList dv{{dst.data(), 16}};
  EXPECT_EQ(gather_scatter_copy(dv, sv), 16u);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
}

TEST(Options, ParseAndTypes) {
  const char* argv[] = {"prog", "--size=64KiB", "--iters=10",
                        "--ratio=0.5", "--flag"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_EQ(o.get_size("size", 0), 64 * KiB);
  EXPECT_EQ(o.get_int("iters", 0), 10);
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0), 0.5);
  EXPECT_TRUE(o.get_flag("flag"));
  EXPECT_FALSE(o.get_flag("other"));
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Options, FinalizeRejectsUnknown) {
  const char* argv[] = {"prog", "--oops=1"};
  Options o(2, const_cast<char**>(argv));
  o.declare("size", "message size");
  EXPECT_THROW(o.finalize(), std::invalid_argument);
}

TEST(Options, RejectsMalformed) {
  const char* argv[] = {"prog", "notanoption"};
  EXPECT_THROW(Options(2, const_cast<char**>(argv)), std::invalid_argument);
}

/// Trim spaces and Markdown backticks from a table cell.
std::string cell_text(const std::string& cell) {
  std::string out;
  for (char c : cell)
    if (c != '`') out += c;
  std::size_t b = out.find_first_not_of(' ');
  std::size_t e = out.find_last_not_of(' ');
  return b == std::string::npos ? "" : out.substr(b, e - b + 1);
}

// docs/TUNING.md is the knob reference users read; it must list exactly the
// registry's knobs (the ones `nemo-tune --knobs` prints), count them right,
// and agree on every default that is not calibrated per machine.
TEST(Options, KnobRegistryMatchesTuningDoc) {
  std::ifstream doc(NEMO_TUNING_DOC);
  ASSERT_TRUE(doc) << "cannot read " << NEMO_TUNING_DOC;
  std::map<std::string, std::string> doc_default;  // knob -> Default cell
  long header_count = -1;
  bool in_table_section = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) in_table_section = line == "## The knobs";
    if (!in_table_section) continue;
    if (line.rfind("All ", 0) == 0) header_count = std::stol(line.substr(4));
    if (line.rfind("| `NEMO_", 0) != 0) continue;
    // | `NAME` | default | read by | meaning |
    std::size_t c1 = line.find('|', 1);
    std::size_t c2 = line.find('|', c1 + 1);
    ASSERT_NE(c2, std::string::npos) << line;
    std::string name = cell_text(line.substr(1, c1 - 1));
    EXPECT_TRUE(doc_default.emplace(name, cell_text(line.substr(
                                              c1 + 1, c2 - c1 - 1)))
                    .second)
        << "duplicate row " << name;
  }

  const auto& knobs = Config::knobs();
  EXPECT_EQ(header_count, static_cast<long>(knobs.size()))
      << "\"All N\" header in docs/TUNING.md";
  std::map<std::string, std::string> registry;
  for (const KnobInfo& k : knobs) registry.emplace(k.name, k.def);
  for (const auto& [name, def] : registry)
    EXPECT_TRUE(doc_default.count(name)) << name << " missing from the doc";
  for (const auto& [name, def] : doc_default) {
    auto it = registry.find(name);
    if (it == registry.end()) {
      ADD_FAILURE() << name << " documented but not registered";
      continue;
    }
    if (def.rfind("tuned", 0) == 0) continue;  // Calibrated per machine.
    EXPECT_EQ(def, it->second) << name << " default";
  }
}

}  // namespace
}  // namespace nemo
