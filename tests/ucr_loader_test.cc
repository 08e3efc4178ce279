#include "data/ucr_loader.h"

#include <unistd.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ips {
namespace {

class UcrLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ips_ucr_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_ / "Demo");
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    std::ofstream out(dir_ / rel, std::ios::binary);
    out << content;
  }

  std::string Path(const std::string& rel) const {
    return (dir_ / rel).string();
  }

  // LoadUcrFile's error for a file holding `content`.
  std::string LoadError(const std::string& content) {
    WriteFile("bad.tsv", content);
    std::string error;
    EXPECT_FALSE(LoadUcrFile(Path("bad.tsv"), &error).has_value());
    return error;
  }

  std::filesystem::path dir_;
};

TEST_F(UcrLoaderTest, LoadsTabSeparatedSplit) {
  WriteFile("Demo/Demo_TRAIN.tsv",
            "1\t0.1\t0.2\t0.3\n2\t1.0\t1.1\t1.2\n1\t0.0\t0.1\t0.2\n");
  WriteFile("Demo/Demo_TEST.tsv", "2\t1.5\t1.6\t1.7\n1\t0.3\t0.2\t0.1\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 3u);
  EXPECT_EQ(split->test.size(), 2u);
  // Labels remapped densely: raw 1 -> 0, raw 2 -> 1.
  EXPECT_EQ(split->train[0].label, 0);
  EXPECT_EQ(split->train[1].label, 1);
  EXPECT_EQ(split->train[0].values, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST_F(UcrLoaderTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Nope").has_value());
}

TEST_F(UcrLoaderTest, MissingTestFileReturnsNullopt) {
  WriteFile("Demo/Demo_TRAIN.tsv", "1\t0.1\t0.2\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

TEST_F(UcrLoaderTest, CommaSeparatedAccepted) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0,1.0,2.0\n1,3.0,4.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "0,1.0,2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train[0].values, (std::vector<double>{1.0, 2.0}));
}

TEST_F(UcrLoaderTest, TrailingNanPaddingTrimmed) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\t2.0\tNaN\tNaN\n1\t3.0\t4.0\t5.0\tNaN\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train[0].length(), 2u);
  EXPECT_EQ(split->train[1].length(), 3u);
}

TEST_F(UcrLoaderTest, NegativeAndScientificValuesParsed) {
  WriteFile("Demo/Demo_TRAIN.tsv", "-1\t-0.5\t1e-3\t2.5E2\n1\t0\t0\t0\n");
  WriteFile("Demo/Demo_TEST.tsv", "-1\t1\t2\t3\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(split->train[0].values[1], 1e-3);
  EXPECT_DOUBLE_EQ(split->train[0].values[2], 250.0);
}

TEST_F(UcrLoaderTest, GarbageLineFailsCleanly) {
  WriteFile("Demo/Demo_TRAIN.tsv", "1\tnot_a_number\t2.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "1\t1.0\t2.0\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

// Only trailing NaN padding is trimmed: an interior NaN, an infinity or a
// NaN label fails the load as a garbage line does.
TEST_F(UcrLoaderTest, InteriorNanFailsCleanly) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\tNaN\t2.0\n1\t3.0\t4.0\t5.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\t3.0\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

TEST_F(UcrLoaderTest, InfinitiesFailCleanly) {
  WriteFile("inf.tsv", "0\t1.0\tinf\t2.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "inf.tsv").string()).has_value());
  WriteFile("neg_inf.tsv", "0\t1.0\t2.0\t-Infinity\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "neg_inf.tsv").string()).has_value());
  WriteFile("inf_label.tsv", "inf\t1.0\t2.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "inf_label.tsv").string()).has_value());
}

TEST_F(UcrLoaderTest, NanLabelFailsCleanly) {
  WriteFile("nan_label.tsv", "0\t1.0\t2.0\nNaN\t3.0\t4.0\n1\t5.0\t6.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "nan_label.tsv").string()).has_value());
  WriteFile("all_nan.tsv", "nan\tNaN\tNaN\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "all_nan.tsv").string()).has_value());
}

TEST_F(UcrLoaderTest, EmptyLinesSkipped) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\t2.0\n\n1\t3.0\t4.0\n\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 2u);
}

TEST_F(UcrLoaderTest, LoadUcrFileDirectly) {
  WriteFile("single.tsv", "5\t1.0\t2.0\n7\t3.0\t4.0\n5\t5.0\t6.0\n");
  const auto data = LoadUcrFile((dir_ / "single.tsv").string());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 3u);
  EXPECT_EQ(data->NumClasses(), 2);
  EXPECT_EQ((*data)[0].label, (*data)[2].label);
}

// ------------------------------------------------------------ error reasons

// Each reason names the file, the 1-based line (every '\n' counts, empty
// lines included) and the 1-based field, the label being field 1.
TEST_F(UcrLoaderTest, ErrorNamesUnparsableToken) {
  EXPECT_EQ(LoadError("0\t1\t2\n1\t3\tfour\t5\n"),
            Path("bad.tsv") + ": line 2, field 3: unparsable token");
  EXPECT_EQ(LoadError("0\t1\t2\n\n\n+\t3\n"),
            Path("bad.tsv") + ": line 4, field 1: unparsable token");
}

TEST_F(UcrLoaderTest, ErrorNamesInfinity) {
  EXPECT_EQ(LoadError("0\t1\t2\t3\t-inf\n"),
            Path("bad.tsv") + ": line 1, field 5: infinity");
  EXPECT_EQ(LoadError("0\t1\n1e400,2\n"),
            Path("bad.tsv") + ": line 2, field 1: infinity");
}

TEST_F(UcrLoaderTest, ErrorNamesValueAfterNanPadding) {
  EXPECT_EQ(LoadError("0\t1\t2\n\n1\t3\tNaN\tNaN\t4\n"),
            Path("bad.tsv") + ": line 3, field 5: value after NaN padding");
}

TEST_F(UcrLoaderTest, ErrorNamesNanLabel) {
  EXPECT_EQ(LoadError("0\t1\t2\n1\t2\t3\nnan\t3\t4\n"),
            Path("bad.tsv") + ": line 3, field 1: NaN label");
}

TEST_F(UcrLoaderTest, ErrorNamesRowWithNoValues) {
  EXPECT_EQ(LoadError("0\t1\t2\n7\n"),
            Path("bad.tsv") + ": line 2, field 2: no values");
  // A line of separators only (here a CRLF blank line) holds no label.
  EXPECT_EQ(LoadError("0\t1\t2\r\n\r\n1\t2\t3\r\n"),
            Path("bad.tsv") + ": line 2, field 1: no values");
}

TEST_F(UcrLoaderTest, ErrorNamesRowOfPaddingOnly) {
  EXPECT_EQ(LoadError("0\t1\t2\n1\tNaN\tnan\n"),
            Path("bad.tsv") + ": line 2, field 2: all padding");
}

TEST_F(UcrLoaderTest, ErrorNamesMissingAndEmptyFiles) {
  std::string error;
  EXPECT_FALSE(LoadUcrFile(Path("nope.tsv"), &error).has_value());
  EXPECT_EQ(error, Path("nope.tsv") + ": cannot open");
  EXPECT_EQ(LoadError(""), Path("bad.tsv") + ": no rows");
  EXPECT_EQ(LoadError("\n\n\n"), Path("bad.tsv") + ": no rows");
}

TEST_F(UcrLoaderTest, LastLineNeedsNoNewline) {
  WriteFile("open.tsv", "0\t1\t2\n1\t3\t4.5");
  const auto data = LoadUcrFile(Path("open.tsv"));
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->size(), 2u);
  EXPECT_EQ((*data)[1].values, (std::vector<double>{3.0, 4.5}));
}

TEST_F(UcrLoaderTest, EarlyStopSucceedsWithoutReadingFurther) {
  WriteFile("stop.tsv", "0\t1\t2\n1\t3\t4\ngarbage\n");
  int rows = 0;
  EXPECT_TRUE(ForEachUcrRow(Path("stop.tsv"),
                            [&](double, std::span<const double>) {
                              return ++rows < 2;
                            }));
  EXPECT_EQ(rows, 2);
  EXPECT_FALSE(ForEachUcrRow(Path("stop.tsv"),
                             [](double, std::span<const double>) {
                               return true;
                             }));
}

// ------------------------------------------------------------ save round trip

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_F(UcrLoaderTest, SaveLoadRoundTripIsBitwise) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                Limits::denorm_min(),
                                -Limits::denorm_min(),
                                Limits::min(),
                                std::nextafter(Limits::min(), 0.0),
                                Limits::max(),
                                -Limits::max(),
                                Limits::epsilon(),
                                0.1,
                                1.0 / 3.0};
  for (int e = -307; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    values.push_back(p);
    values.push_back(-std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, Limits::infinity()));
  }
  std::mt19937_64 rng(20240517);
  std::uniform_real_distribution<double> uniform(-1e3, 1e3);
  for (int i = 0; i < 4000; ++i) {
    double v = 0.0;
    switch (i % 4) {
      case 0:
        v = uniform(rng);
        break;
      case 1:  // any finite bit pattern, subnormals included
        do {
          v = std::bit_cast<double>(rng());
        } while (!std::isfinite(v));
        break;
      case 2:  // subnormal
        v = std::bit_cast<double>(rng() & 0x800fffffffffffffULL);
        break;
      default:
        v = std::ldexp(uniform(rng), static_cast<int>(rng() % 200) - 100);
    }
    values.push_back(v);
  }

  Dataset data;
  constexpr size_t kLength = 97;
  for (size_t first = 0; first < values.size(); first += kLength) {
    const size_t last = std::min(values.size(), first + kLength);
    data.Add(TimeSeries(std::vector<double>(values.begin() + first,
                                            values.begin() + last),
                        static_cast<int>(data.size() % 3)));
  }
  ASSERT_TRUE(SaveUcrFile(data, Path("round.tsv")));
  const auto loaded = LoadUcrFile(Path("round.tsv"));
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ((*loaded)[i].label, data[i].label);
    ASSERT_EQ((*loaded)[i].values.size(), data[i].values.size());
    for (size_t k = 0; k < data[i].values.size(); ++k) {
      ASSERT_EQ(Bits((*loaded)[i].values[k]), Bits(data[i].values[k]))
          << "series " << i << " value " << k << " = " << data[i].values[k];
    }
  }
}

// ---------------------------------------------- equivalence to the old reader

// The reader this loader replaced (istringstream tokens, strtod on a
// std::string per token, one getline per line), kept verbatim as the
// reference the new reader must match verdict for verdict and bit for bit.
bool ReferenceParseLine(const std::string& line, std::vector<double>& out) {
  out.clear();
  std::string token;
  std::string normalized = line;
  for (char& c : normalized) {
    if (c == '\t' || c == ',') c = ' ';
  }
  std::istringstream fields(normalized);
  bool padding = false;  // a NaN has been read
  while (fields >> token) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return false;
    if (std::isnan(value)) {
      padding = true;
    } else if (padding || std::isinf(value)) {
      return false;
    }
    out.push_back(value);
  }
  return true;
}

bool ReferenceForEachUcrRow(const std::string& path, const UcrRowFn& fn) {
  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  std::vector<double> fields;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!ReferenceParseLine(line, fields) || fields.size() < 2) return false;
    size_t end = fields.size();
    while (end > 1 && std::isnan(fields[end - 1])) --end;
    if (end < 2) return false;
    any = true;
    if (!fn(fields.front(),
            std::span<const double>(fields.data() + 1, end - 1))) {
      return true;
    }
  }
  return any;
}

// Everything a reader reports for a file: the verdict and every row's
// label and value bits, in order.
struct Scan {
  bool ok = false;
  std::vector<uint64_t> bits;  // label, length, values... per row
  bool operator==(const Scan&) const = default;
};

template <typename Reader>
Scan ScanWith(Reader reader, const std::string& path, size_t stop_after) {
  Scan scan;
  size_t rows = 0;
  scan.ok = reader(path, [&](double label, std::span<const double> values) {
    scan.bits.push_back(Bits(label));
    scan.bits.push_back(values.size());
    for (const double v : values) scan.bits.push_back(Bits(v));
    return ++rows != stop_after;
  });
  return scan;
}

class UcrReaderEquivalenceTest : public UcrLoaderTest {
 protected:
  // Both readers over `content`, to the end and stopping after a few rows;
  // counts how many of the files were accepted.
  void ExpectSameAsReference(const std::string& content) {
    WriteFile("corpus.tsv", content);
    const std::string path = Path("corpus.tsv");
    const auto current = [](const std::string& p, const UcrRowFn& fn) {
      return ForEachUcrRow(p, fn);
    };
    for (const size_t stop_after : {size_t{0}, size_t{1}, size_t{3}}) {
      const Scan want = ScanWith(ReferenceForEachUcrRow, path, stop_after);
      const Scan got = ScanWith(current, path, stop_after);
      ASSERT_EQ(got.ok, want.ok) << Escaped(content);
      ASSERT_TRUE(got == want) << Escaped(content);
      if (stop_after == 0 && want.ok) ++accepted_;
    }
    ++files_;
  }

  static std::string Escaped(const std::string& content) {
    std::string out = "content: \"";
    for (const char c : content.substr(0, 400)) {
      if (c == '\n') {
        out += "\\n";
      } else if (c == '\r') {
        out += "\\r";
      } else if (c == '\t') {
        out += "\\t";
      } else if (c == '\0') {
        out += "\\0";
      } else if (c == '\v') {
        out += "\\v";
      } else if (c == '\f') {
        out += "\\f";
      } else {
        out += c;
      }
    }
    return out + (content.size() > 400 ? "...\"" : "\"");
  }

  size_t files_ = 0;
  size_t accepted_ = 0;
};

// Tokens beyond plain decimals, valid and invalid alike: the strtod
// fallback's spellings, overflow and underflow, every non-finite spelling,
// and bytes neither reader takes.
const std::vector<std::string>& SpecialTokens() {
  static const std::vector<std::string> tokens = {
      "+1.5", "+0", "-0", "1e400", "-1e400", "1e-400", "-1e-400",
      "4.9e-324", "2.5e-320", "0x1.8p1", "-0X10", "0x1p-1074", "inf", "-inf",
      "Infinity", "-INFINITY", "INF", "nan", "NaN", "-nan", "NAN", "nan(7)",
      "nan(abc_1)", "1e", "1e+", ".", "-", "+", "1.5x", "x", "--1", "1..2",
      "0x", ".5", "5.", "1E5", "1e-5", "00012", "1_000", "\xd9\xa1", "infin",
      std::string("1.5\0", 4), std::string("\0", 1), std::string("2\0x", 3),
      "123456789012345678901234567890", "0.000000000000000000000000001234"};
  return tokens;
}

std::string RandomSeparator(std::mt19937_64& rng) {
  static const char* const kSeparators[] = {
      "\t", "\t", "\t", ",", ",", " ", "  ", "\t ", " ,", ",\t", "\v", "\f",
      "\t\r", " \f\v "};
  return kSeparators[rng() % std::size(kSeparators)];
}

std::string RandomNumber(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uniform(-1e4, 1e4);
  double v = uniform(rng);
  switch (rng() % 5) {
    case 0:
      v = std::ldexp(v, static_cast<int>(rng() % 400) - 200);
      break;
    case 1:
      v = std::round(v);
      break;
    case 2:
      do {
        v = std::bit_cast<double>(rng());
      } while (!std::isfinite(v));
      break;
    default:
      break;
  }
  char text[64];
  switch (rng() % 3) {
    case 0:
      std::snprintf(text, sizeof(text), "%.17g", v);  // max_digits10
      return text;
    case 1:
      return std::string(text, std::to_chars(text, text + sizeof(text), v).ptr);
    default:
      std::snprintf(text, sizeof(text), "%a", v);
      return text;
  }
}

// One line of `fields` fields (label first) with a random separator
// between each and, sometimes, before the first or after the last.
std::string RandomLine(std::mt19937_64& rng, size_t fields, bool special) {
  std::vector<std::string> tokens;
  tokens.push_back(std::to_string(static_cast<int>(rng() % 5) - 1));
  for (size_t f = 1; f < fields; ++f) tokens.push_back(RandomNumber(rng));
  const size_t padding = rng() % 4 == 0 ? 1 + rng() % 3 : 0;
  for (size_t p = 0; p < padding; ++p) {
    tokens.push_back(rng() % 2 ? "NaN" : "nan");
  }
  if (special) {
    const auto& specials = SpecialTokens();
    tokens[rng() % tokens.size()] = specials[rng() % specials.size()];
  }
  std::string line = rng() % 8 == 0 ? RandomSeparator(rng) : "";
  for (size_t t = 0; t < tokens.size(); ++t) {
    if (t > 0) line += RandomSeparator(rng);
    line += tokens[t];
  }
  if (rng() % 8 == 0) line += RandomSeparator(rng);
  return line;
}

TEST_F(UcrReaderEquivalenceTest, SeededCorpusMatchesTheOldReader) {
  std::mt19937_64 rng(301);
  for (int file = 0; file < 600; ++file) {
    // Half the files are clean; the rest take special tokens, blank or
    // separator-only lines, and truncations.
    const bool hostile = file % 2 == 1;
    const size_t lines = 1 + rng() % 12;
    const size_t fields = 1 + rng() % 10;
    const std::string newline = rng() % 3 == 0 ? "\r\n" : "\n";
    std::string content;
    for (size_t l = 0; l < lines; ++l) {
      if (rng() % 6 == 0) content += "\n";  // skipped empty line
      if (hostile && rng() % 12 == 0) {
        content += RandomSeparator(rng) + newline;  // separators only
      }
      content += RandomLine(rng, 1 + fields, hostile && rng() % 4 == 0);
      if (l + 1 < lines || rng() % 2 == 0) content += newline;
    }
    if (hostile && rng() % 6 == 0) content.resize(rng() % (content.size() + 1));
    ExpectSameAsReference(content);
  }
  for (const std::string& token : SpecialTokens()) {
    for (const std::string& line :
         {token + "\t2.5\t-3", "1\t" + token + "\t-3", "1\t2.5\t" + token}) {
      ExpectSameAsReference("0\t1\t2\n" + line + "\n4\t5\t6\n");
      ExpectSameAsReference("0,1,2\r\n" + line + "\r\n");
    }
  }
  for (const char* content :
       {"", "\n", "\n\n", "\r\n", " \n", "\t\n0\t1\n", "0\t1", "0\t1\n\n",
        "0", "0\n", "nan\t1\n", "0\tnan\n", "0\t1\tnan\tNaN", "\v0\f1\v\n",
        "0\t1\n\r", "0\t1\n \t", "0\t1\r"}) {
    ExpectSameAsReference(content);
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted_, files_ / 4);
  EXPECT_LT(accepted_, files_ * 3 / 4);
}

// A line that straddles the first block boundary at every byte offset,
// for rows that take the fast path, the strtod fallback, NaN padding and a
// failing token, with LF and CRLF endings and with no final newline.
TEST_F(UcrReaderEquivalenceTest, RowsStraddleTheBlockBoundaryAtEveryOffset) {
  const std::vector<std::string> rows = {
      "2\t0.123456789012345678\t-1.5e-7\t42", "1,+3.25,0x1.8p1,1e-400",
      "0\t1.5\t2.5\tNaN\tnan", "3\t1.5\t2.x5\t4", "-1 \f\v 7e1 , 8",
      "nan\t1\t2", std::string("1\t2\0junk\t3", 10)};
  for (const std::string& row : rows) {
    for (const std::string newline : {"\n", "\r\n", ""}) {
      const std::string tail = row + newline;
      for (size_t offset = 0; offset <= tail.size(); ++offset) {
        // Filler rows, then one padded with spaces, end exactly where the
        // row must start: `offset` bytes before the block boundary.
        std::string content;
        const size_t start = kUcrBlockBytes - offset;
        const std::string filler = "0\t0.5\t-0.25\n";
        while (content.size() + filler.size() + 16 < start) content += filler;
        content += "1\t2";
        content += std::string(start - content.size() - 1, ' ');
        content += "\n";
        ASSERT_EQ(content.size(), start);
        content += tail;
        if (!newline.empty()) content += "5\t6\n";
        ExpectSameAsReference(content);
      }
    }
  }
}

// Lines longer than a block: the buffer grows to hold one, and the rows
// around it still parse.
TEST_F(UcrReaderEquivalenceTest, LinesLongerThanTheBlock) {
  std::mt19937_64 rng(307);
  for (const size_t target :
       {kUcrBlockBytes - 1, kUcrBlockBytes, kUcrBlockBytes + 1,
        3 * kUcrBlockBytes + 17}) {
    std::string line = "1";
    while (line.size() + 24 < target) line += "\t" + RandomNumber(rng);
    line += std::string(target - line.size(), ' ');
    ASSERT_EQ(line.size(), target);
    ExpectSameAsReference("0\t1\t2\n" + line + "\n2\t3\t4\n");
    ExpectSameAsReference(line);
    ExpectSameAsReference(line + "\n" + line + "\tx\n");
  }
}

// LoadUcrFile (one pass, labels remapped at the end) builds the Dataset
// the old two-pass load built from the reference reader.
TEST_F(UcrReaderEquivalenceTest, LoadedDatasetMatchesTheOldTwoPassLoad) {
  std::mt19937_64 rng(11);
  std::string content;
  for (int l = 0; l < 200; ++l) {
    content += RandomLine(rng, 2 + rng() % 30, false) + "\n";
  }
  content += "-0\t1\t2\n0\t3\t4\n";  // -0 and 0 share a class
  WriteFile("load.tsv", content);

  std::map<double, int> label_map;
  ASSERT_TRUE(ReferenceForEachUcrRow(
      Path("load.tsv"), [&](double raw, std::span<const double>) {
        label_map.emplace(raw, 0);
        return true;
      }));
  int next = 0;
  for (auto& [raw, dense] : label_map) dense = next++;
  Dataset want;
  ASSERT_TRUE(ReferenceForEachUcrRow(
      Path("load.tsv"), [&](double raw, std::span<const double> values) {
        want.Add(TimeSeries(std::vector<double>(values.begin(), values.end()),
                            label_map.at(raw)));
        return true;
      }));

  const auto got = LoadUcrFile(Path("load.tsv"));
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].label, want[i].label) << "series " << i;
    ASSERT_EQ((*got)[i].values.size(), want[i].values.size());
    for (size_t k = 0; k < want[i].values.size(); ++k) {
      ASSERT_EQ(Bits((*got)[i].values[k]), Bits(want[i].values[k]));
    }
  }
}

}  // namespace
}  // namespace ips
