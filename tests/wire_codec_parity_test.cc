// Codec parity: the wire decoders and encoders in core/controller.cc parse
// with std::from_chars and format with std::to_chars. This suite keeps the
// istringstream/stod/stoll parsers and the snprintf("%g") formatter they
// replaced as an oracle, and requires the two to agree on every input:
//   * all five decoders accept exactly the same lines and decode them to
//     bitwise-equal messages, over >100k generated lines (byte soup,
//     keyword soup, fault-plane mutations of valid messages, whitespace
//     variants and numeric edge cases in every numeric field);
//   * Encode writes the oracle's bytes for every decoded message;
//   * to_chars(general, 6) writes printf's %g for >1M random doubles,
//     subnormals, signed zeros, infinities and NaNs included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "fault/plane.h"
#include "util/rng.h"

namespace wolt::core {
namespace {

// --- The oracle: the stream-based codec the charconv one replaced --------
namespace legacy {

std::string G(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

std::string JoinDoubles(const std::vector<double>& xs) {
  std::string out;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k) out += ',';
    out += G(xs[k]);
  }
  return out;
}

std::optional<double> ParseDouble(const std::string& s) {
  if (s.empty() ||
      s.find_first_not_of("0123456789.+-eE") != std::string::npos) {
    return std::nullopt;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(s, &consumed);
    if (consumed != s.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::int64_t> ParseInt64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(s, &consumed);
    if (consumed != s.size()) return std::nullopt;
    return static_cast<std::int64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<int> ParseInt(const std::string& s) {
  const auto wide = ParseInt64(s);
  if (!wide || *wide < std::numeric_limits<int>::min() ||
      *wide > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*wide);
}

std::optional<std::vector<double>> ParseDoubles(const std::string& csv) {
  if (!csv.empty() && csv.back() == ',') return std::nullopt;
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto value = ParseDouble(item);
    if (!value) return std::nullopt;
    out.push_back(*value);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

using FieldMap = std::unordered_map<std::string, std::string>;

std::optional<FieldMap> ParseFields(const std::string& line,
                                    const std::string& expected_type) {
  std::istringstream in(line);
  std::string type;
  if (!(in >> type) || type != expected_type) return std::nullopt;
  FieldMap fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    if (!fields.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return std::nullopt;
    }
  }
  return fields;
}

bool OnlyKeys(const FieldMap& fields,
              std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : fields) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) return false;
  }
  return true;
}

bool AllNonNegative(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x >= 0.0; });
}

std::string Encode(const ScanReport& msg) {
  std::string out = "SCAN user=" + std::to_string(msg.user_id) +
                    " rates=" + JoinDoubles(msg.rates_mbps);
  if (!msg.rssi_dbm.empty()) out += " rssi=" + JoinDoubles(msg.rssi_dbm);
  if (msg.associated_extender) {
    out += " assoc=" + std::to_string(*msg.associated_extender);
  }
  if (msg.demand_mbps) out += " demand=" + G(*msg.demand_mbps);
  return out;
}
std::string Encode(const AssociationDirective& msg) {
  return "DIRECTIVE user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}
std::string Encode(const DirectiveAck& msg) {
  return "ACK user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}
std::string Encode(const DepartureNotice& msg) {
  return "DEPART user=" + std::to_string(msg.user_id);
}
std::string Encode(const CapacityReport& msg) {
  return "CAPACITY extender=" + std::to_string(msg.extender) +
         " mbps=" + G(msg.capacity_mbps);
}

std::optional<ScanReport> DecodeScanReport(const std::string& line) {
  const auto fields = ParseFields(line, "SCAN");
  if (!fields || !fields->count("user") || !fields->count("rates") ||
      !OnlyKeys(*fields, {"user", "rates", "rssi", "assoc", "demand"})) {
    return std::nullopt;
  }
  ScanReport msg;
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  msg.user_id = *user;
  const auto rates = ParseDoubles(fields->at("rates"));
  if (!rates || !AllNonNegative(*rates)) return std::nullopt;
  msg.rates_mbps = *rates;
  if (fields->count("rssi")) {
    const auto rssi = ParseDoubles(fields->at("rssi"));
    if (!rssi || rssi->size() != msg.rates_mbps.size()) return std::nullopt;
    msg.rssi_dbm = *rssi;
  }
  if (fields->count("assoc")) {
    const auto assoc = ParseInt(fields->at("assoc"));
    if (!assoc || *assoc < -1) return std::nullopt;
    msg.associated_extender = *assoc;
  }
  if (fields->count("demand")) {
    const auto demand = ParseDouble(fields->at("demand"));
    if (!demand || *demand < 0.0) return std::nullopt;
    msg.demand_mbps = *demand;
  }
  return msg;
}

std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line) {
  const auto fields = ParseFields(line, "DIRECTIVE");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return AssociationDirective{*user, *extender};
}

std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line) {
  const auto fields = ParseFields(line, "ACK");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return DirectiveAck{*user, *extender};
}

std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line) {
  const auto fields = ParseFields(line, "DEPART");
  if (!fields || !fields->count("user") || !OnlyKeys(*fields, {"user"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  return DepartureNotice{*user};
}

std::optional<CapacityReport> DecodeCapacityReport(const std::string& line) {
  const auto fields = ParseFields(line, "CAPACITY");
  if (!fields || !fields->count("extender") || !fields->count("mbps") ||
      !OnlyKeys(*fields, {"extender", "mbps"})) {
    return std::nullopt;
  }
  const auto extender = ParseInt(fields->at("extender"));
  const auto mbps = ParseDouble(fields->at("mbps"));
  if (!extender || *extender < 0 || !mbps || *mbps < 0.0) return std::nullopt;
  return CapacityReport{*extender, *mbps};
}

}  // namespace legacy

// --- Bitwise comparison ---------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!SameBits(a[k], b[k])) return false;
  }
  return true;
}

bool SameBits(const ScanReport& a, const ScanReport& b) {
  return a.user_id == b.user_id && SameBits(a.rates_mbps, b.rates_mbps) &&
         SameBits(a.rssi_dbm, b.rssi_dbm) &&
         a.associated_extender == b.associated_extender &&
         a.demand_mbps.has_value() == b.demand_mbps.has_value() &&
         (!a.demand_mbps || SameBits(*a.demand_mbps, *b.demand_mbps));
}
bool SameBits(const AssociationDirective& a, const AssociationDirective& b) {
  return a.user_id == b.user_id && a.extender == b.extender;
}
bool SameBits(const DirectiveAck& a, const DirectiveAck& b) {
  return a.user_id == b.user_id && a.extender == b.extender;
}
bool SameBits(const DepartureNotice& a, const DepartureNotice& b) {
  return a.user_id == b.user_id;
}
bool SameBits(const CapacityReport& a, const CapacityReport& b) {
  return a.extender == b.extender &&
         SameBits(a.capacity_mbps, b.capacity_mbps);
}

// One decoder against its oracle: same verdict, same bits, and the
// decoded message re-encodes to the oracle's bytes.
template <typename Msg>
void ExpectSame(const std::string& line, const std::optional<Msg>& got,
                const std::optional<Msg>& want, const char* what,
                std::size_t* accepted) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what << ": " << line;
  if (!got) return;
  ++*accepted;
  EXPECT_TRUE(SameBits(*got, *want)) << what << ": " << line;
  EXPECT_EQ(Encode(*got), legacy::Encode(*want)) << what << ": " << line;
}

struct Tally {
  std::size_t lines = 0;
  std::size_t accepted = 0;
};

void CheckLine(const std::string& line, Tally* tally) {
  ++tally->lines;
  ExpectSame(line, DecodeScanReport(line), legacy::DecodeScanReport(line),
             "SCAN", &tally->accepted);
  ExpectSame(line, DecodeAssociationDirective(line),
             legacy::DecodeAssociationDirective(line), "DIRECTIVE",
             &tally->accepted);
  ExpectSame(line, DecodeDirectiveAck(line), legacy::DecodeDirectiveAck(line),
             "ACK", &tally->accepted);
  ExpectSame(line, DecodeDepartureNotice(line),
             legacy::DecodeDepartureNotice(line), "DEPART", &tally->accepted);
  ExpectSame(line, DecodeCapacityReport(line),
             legacy::DecodeCapacityReport(line), "CAPACITY",
             &tally->accepted);
}

// --- Generators -------------------------------------------------------------

template <typename T>
const T& Pick(util::Rng& rng, const std::vector<T>& xs) {
  return xs[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int>(xs.size()) - 1))];
}

const std::vector<std::string> kNumericEdgeCases = {
    "+5", "+-5", ".5", "5.", "1e", "1e+", "1.8e308",
    "1.7976931348623158e308", "4e-324", "1e-320", "2.2250738585072012e-308",
    "2.2250738585072014e-308", "0e-400", "9223372036854775808",
    "-2147483649", "0x10", "inf", "nan",
    // Neighbours of the above.
    "-0", "+0", "-0.0", "0", "00012", "-.5", "+.5", ".", "+", "-", "e5",
    "1e5e5", "1..2", "--5", "++5", "+e5", "1e-400", "2e-324", "3e-324",
    "-1e-400", "1e+308", "1E-5", "2.2250738585072011e-308",
    "2.2250738585072013e-308", "-2.2250738585072012e-308",
    "-2.2250738585072014e-308", "4.9406564584124654e-324",
    "1e99999999999999999999", "1e-99999999999999999999",
    "0e99999999999999999", "00000000000000000000000000000001e-330",
    "9223372036854775807", "-9223372036854775808", "-9223372036854775809",
    "2147483647", "2147483648", "-2147483648", "+2147483647", "-1", "+-1",
    "0.1", "12345678901234567890123", "1.00000000000000011102230246251565e0",
};

// Random numeric-looking tokens: mostly the whitelist alphabet.
std::string NumericSoup(util::Rng& rng) {
  static const std::string alphabet = "0123456789.+-eE";
  std::string s;
  const int len = rng.UniformInt(0, 12);
  for (int k = 0; k < len; ++k) {
    s.push_back(alphabet[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1))]);
  }
  return s;
}

std::string RandomDoubleText(util::Rng& rng) {
  char buf[64];
  switch (rng.UniformInt(0, 3)) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%.17g", rng.Uniform(-100.0, 100.0));
      break;
    case 1:
      std::snprintf(buf, sizeof(buf), "%g", rng.Uniform(0.0, 1000.0));
      break;
    case 2: {
      const double x = std::bit_cast<double>(rng.Next());
      std::snprintf(buf, sizeof(buf), "%.17g", x);
      break;
    }
    default:
      std::snprintf(buf, sizeof(buf), "%.3e",
                    std::ldexp(rng.Uniform(1.0, 2.0),
                               rng.UniformInt(-1080, 1030)));
      break;
  }
  return buf;
}

// The numeric slots of every message type, with `v` in one of them.
std::vector<std::string> Slots(const std::string& v) {
  return {
      "SCAN user=" + v + " rates=1",
      "SCAN user=1 rates=" + v,
      "SCAN user=1 rates=" + v + ",2",
      "SCAN user=1 rates=2," + v + " rssi=-50," + v,
      "SCAN user=1 rates=1 rssi=" + v,
      "SCAN user=1 rates=1 assoc=" + v,
      "SCAN user=1 rates=1 demand=" + v,
      "DIRECTIVE user=" + v + " extender=1",
      "DIRECTIVE user=1 extender=" + v,
      "ACK user=" + v + " extender=1",
      "ACK user=1 extender=" + v,
      "DEPART user=" + v,
      "CAPACITY extender=" + v + " mbps=1",
      "CAPACITY extender=1 mbps=" + v,
  };
}

ScanReport RandomScan(util::Rng& rng) {
  ScanReport scan;
  scan.user_id = rng.UniformInt(-5, 1 << 30);
  const int n = rng.UniformInt(1, 30);
  for (int j = 0; j < n; ++j) {
    scan.rates_mbps.push_back(rng.Bernoulli(0.3) ? 0.0
                                                 : rng.Uniform(0.0, 600.0));
  }
  if (rng.Bernoulli(0.5)) {
    for (int j = 0; j < n; ++j) {
      scan.rssi_dbm.push_back(rng.Uniform(-95.0, -20.0));
    }
  }
  if (rng.Bernoulli(0.5)) scan.associated_extender = rng.UniformInt(-1, n - 1);
  if (rng.Bernoulli(0.5)) scan.demand_mbps = rng.Uniform(0.0, 5.0);
  return scan;
}

std::vector<std::string> ValidLines(util::Rng& rng) {
  return {
      legacy::Encode(RandomScan(rng)),
      legacy::Encode(AssociationDirective{rng.UniformInt(0, 1 << 30),
                                          rng.UniformInt(0, 40)}),
      legacy::Encode(DirectiveAck{rng.UniformInt(0, 1 << 30),
                                  rng.UniformInt(0, 40)}),
      legacy::Encode(DepartureNotice{rng.UniformInt(0, 1 << 30)}),
      legacy::Encode(CapacityReport{rng.UniformInt(0, 40),
                                    rng.Uniform(0.0, 500.0)}),
  };
}

// Re-spaces a valid line: runs of every byte operator>> treats as space in
// the C locale, at the ends and between tokens.
std::string Respace(util::Rng& rng, const std::string& line) {
  static const std::vector<std::string> gaps = {" ", "  ", "\t", "\n", "\v",
                                                "\f", "\r", " \t\r\n"};
  std::string out = rng.Bernoulli(0.5) ? Pick(rng, gaps) : "";
  for (char c : line) {
    if (c == ' ') {
      out += Pick(rng, gaps);
    } else {
      out.push_back(c);
    }
  }
  if (rng.Bernoulli(0.5)) out += Pick(rng, gaps);
  return out;
}

TEST(WireCodecParityTest, NamedNumericEdgeCasesInEveryField) {
  Tally tally;
  for (const std::string& v : kNumericEdgeCases) {
    for (const std::string& line : Slots(v)) CheckLine(line, &tally);
  }
  // Spot checks of the two parity rules on their own.
  EXPECT_TRUE(DecodeCapacityReport("CAPACITY extender=+1 mbps=+5"));
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=1 mbps=+-5"));
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=1 mbps=4e-324"));
  EXPECT_FALSE(DecodeCapacityReport(
      "CAPACITY extender=1 mbps=2.2250738585072012e-308"));
  EXPECT_TRUE(DecodeCapacityReport(
      "CAPACITY extender=1 mbps=2.2250738585072014e-308"));
  EXPECT_TRUE(DecodeCapacityReport("CAPACITY extender=1 mbps=0e-400"));
  EXPECT_GT(tally.accepted, 0u);
}

TEST(WireCodecParityTest, HundredThousandGeneratedLines) {
  Tally tally;
  util::Rng rng(0x9A217);

  // Byte soup.
  for (int iter = 0; iter < 25000; ++iter) {
    std::string line;
    const int len = rng.UniformInt(0, 80);
    for (int k = 0; k < len; ++k) {
      line.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    CheckLine(line, &tally);
  }

  // Keyword soup: a real verb, then the wire's own alphabet.
  const std::vector<std::string> verbs = {"SCAN ", "DIRECTIVE ", "ACK ",
                                          "DEPART ", "CAPACITY "};
  const std::string alphabet = "0123456789.,-+eE= usratexndbmcifALN\t";
  for (int iter = 0; iter < 25000; ++iter) {
    std::string line = Pick(rng, verbs);
    const int len = rng.UniformInt(0, 60);
    for (int k = 0; k < len; ++k) {
      line.push_back(alphabet[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1))]);
    }
    CheckLine(line, &tally);
  }

  // Valid messages mangled by the fault plane's corruptor, and re-spaced.
  fault::FaultPlaneParams params;
  for (auto& w : params.per_class) w.corrupt = 1.0;
  fault::FaultPlane plane(params, /*seed=*/11);
  for (int iter = 0; iter < 5000; ++iter) {
    for (const std::string& valid : ValidLines(rng)) {
      CheckLine(valid, &tally);
      CheckLine(Respace(rng, valid), &tally);
      for (const auto& d :
           plane.Transmit(fault::MessageClass::kScan, valid)) {
        CheckLine(d.bytes, &tally);
      }
    }
  }

  // Numeric tokens in every numeric slot: whitelist soup and printed
  // doubles across the whole exponent range.
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string v =
        rng.Bernoulli(0.5) ? NumericSoup(rng) : RandomDoubleText(rng);
    for (const std::string& line : Slots(v)) CheckLine(line, &tally);
  }

  EXPECT_GE(tally.lines, 100000u);
  // Not vacuous: a good share of the lines decode.
  EXPECT_GE(tally.accepted, 25000u);
}

TEST(WireCodecParityTest, ToCharsMatchesPercentGOnAMillionDoubles) {
  util::Rng rng(0x6F6F);
  std::vector<double> specials = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.0001,
      0.00001,
      999999.5,
      1e6,
      9.999995e-5,
      123456.5,
  };
  std::size_t mismatches = 0;
  const auto check = [&](double x) {
    const std::string got = Encode(CapacityReport{0, x});
    const std::string want = legacy::Encode(CapacityReport{0, x});
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << x << ": " << got << " vs " << want;
    }
  };
  for (double x : specials) check(x);
  for (int iter = 0; iter < 1000000; ++iter) {
    double x = 0.0;
    switch (iter % 4) {
      case 0:  // any bit pattern: every exponent, subnormals, NaN payloads
        x = std::bit_cast<double>(rng.Next());
        break;
      case 1:  // subnormals
        x = std::bit_cast<double>(rng.Next() & 0x800FFFFFFFFFFFFFull);
        break;
      case 2:  // wire-scale values
        x = rng.Uniform(-120.0, 1200.0);
        break;
      default:  // near six-digit rounding ties
        x = (std::round(rng.Uniform(1e5, 1e6)) + 0.5) *
            std::pow(10.0, rng.UniformInt(-12, 12));
        break;
    }
    check(x);
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace wolt::core
