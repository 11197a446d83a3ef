#include "model/io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/fileio.h"

namespace wolt::model {
namespace {

constexpr int kFormatVersion = 1;

void EmitDouble(std::ostream& out, double v) {
  // %.17g round-trips doubles exactly.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

std::optional<double> ParseDouble(const std::string& s) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    // Reject every non-finite value ("nan", "inf", "infinity", ...): a
    // single infinite rate or load silently poisons the Evaluator's
    // aggregates, so malformed input must die here with a typed IoError.
    if (consumed != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::vector<double>> ParseDoubleList(const std::string& csv) {
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto v = ParseDouble(item);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

// Parses "key=value" tokens from the remainder of a line.
std::optional<std::unordered_map<std::string, std::string>> ParseKv(
    std::istringstream& in) {
  std::unordered_map<std::string, std::string> kv;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

}  // namespace

void SaveNetwork(const Network& net, std::ostream& out) {
  out << "wolt-network " << kFormatVersion << "\n";
  out << "extenders " << net.NumExtenders() << "\n";
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    const Extender& e = net.ExtenderAt(j);
    out << "extender " << j << " plc=";
    EmitDouble(out, e.plc_rate_mbps);
    out << " x=";
    EmitDouble(out, e.position.x);
    out << " y=";
    EmitDouble(out, e.position.y);
    out << " max_users=" << e.max_users;
    if (e.plc_domain != 0) out << " domain=" << e.plc_domain;
    if (e.wifi_channel >= 0) out << " channel=" << e.wifi_channel;
    if (!e.label.empty()) out << " label=" << e.label;
    out << "\n";
  }
  out << "users " << net.NumUsers() << "\n";
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    const User& u = net.UserAt(i);
    out << "user " << i << " x=";
    EmitDouble(out, u.position.x);
    out << " y=";
    EmitDouble(out, u.position.y);
    out << " demand=";
    EmitDouble(out, u.demand_mbps);
    if (!u.label.empty()) out << " label=" << u.label;
    out << "\n";
  }
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    out << "rates " << i << " ";
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (j) out << ',';
      EmitDouble(out, net.WifiRate(i, j));
    }
    out << "\n";
  }
  if (net.HasRssi()) {
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      out << "rssi " << i << " ";
      for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
        if (j) out << ',';
        EmitDouble(out, net.Rssi(i, j));
      }
      out << "\n";
    }
  }
}

const char* ToString(IoErrorKind kind) {
  switch (kind) {
    case IoErrorKind::kNone:
      return "none";
    case IoErrorKind::kTruncated:
      return "truncated";
    case IoErrorKind::kBadHeader:
      return "bad-header";
    case IoErrorKind::kBadCount:
      return "bad-count";
    case IoErrorKind::kBadRecord:
      return "bad-record";
    case IoErrorKind::kBadKeyValue:
      return "bad-key-value";
    case IoErrorKind::kBadNumber:
      return "bad-number";
    case IoErrorKind::kBadDimension:
      return "bad-dimension";
    case IoErrorKind::kTrailingInput:
      return "trailing-input";
    case IoErrorKind::kBadChannel:
      return "bad-channel";
  }
  return "?";
}

LoadResult LoadNetworkDetailed(std::istream& in) {
  std::string line;
  int line_number = 0;

  // Advances to the next non-blank, non-comment line. Returns false at EOF.
  const auto next_line = [&](std::istringstream& parsed) {
    while (std::getline(in, line)) {
      ++line_number;
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      parsed.clear();
      parsed.str(line);
      return true;
    }
    return false;
  };
  const auto fail = [&](IoErrorKind kind, std::string message) {
    LoadResult res;
    res.error = {kind, line_number, std::move(message)};
    return res;
  };

  std::istringstream ls;
  std::string word;
  int version = 0;
  if (!next_line(ls)) return fail(IoErrorKind::kTruncated, "empty input");
  if (!(ls >> word >> version) || word != "wolt-network") {
    return fail(IoErrorKind::kBadHeader, "expected 'wolt-network <version>'");
  }
  if (version != kFormatVersion) {
    return fail(IoErrorKind::kBadHeader,
                "unsupported format version " + std::to_string(version));
  }

  std::size_t num_extenders = 0;
  if (!next_line(ls)) {
    return fail(IoErrorKind::kTruncated, "missing extenders section");
  }
  if (!(ls >> word >> num_extenders) || word != "extenders" ||
      num_extenders == 0) {
    return fail(IoErrorKind::kBadCount, "expected 'extenders <n>' with n > 0");
  }

  Network net(0, num_extenders);
  for (std::size_t j = 0; j < num_extenders; ++j) {
    std::size_t index = 0;
    if (!next_line(ls)) {
      return fail(IoErrorKind::kTruncated, "missing extender record");
    }
    if (!(ls >> word >> index) || word != "extender" || index != j) {
      return fail(IoErrorKind::kBadRecord,
                  "expected 'extender " + std::to_string(j) + " ...'");
    }
    const auto kv = ParseKv(ls);
    if (!kv) {
      return fail(IoErrorKind::kBadKeyValue, "malformed key=value token");
    }
    if (!kv->count("plc") || !kv->count("x") || !kv->count("y")) {
      return fail(IoErrorKind::kBadKeyValue,
                  "extender record needs plc=, x=, y=");
    }
    const auto plc = ParseDouble(kv->at("plc"));
    const auto x = ParseDouble(kv->at("x"));
    const auto y = ParseDouble(kv->at("y"));
    if (!plc || *plc < 0.0 || !x || !y) {
      return fail(IoErrorKind::kBadNumber,
                  "extender plc/x/y must be numbers with plc >= 0");
    }
    net.SetPlcRate(j, *plc);
    net.SetExtenderPosition(j, {*x, *y});
    if (kv->count("max_users")) {
      const auto mu = ParseDouble(kv->at("max_users"));
      if (!mu || *mu < 0.0) {
        return fail(IoErrorKind::kBadNumber, "max_users must be >= 0");
      }
      net.SetMaxUsers(j, static_cast<int>(*mu));
    }
    if (kv->count("domain")) {
      const auto dom = ParseDouble(kv->at("domain"));
      if (!dom || *dom < 0.0) {
        return fail(IoErrorKind::kBadNumber, "domain must be >= 0");
      }
      net.SetPlcDomain(j, static_cast<int>(*dom));
    }
    if (kv->count("channel")) {
      // A pinned channel must be a whole number inside the plan range; -1
      // (unplanned) is deliberately not serialized, so it is rejected too.
      const auto ch = ParseDouble(kv->at("channel"));
      if (!ch || *ch != std::floor(*ch) || *ch < 0.0 ||
          *ch >= static_cast<double>(kMaxWifiChannels)) {
        return fail(IoErrorKind::kBadChannel,
                    "channel must be an integer in [0, " +
                        std::to_string(kMaxWifiChannels) + ")");
      }
      net.SetWifiChannel(j, static_cast<int>(*ch));
    }
    if (kv->count("label")) net.SetExtenderLabel(j, kv->at("label"));
  }

  std::size_t num_users = 0;
  if (!next_line(ls)) {
    return fail(IoErrorKind::kTruncated, "missing users section");
  }
  if (!(ls >> word >> num_users) || word != "users") {
    return fail(IoErrorKind::kBadCount, "expected 'users <n>'");
  }

  std::vector<User> users(num_users);
  for (std::size_t i = 0; i < num_users; ++i) {
    std::size_t index = 0;
    if (!next_line(ls)) {
      return fail(IoErrorKind::kTruncated, "missing user record");
    }
    if (!(ls >> word >> index) || word != "user" || index != i) {
      return fail(IoErrorKind::kBadRecord,
                  "expected 'user " + std::to_string(i) + " ...'");
    }
    const auto kv = ParseKv(ls);
    if (!kv) {
      return fail(IoErrorKind::kBadKeyValue, "malformed key=value token");
    }
    if (!kv->count("x") || !kv->count("y") || !kv->count("demand")) {
      return fail(IoErrorKind::kBadKeyValue,
                  "user record needs x=, y=, demand=");
    }
    const auto x = ParseDouble(kv->at("x"));
    const auto y = ParseDouble(kv->at("y"));
    const auto demand = ParseDouble(kv->at("demand"));
    if (!x || !y || !demand || *demand < 0.0) {
      return fail(IoErrorKind::kBadNumber,
                  "user x/y/demand must be numbers with demand >= 0");
    }
    users[i].position = {*x, *y};
    users[i].demand_mbps = *demand;
    if (kv->count("label")) users[i].label = kv->at("label");
  }

  for (std::size_t i = 0; i < num_users; ++i) {
    std::size_t index = 0;
    std::string csv;
    if (!next_line(ls)) {
      return fail(IoErrorKind::kTruncated, "missing rates row");
    }
    if (!(ls >> word >> index >> csv) || word != "rates" || index != i) {
      return fail(IoErrorKind::kBadRecord,
                  "expected 'rates " + std::to_string(i) + " <row>'");
    }
    const auto rates = ParseDoubleList(csv);
    if (!rates) return fail(IoErrorKind::kBadNumber, "unparsable rate");
    if (rates->size() != num_extenders) {
      return fail(IoErrorKind::kBadDimension,
                  "rates row has " + std::to_string(rates->size()) +
                      " entries, expected " + std::to_string(num_extenders));
    }
    for (double r : *rates) {
      if (r < 0.0) return fail(IoErrorKind::kBadNumber, "negative rate");
    }
    net.AddUser(users[i], *rates);
  }

  // Optional RSSI block.
  bool saw_rssi = false;
  for (std::size_t i = 0; i < num_users; ++i) {
    std::size_t index = 0;
    std::string csv;
    if (!next_line(ls)) {
      if (i == 0) break;  // no RSSI block at all
      return fail(IoErrorKind::kTruncated, "partial rssi block");
    }
    if (!(ls >> word >> index >> csv) || word != "rssi" || index != i) {
      if (i == 0 && word != "rssi") {
        return fail(IoErrorKind::kTrailingInput,
                    "unexpected input after rates rows");
      }
      return fail(IoErrorKind::kBadRecord,
                  "expected 'rssi " + std::to_string(i) + " <row>'");
    }
    saw_rssi = true;
    const auto rssi = ParseDoubleList(csv);
    if (!rssi) return fail(IoErrorKind::kBadNumber, "unparsable rssi");
    if (rssi->size() != num_extenders) {
      return fail(IoErrorKind::kBadDimension,
                  "rssi row has " + std::to_string(rssi->size()) +
                      " entries, expected " + std::to_string(num_extenders));
    }
    for (std::size_t j = 0; j < num_extenders; ++j) {
      net.SetRssi(i, j, (*rssi)[j]);
    }
  }
  // When the rssi loop consumed the stream to EOF itself (no-rssi files with
  // users), there is nothing left to check; otherwise reject trailing input.
  if (saw_rssi || num_users == 0) {
    std::istringstream extra;
    if (next_line(extra)) {
      return fail(IoErrorKind::kTrailingInput,
                  "unexpected input after the network definition");
    }
  }

  LoadResult res;
  res.network = std::move(net);
  return res;
}

std::optional<Network> LoadNetwork(std::istream& in) {
  return LoadNetworkDetailed(in).network;
}

bool SaveNetworkFile(const Network& net, const std::string& path) {
  const wolt::io::IoStatus st = util::WriteFileAtomic(path, NetworkToString(net));
  wolt::io::CountWriteError(st, path);
  return st.ok();
}

std::optional<Network> LoadNetworkFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return LoadNetwork(in);
}

std::string NetworkToString(const Network& net) {
  std::ostringstream out;
  SaveNetwork(net, out);
  return out.str();
}

std::optional<Network> NetworkFromString(const std::string& text) {
  std::istringstream in(text);
  return LoadNetwork(in);
}

LoadResult NetworkFromStringDetailed(const std::string& text) {
  std::istringstream in(text);
  return LoadNetworkDetailed(in);
}

}  // namespace wolt::model
