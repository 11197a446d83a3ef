#include "model/network.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wolt::model {

std::uint64_t Network::NextVersionStamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

double Distance(const Position& a, const Position& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

namespace {
constexpr double kNoRssi = -std::numeric_limits<double>::infinity();
}  // namespace

Network::Network(std::size_t num_users, std::size_t num_extenders)
    : users_(num_users),
      extenders_(num_extenders),
      rates_(num_users * num_extenders, 0.0),
      rssi_(num_users * num_extenders, kNoRssi) {}

void Network::SetWifiRate(std::size_t user, std::size_t extender, double mbps) {
  if (mbps < 0.0) throw std::invalid_argument("negative WiFi rate");
  rates_.at(user * NumExtenders() + extender) = mbps;
  version_ = NextVersionStamp();
}

void Network::SetRssi(std::size_t user, std::size_t extender, double dbm) {
  rssi_.at(user * NumExtenders() + extender) = dbm;
  has_rssi_ = true;
}

double Network::Rssi(std::size_t user, std::size_t extender) const {
  return rssi_.at(user * NumExtenders() + extender);
}

void Network::SetPlcRate(std::size_t extender, double mbps) {
  if (mbps < 0.0) throw std::invalid_argument("negative PLC rate");
  extenders_.at(extender).plc_rate_mbps = mbps;
  version_ = NextVersionStamp();
}

void Network::SetMaxUsers(std::size_t extender, int max_users) {
  extenders_.at(extender).max_users = max_users;
  version_ = NextVersionStamp();
}

void Network::SetPlcDomain(std::size_t extender, int domain) {
  if (domain < 0) throw std::invalid_argument("negative PLC domain");
  extenders_.at(extender).plc_domain = domain;
  version_ = NextVersionStamp();
}

int Network::PlcDomain(std::size_t extender) const {
  return extenders_.at(extender).plc_domain;
}

void Network::SetWifiChannel(std::size_t extender, int channel) {
  if (channel < -1 || channel >= kMaxWifiChannels) {
    throw std::invalid_argument("WiFi channel out of range");
  }
  extenders_.at(extender).wifi_channel = channel;
  version_ = NextVersionStamp();
}

int Network::WifiChannel(std::size_t extender) const {
  return extenders_.at(extender).wifi_channel;
}

void Network::SetUserDemand(std::size_t user, double mbps) {
  if (mbps < 0.0) throw std::invalid_argument("negative demand");
  users_.at(user).demand_mbps = mbps;
  version_ = NextVersionStamp();
}

double Network::UserDemand(std::size_t user) const {
  return users_.at(user).demand_mbps;
}

void Network::SetExtenderPosition(std::size_t extender, Position p) {
  extenders_.at(extender).position = p;
  // Geometry is solver-visible once a channel plan is in play: carrier-sense
  // contention domains are derived from extender distances, and the channel-
  // aware evaluator caches that derivation keyed on Version().
  version_ = NextVersionStamp();
}

void Network::SetUserLabel(std::size_t user, std::string label) {
  users_.at(user).label = std::move(label);
}

void Network::SetExtenderLabel(std::size_t extender, std::string label) {
  extenders_.at(extender).label = std::move(label);
}

double Network::WifiRate(std::size_t user, std::size_t extender) const {
  return rates_.at(user * NumExtenders() + extender);
}

bool Network::CanHear(std::size_t user, int extender) const {
  return extender >= 0 && static_cast<std::size_t>(extender) < NumExtenders() &&
         WifiRate(user, static_cast<std::size_t>(extender)) > 0.0;
}

double Network::PlcRate(std::size_t extender) const {
  return extenders_.at(extender).plc_rate_mbps;
}

int Network::MaxUsers(std::size_t extender) const {
  return extenders_.at(extender).max_users;
}

bool Network::UserReachable(std::size_t user) const {
  for (std::size_t j = 0; j < NumExtenders(); ++j) {
    if (WifiRate(user, j) > 0.0) return true;
  }
  return false;
}

std::optional<std::size_t> Network::BestRateExtender(std::size_t user) const {
  std::optional<std::size_t> best;
  double best_rate = 0.0;
  for (std::size_t j = 0; j < NumExtenders(); ++j) {
    const double r = WifiRate(user, j);
    if (r > best_rate) {
      best_rate = r;
      best = j;
    }
  }
  return best;
}

std::optional<std::size_t> Network::BestRssiExtender(std::size_t user) const {
  if (!has_rssi_) return BestRateExtender(user);
  std::optional<std::size_t> best;
  double best_rssi = kNoRssi;
  for (std::size_t j = 0; j < NumExtenders(); ++j) {
    if (WifiRate(user, j) <= 0.0) continue;
    const double r = Rssi(user, j);
    if (!best || r > best_rssi) {
      best_rssi = r;
      best = j;
    }
  }
  return best;
}

std::size_t Network::AddUser(const User& user,
                             const std::vector<double>& rates) {
  if (rates.size() != NumExtenders()) {
    throw std::invalid_argument("rate row size != number of extenders");
  }
  users_.push_back(user);
  rates_.insert(rates_.end(), rates.begin(), rates.end());
  rssi_.insert(rssi_.end(), NumExtenders(), kNoRssi);
  version_ = NextVersionStamp();
  return users_.size() - 1;
}

void Network::RemoveUser(std::size_t user) {
  if (user >= NumUsers()) throw std::out_of_range("user index");
  const auto row = rates_.begin() +
                   static_cast<std::ptrdiff_t>(user * NumExtenders());
  rates_.erase(row, row + static_cast<std::ptrdiff_t>(NumExtenders()));
  const auto rssi_row = rssi_.begin() +
                        static_cast<std::ptrdiff_t>(user * NumExtenders());
  rssi_.erase(rssi_row, rssi_row + static_cast<std::ptrdiff_t>(NumExtenders()));
  users_.erase(users_.begin() + static_cast<std::ptrdiff_t>(user));
  version_ = NextVersionStamp();
}

}  // namespace wolt::model
