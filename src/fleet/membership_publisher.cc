#include "src/fleet/membership_publisher.h"

#include <algorithm>

namespace spotcache::fleet {

MembershipPublisher::MembershipPublisher(std::string path,
                                         std::function<void()> notify)
    : path_(std::move(path)), notify_(std::move(notify)) {}

proxy::MemberNode* MembershipPublisher::NodeLocked(uint64_t slot) {
  for (proxy::MemberNode& n : membership_.nodes) {
    if (n.slot == slot) {
      return &n;
    }
  }
  proxy::MemberNode node;
  node.slot = slot;
  membership_.nodes.push_back(node);
  std::sort(membership_.nodes.begin(), membership_.nodes.end(),
            [](const proxy::MemberNode& a, const proxy::MemberNode& b) {
              return a.slot < b.slot;
            });
  ring_.Add(slot);
  return NodeLocked(slot);
}

void MembershipPublisher::PublishLocked() {
  ++membership_.generation;
  save_failed_ = !proxy::SaveMembership(path_, membership_);
  if (!save_failed_ && notify_) {
    notify_();
  }
}

void MembershipPublisher::SetNode(uint64_t slot, const std::string& host,
                                  uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  proxy::MemberNode* node = NodeLocked(slot);
  node->host = host;
  node->port = port;
  PublishLocked();
}

void MembershipPublisher::SetBackup(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  proxy::MemberNode backup;
  backup.host = host;
  backup.port = port;
  membership_.backup = backup;
  PublishLocked();
}

void MembershipPublisher::MarkDead(uint64_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  proxy::MemberNode* node = NodeLocked(slot);
  node->host.clear();
  node->port = 0;
  PublishLocked();
}

std::optional<uint64_t> MembershipPublisher::OwnerOf(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.OwnerOf(key);
}

proxy::FleetMembership MembershipPublisher::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return membership_;
}

uint64_t MembershipPublisher::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return membership_.generation;
}

bool MembershipPublisher::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !save_failed_;
}

}  // namespace spotcache::fleet
