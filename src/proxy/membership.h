// Fleet membership documents: the file-based control plane between the
// fleet controller and the proxy tier.
//
// The controller (or any operator) writes a small text file describing the
// backing fleet — one consistent-hash slot per primary, plus the off-ring
// backup — and signals the proxy (SIGHUP) to re-read it. The format is
// line-oriented and diff-friendly:
//
//   # spotcache fleet membership v1
//   generation 7
//   backup 127.0.0.1 18000
//   node 0 127.0.0.1 18001
//   node 1 dead
//   node 2 127.0.0.1 18003
//
// `generation` is a monotonically increasing edition number (the proxy
// exposes the last applied generation in its stats, which is how drills
// verify a reload landed). `node <slot> dead` keeps the slot on the ring but
// marks its endpoint unusable — the controller publishes this between a kill
// and the replacement becoming ready, so the proxy trips the slot's breaker
// immediately instead of discovering the corpse one timeout at a time.
//
// Save() writes atomically (temp file + rename) so a reader racing a writer
// always sees a complete document.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/routing/consistent_hash.h"

namespace spotcache::proxy {

/// Where the fleet homes a key: a consistent-hash ring of the membership's
/// slots, weight 1.0 each, looked up by HashString of the key. Dead slots
/// stay on it (their keys degrade, they do not rehash). UpstreamPool routes by
/// it and fleet::MembershipPublisher mirrors it, so both name one owner.
class SlotRing {
 public:
  void Add(uint64_t slot) { ring_.SetNode(slot, 1.0); }
  void Remove(uint64_t slot) { ring_.RemoveNode(slot); }
  /// nullopt on an empty ring.
  std::optional<uint64_t> OwnerOf(std::string_view key) const;

 private:
  ConsistentHashRing ring_;
};

struct MemberNode {
  uint64_t slot = 0;
  /// Empty host means the slot is present but dead (no reachable endpoint).
  std::string host;
  uint16_t port = 0;

  bool dead() const { return host.empty(); }
};

struct FleetMembership {
  uint64_t generation = 0;
  std::optional<MemberNode> backup;  // slot field unused for the backup
  std::vector<MemberNode> nodes;    // sorted by slot after Parse()
};

/// Renders the membership document (trailing newline included).
std::string SerializeMembership(const FleetMembership& m);

/// Parses a membership document. Returns nullopt (with a human-readable
/// reason in *error, if given) on any malformed line — a partially applied
/// fleet view is worse than keeping the previous one.
std::optional<FleetMembership> ParseMembership(const std::string& text,
                                               std::string* error = nullptr);

/// Reads + parses `path`. nullopt when unreadable or malformed.
std::optional<FleetMembership> LoadMembership(const std::string& path,
                                              std::string* error = nullptr);

/// Atomically writes `m` to `path` (temp file in the same directory +
/// rename). Returns false on any I/O failure.
bool SaveMembership(const std::string& path, const FleetMembership& m);

}  // namespace spotcache::proxy
