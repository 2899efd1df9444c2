// Binary radix trie keyed by IPv4 prefixes, supporting longest-prefix match.
//
// This is the lookup structure behind IP-to-AS mapping (Appendix A) and the
// per-VP "most specific prefix" selection of §4.1.1. The trie is a plain
// (uncompressed) binary trie over at most 32 levels; nodes are stored in a
// contiguous arena with index links, which keeps memory local and avoids
// pointer ownership concerns entirely.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/prefix.h"

namespace rrr {

template <typename Value>
class RadixTrie {
 public:
  RadixTrie() { nodes_.push_back(Node{}); }

  // Inserts or overwrites the value at `prefix`.
  void insert(const Prefix& prefix, Value value) {
    std::uint32_t index = walk_to(prefix, /*create=*/true);
    Node& node = nodes_[index];
    if (!node.has_value) ++size_;
    node.has_value = true;
    node.value = std::move(value);
  }

  // Removes the value at exactly `prefix`. Returns whether a value existed.
  bool erase(const Prefix& prefix) {
    std::uint32_t index = walk_to(prefix, /*create=*/false);
    if (index == kInvalid || !nodes_[index].has_value) return false;
    nodes_[index].has_value = false;
    --size_;
    return true;
  }

  // Exact-match lookup.
  const Value* find(const Prefix& prefix) const {
    std::uint32_t index = walk_to(prefix, /*create=*/false);
    if (index == kInvalid || !nodes_[index].has_value) return nullptr;
    return &nodes_[index].value;
  }

  // Longest-prefix match for `ip`; nullptr when no covering prefix exists.
  const Value* lookup(Ipv4 ip) const {
    const Value* best = nullptr;
    std::uint32_t index = 0;
    std::uint32_t bits = ip.value();
    for (int depth = 0;; ++depth) {
      const Node& node = nodes_[index];
      if (node.has_value) best = &node.value;
      if (depth == 32) break;
      bool bit = (bits >> (31 - depth)) & 1u;
      std::uint32_t next = bit ? node.one : node.zero;
      if (next == kInvalid) break;
      index = next;
    }
    return best;
  }

  // Visits every (prefix, value) pair in lexicographic order of prefixes.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for_each_from(0, 0u, 0, visit);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  struct Node {
    std::uint32_t zero = kInvalid;
    std::uint32_t one = kInvalid;
    bool has_value = false;
    Value value{};
  };

  std::uint32_t walk_to(const Prefix& prefix, bool create) {
    std::uint32_t index = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      bool bit = (bits >> (31 - depth)) & 1u;
      std::uint32_t next = bit ? nodes_[index].one : nodes_[index].zero;
      if (next == kInvalid) {
        if (!create) return kInvalid;
        next = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});
        // nodes_ may have reallocated: re-index.
        (bit ? nodes_[index].one : nodes_[index].zero) = next;
      }
      index = next;
    }
    return index;
  }

  std::uint32_t walk_to(const Prefix& prefix, bool create) const {
    // const overload never creates.
    (void)create;
    std::uint32_t index = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      bool bit = (bits >> (31 - depth)) & 1u;
      std::uint32_t next = bit ? nodes_[index].one : nodes_[index].zero;
      if (next == kInvalid) return kInvalid;
      index = next;
    }
    return index;
  }

  template <typename Visitor>
  void for_each_from(std::uint32_t index, std::uint32_t bits, int depth,
                     Visitor& visit) const {
    const Node& node = nodes_[index];
    if (node.has_value) {
      visit(Prefix(Ipv4(bits), static_cast<std::uint8_t>(depth)), node.value);
    }
    if (depth == 32) return;
    if (node.zero != kInvalid) {
      for_each_from(node.zero, bits, depth + 1, visit);
    }
    if (node.one != kInvalid) {
      for_each_from(node.one, bits | (1u << (31 - depth)), depth + 1, visit);
    }
  }

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

}  // namespace rrr
