// ChunkTrie: the compact node store under both prefix tries — the
// per-instance PrefixIndex and the router's per-instance AffinityMirror.
//
// Every edge of a prefix trie is one fixed-length chunk of token ids (one
// cache block's worth). A chunk costs its own tokens plus about 50 B of
// node and table, with no per-chunk heap allocation:
//
//   - nodes live in one vector, addressed by a 32-bit NodeId (the root is
//     id 0); erased ids are recycled through an intrusive free list;
//   - chunk tokens live in one flat arena, node id i at [i*L, (i+1)*L);
//   - a child is found through one open-addressing table (linear probing,
//     backward-shift deletion) keyed by (parent id, chunk hash). The table
//     holds only node ids: a probe matches when the node's parent and
//     stored hash agree *and* its arena tokens equal the query, so a hash
//     collision can never make two different chunks match;
//   - an intrusive doubly-linked list orders the non-root nodes by recency.
//     Touch() moves a node to the most-recent end; new nodes start there.
//
// The store has no eviction policy: each trie layers its own on top of
// the recency list (PrefixIndex::EvictLru peels refcount-free leaves in
// waves; AffinityMirror evicts the single oldest leaf past its node cap).
// Nothing depends on the order of children, so lookups, recency and
// eviction are deterministic for a given sequence of calls.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace aptserve {

/// Deterministic 64-bit hash of `len` token ids (FNV-1a over the ids,
/// then a splitmix64 finalizer); the default ChunkTrie hash.
uint64_t HashTokenChunk(const int32_t* tokens, int32_t len);

/// `Payload` is per-node data of the owning trie (an empty struct costs
/// nothing: it is the node's base class).
template <typename Payload>
class ChunkTrie {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNil = std::numeric_limits<NodeId>::max();
  using HashFn = uint64_t (*)(const int32_t* tokens, int32_t len);

  /// `hash` is replaceable so tests can force collisions.
  explicit ChunkTrie(int32_t chunk_len, HashFn hash = &HashTokenChunk)
      : chunk_len_(chunk_len), hash_(hash) {
    APT_CHECK_MSG(chunk_len > 0, "chunk length must be positive");
    Clear();
  }

  int32_t chunk_len() const { return chunk_len_; }
  /// Nodes besides the root.
  int64_t size() const { return size_; }

  /// The child of `parent` whose chunk equals chunk[0, chunk_len), or kNil.
  NodeId Find(NodeId parent, const int32_t* chunk) const {
    const uint64_t h = hash_(chunk, chunk_len_);
    for (size_t s = Home(parent, h);; s = (s + 1) & mask_) {
      const NodeId id = slots_[s];
      if (id == kNil) return kNil;
      const Node& n = nodes_[id];
      if (n.parent == parent && n.hash == h &&
          std::memcmp(Tokens(id), chunk, sizeof(int32_t) * chunk_len_) == 0) {
        return id;
      }
    }
  }

  /// Adds a child of `parent` holding chunk[0, chunk_len) (which `parent`
  /// must not have yet) at the most-recent end; its payload is
  /// value-initialized.
  NodeId Add(NodeId parent, const int32_t* chunk) {
    if (2 * (size_ + 1) > static_cast<int64_t>(slots_.size())) {
      Rehash(2 * slots_.size());
    }
    NodeId id;
    if (free_ != kNil) {
      id = free_;
      free_ = nodes_[id].newer;
      nodes_[id] = Node{};
    } else {
      id = static_cast<NodeId>(nodes_.size());
      APT_CHECK_MSG(id != kNil, "chunk trie node ids exhausted");
      nodes_.emplace_back();
      tokens_.resize(tokens_.size() + chunk_len_);
    }
    Node& n = nodes_[id];
    n.parent = parent;
    n.hash = hash_(chunk, chunk_len_);
    std::memcpy(Tokens(id), chunk, sizeof(int32_t) * chunk_len_);
    ++nodes_[parent].num_children;
    size_t s = Home(parent, n.hash);
    while (slots_[s] != kNil) s = (s + 1) & mask_;
    slots_[s] = id;
    LinkNewest(id);
    ++size_;
    return id;
  }

  /// Removes leaf `id` (not the root); its id becomes reusable.
  void EraseLeaf(NodeId id) {
    APT_CHECK(id != kRoot && nodes_[id].num_children == 0);
    Node& n = nodes_[id];
    size_t hole = Home(n.parent, n.hash);
    while (slots_[hole] != id) hole = (hole + 1) & mask_;
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless that would move them before their home slot.
    for (size_t s = (hole + 1) & mask_; slots_[s] != kNil;
         s = (s + 1) & mask_) {
      const Node& m = nodes_[slots_[s]];
      const size_t home = Home(m.parent, m.hash);
      if (((s - home) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = kNil;
    Unlink(id);
    --nodes_[n.parent].num_children;
    n.parent = kNil;
    n.newer = free_;
    free_ = id;
    --size_;
  }

  /// Drops every node but the root and releases the storage.
  void Clear() {
    nodes_.assign(1, Node{});
    nodes_.shrink_to_fit();
    tokens_.assign(chunk_len_, 0);
    tokens_.shrink_to_fit();
    slots_.assign(kInitialSlots, kNil);
    slots_.shrink_to_fit();
    mask_ = kInitialSlots - 1;
    free_ = kNil;
    oldest_ = newest_ = kNil;
    size_ = 0;
  }

  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  bool is_leaf(NodeId id) const { return nodes_[id].num_children == 0; }
  Payload& payload(NodeId id) { return nodes_[id]; }
  const Payload& payload(NodeId id) const { return nodes_[id]; }

  /// Moves `id` (not the root) to the most-recent end.
  void Touch(NodeId id) {
    if (id == newest_) return;
    Unlink(id);
    LinkNewest(id);
  }
  /// Least recently touched node, or kNil when only the root exists.
  NodeId oldest() const { return oldest_; }
  /// The next more recently touched node after `id`, or kNil.
  NodeId newer(NodeId id) const { return nodes_[id].newer; }

 private:
  struct Node : Payload {
    uint64_t hash = 0;
    NodeId parent = kNil;
    uint32_t num_children = 0;
    /// Recency list neighbours; `newer` doubles as the free-list link.
    NodeId older = kNil;
    NodeId newer = kNil;
  };

  static constexpr size_t kInitialSlots = 16;

  size_t Home(NodeId parent, uint64_t hash) const {
    uint64_t x = hash ^ (static_cast<uint64_t>(parent) * 0x9e3779b97f4a7c15ull);
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 32;
    return static_cast<size_t>(x) & mask_;
  }

  int32_t* Tokens(NodeId id) {
    return tokens_.data() + static_cast<size_t>(id) * chunk_len_;
  }
  const int32_t* Tokens(NodeId id) const {
    return tokens_.data() + static_cast<size_t>(id) * chunk_len_;
  }

  void Rehash(size_t new_slots) {
    slots_.assign(new_slots, kNil);
    mask_ = new_slots - 1;
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.parent == kNil) continue;  // on the free list
      size_t s = Home(n.parent, n.hash);
      while (slots_[s] != kNil) s = (s + 1) & mask_;
      slots_[s] = id;
    }
  }

  void LinkNewest(NodeId id) {
    Node& n = nodes_[id];
    n.older = newest_;
    n.newer = kNil;
    if (newest_ != kNil) {
      nodes_[newest_].newer = id;
    } else {
      oldest_ = id;
    }
    newest_ = id;
  }

  void Unlink(NodeId id) {
    Node& n = nodes_[id];
    if (n.older != kNil) {
      nodes_[n.older].newer = n.newer;
    } else {
      oldest_ = n.newer;
    }
    if (n.newer != kNil) {
      nodes_[n.newer].older = n.older;
    } else {
      newest_ = n.older;
    }
  }

  int32_t chunk_len_;
  HashFn hash_;
  std::vector<Node> nodes_;
  std::vector<int32_t> tokens_;
  std::vector<NodeId> slots_;
  size_t mask_ = 0;
  NodeId free_ = kNil;
  NodeId oldest_ = kNil;
  NodeId newest_ = kNil;
  int64_t size_ = 0;
};

}  // namespace aptserve
