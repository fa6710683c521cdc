#include "prefix/prefix_index.h"

#include <algorithm>

#include "common/logging.h"

namespace aptserve {

PrefixIndex::PrefixIndex(BlockPool* pool, int32_t block_size)
    : pool_(pool), block_size_(block_size), trie_(block_size) {
  APT_CHECK(pool != nullptr);
  APT_CHECK_MSG(block_size == pool->block_size(),
                "index block size must match the pool's");
}

PrefixIndex::~PrefixIndex() { Clear(); }

PrefixMatch PrefixIndex::Match(const std::vector<int32_t>& tokens,
                               int32_t max_usable) {
  ++stats_.lookups;
  if (hooks_.lookups != nullptr) hooks_.lookups->Inc();
  PrefixMatch match;
  if (max_usable <= 0) return match;

  // Walk the longest raw path first; the cap is applied afterwards so a
  // match that overruns `max_usable` mid-block becomes the COW case.
  std::vector<Trie::NodeId> path;
  Trie::NodeId node = Trie::kRoot;
  int32_t raw = 0;
  while (raw + block_size_ <= static_cast<int32_t>(tokens.size())) {
    node = trie_.Find(node, tokens.data() + raw);
    if (node == Trie::kNil) break;
    path.push_back(node);
    raw += block_size_;
  }
  if (raw == 0) return match;

  const int32_t usable = std::min(raw, max_usable);
  if (usable <= 0) return match;
  // Keep the matched path hot regardless of the cap: the deep prefix was
  // recognized even if the requester cannot use all of it.
  for (Trie::NodeId n : path) trie_.Touch(n);

  const int32_t full = usable / block_size_;
  const int32_t cow = usable % block_size_;
  match.tokens = usable;
  match.k_blocks.reserve(full);
  match.v_blocks.reserve(full);
  for (int32_t i = 0; i < full; ++i) {
    match.k_blocks.push_back(trie_.payload(path[i]).k_block);
    match.v_blocks.push_back(trie_.payload(path[i]).v_block);
  }
  if (cow > 0) {
    match.cow_src_k = trie_.payload(path[full]).k_block;
    match.cow_src_v = trie_.payload(path[full]).v_block;
    match.cow_tokens = cow;
  }
  return match;
}

void PrefixIndex::RecordAdoption(const PrefixMatch& match) {
  if (!match.hit()) return;
  ++stats_.hits;
  stats_.matched_tokens += match.tokens;
  stats_.shared_blocks += static_cast<int64_t>(match.k_blocks.size());
  if (match.cow_tokens > 0) ++stats_.cow_matches;
  if (hooks_.hits != nullptr) hooks_.hits->Inc();
  if (hooks_.hit_tokens != nullptr) hooks_.hit_tokens->Inc(match.tokens);
}

int32_t PrefixIndex::Insert(const std::vector<int32_t>& tokens,
                            int32_t num_tokens,
                            const std::vector<BlockId>& k_blocks,
                            const std::vector<BlockId>& v_blocks) {
  const int32_t limit =
      std::min(num_tokens, static_cast<int32_t>(tokens.size()));
  const int32_t max_nodes =
      std::min(static_cast<int32_t>(std::min(k_blocks.size(), v_blocks.size())),
               limit / block_size_);
  Trie::NodeId node = Trie::kRoot;
  int32_t created = 0;
  for (int32_t i = 0; i < max_nodes; ++i) {
    const int32_t* chunk =
        tokens.data() + static_cast<int64_t>(i) * block_size_;
    const Trie::NodeId existing = trie_.Find(node, chunk);
    if (existing != Trie::kNil) {
      // First writer wins: the existing node's payload caches the same
      // token prefix, so re-pointing it at this request's blocks would
      // only churn references for no benefit.
      node = existing;
      trie_.Touch(node);
      continue;
    }
    APT_CHECK_MSG(pool_->IsAllocated(k_blocks[i]) &&
                      pool_->IsAllocated(v_blocks[i]),
                  "cannot index a free block");
    APT_CHECK(pool_->Ref(k_blocks[i]).ok());
    APT_CHECK(pool_->Ref(v_blocks[i]).ok());
    node = trie_.Add(node, chunk);  // starts most recently used
    Entry& entry = trie_.payload(node);
    entry.k_block = k_blocks[i];
    entry.v_block = v_blocks[i];
    ++created;
    stats_.inserted_blocks += 2;
    if (hooks_.inserted_blocks != nullptr) hooks_.inserted_blocks->Inc(2);
  }
  return created;
}

int32_t PrefixIndex::EvictLru(int32_t min_blocks) {
  int32_t freed = 0;
  while (freed < min_blocks) {
    // One wave: walk the recency list oldest first and evict every leaf
    // that was evictable when the wave started. A leaf is evictable when
    // nothing besides the index owns its blocks; a pinned leaf (matched by
    // a request mid-seeding, or still part of a live cache map) has
    // RefCount > 1 and is skipped, which is exactly the "eviction racing a
    // concurrent match" guarantee. A parent exposed by this wave's
    // evictions is stamped and left to the next wave.
    ++wave_;
    bool evicted = false;
    for (Trie::NodeId id = trie_.oldest();
         id != Trie::kNil && freed < min_blocks;) {
      const Trie::NodeId next = trie_.newer(id);
      const Entry& entry = trie_.payload(id);
      if (trie_.is_leaf(id) && entry.exposed_wave != wave_ &&
          pool_->RefCount(entry.k_block) == 1 &&
          pool_->RefCount(entry.v_block) == 1) {
        APT_CHECK(pool_->Free(entry.k_block).ok());
        APT_CHECK(pool_->Free(entry.v_block).ok());
        freed += 2;
        stats_.evicted_blocks += 2;
        if (hooks_.evicted_blocks != nullptr) hooks_.evicted_blocks->Inc(2);
        const Trie::NodeId parent = trie_.parent(id);
        trie_.EraseLeaf(id);
        if (parent != Trie::kRoot && trie_.is_leaf(parent)) {
          trie_.payload(parent).exposed_wave = wave_;
        }
        evicted = true;
      }
      id = next;
    }
    if (!evicted) break;
  }
  return freed;
}

void PrefixIndex::Clear() {
  for (Trie::NodeId id = trie_.oldest(); id != Trie::kNil;
       id = trie_.newer(id)) {
    APT_CHECK(pool_->Free(trie_.payload(id).k_block).ok());
    APT_CHECK(pool_->Free(trie_.payload(id).v_block).ok());
  }
  trie_.Clear();
}

std::string PrefixIndex::DebugString() const {
  std::string out = "PrefixIndex{nodes=" + std::to_string(num_nodes()) +
                    ", indexed_blocks=" + std::to_string(indexed_blocks()) +
                    ", lookups=" + std::to_string(stats_.lookups) +
                    ", hits=" + std::to_string(stats_.hits) +
                    ", matched_tokens=" + std::to_string(stats_.matched_tokens) +
                    ", shared_blocks=" + std::to_string(stats_.shared_blocks) +
                    ", cow_matches=" + std::to_string(stats_.cow_matches) +
                    ", inserted_blocks=" +
                    std::to_string(stats_.inserted_blocks) +
                    ", evicted_blocks=" +
                    std::to_string(stats_.evicted_blocks) + "}\n  " +
                    pool_->DebugString();
  return out;
}

}  // namespace aptserve
