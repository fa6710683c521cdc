// Unit tests for the prefix-sharing radix index: block-granular matching,
// the usable cap and its copy-on-write boundary, LRU eviction respecting
// pool refcounts, idempotent insertion, and the stats/DebugString surface.
#include "prefix/prefix_index.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace aptserve {
namespace {

constexpr int32_t kBlock = 4;

std::vector<int32_t> Tokens(int32_t n, int32_t base = 100) {
  std::vector<int32_t> t(n);
  std::iota(t.begin(), t.end(), base);
  return t;
}

/// Allocates `n` K/V block pairs from `pool`.
void AllocPairs(BlockPool* pool, int32_t n, std::vector<BlockId>* k,
                std::vector<BlockId>* v) {
  for (int32_t i = 0; i < n; ++i) {
    auto kb = pool->Allocate();
    auto vb = pool->Allocate();
    ASSERT_TRUE(kb.ok() && vb.ok());
    k->push_back(*kb);
    v->push_back(*vb);
  }
}

TEST(PrefixIndexTest, EmptyIndexMisses) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  PrefixMatch m = index.Match(Tokens(12), 12);
  EXPECT_FALSE(m.hit());
  EXPECT_EQ(index.stats().lookups, 1);
  EXPECT_EQ(index.stats().hits, 0);
}

TEST(PrefixIndexTest, InsertThenMatchReturnsBlocksAndRefs) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  AllocPairs(&pool, 3, &k, &v);
  const auto tokens = Tokens(12);
  EXPECT_EQ(index.Insert(tokens, 12, k, v), 3);
  EXPECT_EQ(index.num_nodes(), 3);
  // The index took one reference per indexed block.
  for (BlockId b : k) EXPECT_EQ(pool.RefCount(b), 2);
  for (BlockId b : v) EXPECT_EQ(pool.RefCount(b), 2);

  PrefixMatch m = index.Match(tokens, 12);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.tokens, 12);
  EXPECT_EQ(m.k_blocks, k);
  EXPECT_EQ(m.v_blocks, v);
  EXPECT_EQ(m.cow_tokens, 0);
  // Match is a pure lookup: refcounts unchanged.
  for (BlockId b : k) EXPECT_EQ(pool.RefCount(b), 2);
}

TEST(PrefixIndexTest, MatchIsBlockGranularAndPrefixOnly) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  AllocPairs(&pool, 2, &k, &v);
  const auto tokens = Tokens(10);  // only 2 full blocks indexable
  EXPECT_EQ(index.Insert(tokens, 10, k, v), 2);

  // A query diverging inside the second block matches only the first.
  auto diverging = tokens;
  diverging[5] = 9999;
  PrefixMatch m = index.Match(diverging, 10);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.tokens, kBlock);
  ASSERT_EQ(m.k_blocks.size(), 1u);
  EXPECT_EQ(m.k_blocks[0], k[0]);

  // A query diverging at position 0 misses entirely.
  auto miss = tokens;
  miss[0] = 9999;
  EXPECT_FALSE(index.Match(miss, 10).hit());
}

TEST(PrefixIndexTest, UsableCapMidBlockBecomesCow) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  AllocPairs(&pool, 2, &k, &v);
  const auto tokens = Tokens(8);
  EXPECT_EQ(index.Insert(tokens, 8, k, v), 2);

  // Cap at 7: one full block plus 3 COW slots of the second.
  PrefixMatch m = index.Match(tokens, 7);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.tokens, 7);
  ASSERT_EQ(m.k_blocks.size(), 1u);
  EXPECT_EQ(m.k_blocks[0], k[0]);
  EXPECT_EQ(m.cow_src_k, k[1]);
  EXPECT_EQ(m.cow_src_v, v[1]);
  EXPECT_EQ(m.cow_tokens, 3);
  // Adoption counters only advance once a caller confirms the seeding.
  EXPECT_EQ(index.stats().cow_matches, 0);
  index.RecordAdoption(m);
  EXPECT_EQ(index.stats().cow_matches, 1);
  EXPECT_EQ(index.stats().matched_tokens, 7);

  // Cap below one block: pure COW of the first block.
  m = index.Match(tokens, 2);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.tokens, 2);
  EXPECT_TRUE(m.k_blocks.empty());
  EXPECT_EQ(m.cow_src_k, k[0]);
  EXPECT_EQ(m.cow_tokens, 2);

  EXPECT_FALSE(index.Match(tokens, 0).hit());
}

TEST(PrefixIndexTest, InsertIsIdempotentFirstWriterWins) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k1, v1, k2, v2;
  AllocPairs(&pool, 2, &k1, &v1);
  AllocPairs(&pool, 2, &k2, &v2);
  const auto tokens = Tokens(8);
  EXPECT_EQ(index.Insert(tokens, 8, k1, v1), 2);
  // Re-inserting the same content with different blocks adds nothing.
  EXPECT_EQ(index.Insert(tokens, 8, k2, v2), 0);
  EXPECT_EQ(index.num_nodes(), 2);
  PrefixMatch m = index.Match(tokens, 8);
  EXPECT_EQ(m.k_blocks, k1);  // first writer's blocks survive
  EXPECT_EQ(pool.RefCount(k2[0]), 1);  // second writer's untouched
}

TEST(PrefixIndexTest, LruEvictionFreesOldestUnreferencedLeafFirst) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> ka, va, kb, vb;
  AllocPairs(&pool, 1, &ka, &va);
  AllocPairs(&pool, 1, &kb, &vb);
  index.Insert(Tokens(kBlock, 100), kBlock, ka, va);
  index.Insert(Tokens(kBlock, 200), kBlock, kb, vb);
  // The caller's own references still pin everything.
  EXPECT_EQ(index.EvictLru(2), 0);
  // Drop caller references: blocks now belong to the index alone.
  pool.FreeMany({ka[0], va[0], kb[0], vb[0]});
  // Touch prefix A so B becomes the LRU victim.
  EXPECT_TRUE(index.Match(Tokens(kBlock, 100), kBlock).hit());
  EXPECT_EQ(index.EvictLru(2), 2);
  EXPECT_EQ(index.num_nodes(), 1);
  EXPECT_FALSE(pool.IsAllocated(kb[0]));
  EXPECT_FALSE(pool.IsAllocated(vb[0]));
  EXPECT_TRUE(index.Match(Tokens(kBlock, 100), kBlock).hit());
  EXPECT_FALSE(index.Match(Tokens(kBlock, 200), kBlock).hit());
  EXPECT_EQ(index.stats().evicted_blocks, 2);
}

TEST(PrefixIndexTest, EvictionPeelsTreesBottomUp) {
  BlockPool pool(32, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  AllocPairs(&pool, 3, &k, &v);
  const auto tokens = Tokens(12);
  index.Insert(tokens, 12, k, v);
  pool.FreeMany({k[0], v[0], k[1], v[1], k[2], v[2]});
  // Asking for everything drains the chain leaf-first.
  EXPECT_EQ(index.EvictLru(6), 6);
  EXPECT_EQ(index.num_nodes(), 0);
  EXPECT_EQ(pool.num_allocated(), 0);
}

/// Inserts `tokens` with freshly allocated blocks; the caller's references
/// are dropped unless `pin` keeps them (a live request still holding its
/// cache). Returns the K block of each chunk.
std::vector<BlockId> InsertOwned(BlockPool* pool, PrefixIndex* index,
                                 const std::vector<int32_t>& tokens,
                                 bool pin = false) {
  const int32_t n = static_cast<int32_t>(tokens.size()) / kBlock;
  std::vector<BlockId> k, v;
  AllocPairs(pool, n, &k, &v);
  index->Insert(tokens, static_cast<int32_t>(tokens.size()), k, v);
  if (!pin) {
    for (int32_t i = 0; i < n; ++i) pool->FreeMany({k[i], v[i]});
  }
  return k;
}

/// K blocks in the order EvictLru freed them: the pool's free list is LIFO
/// and every eviction frees its K block, then its V block.
std::vector<BlockId> EvictedKBlocks(BlockPool* pool, int32_t freed) {
  std::vector<BlockId> popped;
  for (int32_t i = 0; i < freed; ++i) popped.push_back(*pool->Allocate());
  std::vector<BlockId> k;
  for (int32_t i = freed - 1; i >= 1; i -= 2) k.push_back(popped[i]);
  return k;
}

// The eviction sequence, pinned: a wave visits the leaves evictable when it
// starts in least-recently-used order, skips pinned ones, and leaves the
// interior nodes it exposes to the next wave even when they are older than
// the wave's remaining leaves.
TEST(PrefixIndexTest, EvictionSequenceAcrossPinnedLeavesAndWaves) {
  BlockPool pool(64, kBlock);
  PrefixIndex index(&pool, kBlock);
  const auto a = Tokens(3 * kBlock, 100);                  // a1 -> a2 -> a3
  auto c = Tokens(2 * kBlock, 100);                        // a1 -> a2 -> c3
  const auto c3 = Tokens(kBlock, 300);
  c.insert(c.end(), c3.begin(), c3.end());
  const auto pinned = InsertOwned(&pool, &index, Tokens(kBlock, 400), true);
  const auto ka = InsertOwned(&pool, &index, a);
  const auto kc = InsertOwned(&pool, &index, c);
  // Touch a1, a2: recency (oldest first) is now P, a3, c3, a1, a2, then b1.
  EXPECT_EQ(index.Match(Tokens(2 * kBlock, 100), 2 * kBlock).tokens,
            2 * kBlock);
  const auto kb = InsertOwned(&pool, &index, Tokens(kBlock, 200));
  ASSERT_EQ(index.num_nodes(), 6);

  // Wave 1: a3, c3 (exposing a2, which is older than b1), b1. Wave 2: a2
  // (exposing a1). Wave 3: a1. The pinned leaf P survives every wave.
  const int32_t freed = index.EvictLru(1000);
  EXPECT_EQ(freed, 10);
  EXPECT_EQ(index.num_nodes(), 1);
  EXPECT_EQ(index.stats().evicted_blocks, 10);
  EXPECT_EQ(EvictedKBlocks(&pool, freed),
            (std::vector<BlockId>{ka[2], kc[2], kb[0], ka[1], ka[0]}));
  EXPECT_TRUE(index.Match(Tokens(kBlock, 400), kBlock).hit());
  EXPECT_EQ(pool.RefCount(pinned[0]), 2);
}

// A call that stops at its bound mid-wave leaves the nodes it exposed as
// ordinary leaves for the next call, in recency order.
TEST(PrefixIndexTest, EvictionResumesInRecencyOrderAcrossCalls) {
  BlockPool pool(64, kBlock);
  PrefixIndex index(&pool, kBlock);
  const auto a = Tokens(3 * kBlock, 100);
  auto c = Tokens(2 * kBlock, 100);
  const auto c3 = Tokens(kBlock, 300);
  c.insert(c.end(), c3.begin(), c3.end());
  const auto ka = InsertOwned(&pool, &index, a);
  const auto kc = InsertOwned(&pool, &index, c);
  index.Match(Tokens(2 * kBlock, 100), 2 * kBlock);
  const auto kb = InsertOwned(&pool, &index, Tokens(kBlock, 200));

  EXPECT_EQ(index.EvictLru(4), 4);  // a3, c3; a2 is exposed
  EXPECT_FALSE(pool.IsAllocated(ka[2]));
  EXPECT_FALSE(pool.IsAllocated(kc[2]));
  EXPECT_TRUE(pool.IsAllocated(ka[1]));
  EXPECT_TRUE(pool.IsAllocated(kb[0]));
  // The next call sees a2 (touched before b1 was inserted) first.
  EXPECT_EQ(index.EvictLru(2), 2);
  EXPECT_FALSE(pool.IsAllocated(ka[1]));
  EXPECT_TRUE(pool.IsAllocated(kb[0]));
  EXPECT_TRUE(pool.IsAllocated(ka[0]));
  EXPECT_EQ(index.num_nodes(), 2);
}

TEST(PrefixIndexTest, ClearReleasesEverything) {
  BlockPool pool(16, kBlock);
  {
    PrefixIndex index(&pool, kBlock);
    std::vector<BlockId> k, v;
    AllocPairs(&pool, 2, &k, &v);
    index.Insert(Tokens(8), 8, k, v);
    pool.FreeMany({k[0], v[0], k[1], v[1]});
    EXPECT_EQ(pool.num_allocated(), 4);  // index references
    index.Clear();
    EXPECT_EQ(pool.num_allocated(), 0);
    EXPECT_EQ(index.num_nodes(), 0);
  }
  // Destructor path: a fresh index destroyed while holding blocks.
  {
    PrefixIndex index(&pool, kBlock);
    std::vector<BlockId> k, v;
    AllocPairs(&pool, 1, &k, &v);
    index.Insert(Tokens(kBlock), kBlock, k, v);
    pool.FreeMany({k[0], v[0]});
  }
  EXPECT_EQ(pool.num_allocated(), 0);
}

TEST(PrefixIndexTest, StatsAndDebugString) {
  BlockPool pool(16, kBlock);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  AllocPairs(&pool, 2, &k, &v);
  index.Insert(Tokens(8), 8, k, v);
  index.RecordAdoption(index.Match(Tokens(8), 8));
  index.RecordAdoption(index.Match(Tokens(8, 999), 8));  // miss: no-op
  const PrefixStats& s = index.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.matched_tokens, 8);
  EXPECT_EQ(s.shared_blocks, 2);
  EXPECT_EQ(s.inserted_blocks, 4);
  const std::string dump = index.DebugString();
  EXPECT_NE(dump.find("nodes=2"), std::string::npos);
  EXPECT_NE(dump.find("hits=1"), std::string::npos);
  EXPECT_NE(dump.find("BlockPool{"), std::string::npos);
}

}  // namespace
}  // namespace aptserve
