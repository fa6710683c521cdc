// ChunkTrie, the node store under PrefixIndex and the router's affinity
// mirror: lookups compare tokens, never just hashes (forced collisions);
// backward-shift deletion keeps every probe run reachable; ids recycle;
// the recency list orders nodes by last touch.
#include "prefix/chunk_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace aptserve {
namespace {

constexpr int32_t kChunk = 4;

struct Empty {};
using Trie = ChunkTrie<Empty>;

std::vector<int32_t> Chunk(int32_t base) {
  std::vector<int32_t> c(kChunk);
  std::iota(c.begin(), c.end(), base);
  return c;
}

uint64_t ConstantHash(const int32_t*, int32_t) { return 42; }
/// Few distinct values: long probe runs that span deleted slots.
uint64_t WeakHash(const int32_t* tokens, int32_t) {
  return static_cast<uint64_t>(tokens[0] & 3);
}

size_t Pick(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
}

std::vector<Trie::NodeId> RecencyOrder(const Trie& trie) {
  std::vector<Trie::NodeId> order;
  for (Trie::NodeId id = trie.oldest(); id != Trie::kNil;
       id = trie.newer(id)) {
    order.push_back(id);
  }
  return order;
}

TEST(ChunkTrieTest, CollidingChunksNeverMatchEachOther) {
  Trie trie(kChunk, &ConstantHash);
  const auto a = Chunk(100);
  const auto b = Chunk(200);
  const Trie::NodeId ia = trie.Add(Trie::kRoot, a.data());
  // Same hash, same parent, different tokens: not a match.
  EXPECT_EQ(trie.Find(Trie::kRoot, b.data()), Trie::kNil);
  const Trie::NodeId ib = trie.Add(Trie::kRoot, b.data());
  EXPECT_NE(ia, ib);
  EXPECT_EQ(trie.Find(Trie::kRoot, a.data()), ia);
  EXPECT_EQ(trie.Find(Trie::kRoot, b.data()), ib);
  // Same hash and tokens under another parent: not a match either.
  EXPECT_EQ(trie.Find(ia, a.data()), Trie::kNil);
  const Trie::NodeId iaa = trie.Add(ia, a.data());
  EXPECT_EQ(trie.Find(ia, a.data()), iaa);
  EXPECT_EQ(trie.Find(Trie::kRoot, a.data()), ia);
  // Erasing one colliding entry keeps the others reachable.
  trie.EraseLeaf(ib);
  EXPECT_EQ(trie.Find(Trie::kRoot, b.data()), Trie::kNil);
  EXPECT_EQ(trie.Find(Trie::kRoot, a.data()), ia);
  EXPECT_EQ(trie.Find(ia, a.data()), iaa);
  EXPECT_EQ(trie.size(), 2);
}

TEST(ChunkTrieTest, StructureAndIdRecycling) {
  Trie trie(kChunk);
  const auto a = Chunk(1), b = Chunk(2);
  const Trie::NodeId ia = trie.Add(Trie::kRoot, a.data());
  const Trie::NodeId ib = trie.Add(ia, b.data());
  EXPECT_EQ(trie.parent(ib), ia);
  EXPECT_FALSE(trie.is_leaf(ia));
  EXPECT_TRUE(trie.is_leaf(ib));
  trie.EraseLeaf(ib);
  EXPECT_TRUE(trie.is_leaf(ia));
  // The erased id is reused, with a fresh payload and links.
  const Trie::NodeId ic = trie.Add(ia, Chunk(3).data());
  EXPECT_EQ(ic, ib);
  EXPECT_EQ(trie.Find(ia, b.data()), Trie::kNil);
  EXPECT_EQ(trie.size(), 2);
  trie.Clear();
  EXPECT_EQ(trie.size(), 0);
  EXPECT_EQ(trie.oldest(), Trie::kNil);
  EXPECT_EQ(trie.Find(Trie::kRoot, a.data()), Trie::kNil);
}

TEST(ChunkTrieTest, RecencyListOrdersByLastTouch) {
  Trie trie(kChunk);
  const Trie::NodeId a = trie.Add(Trie::kRoot, Chunk(1).data());
  const Trie::NodeId b = trie.Add(Trie::kRoot, Chunk(2).data());
  const Trie::NodeId c = trie.Add(a, Chunk(3).data());
  EXPECT_EQ(RecencyOrder(trie), (std::vector<Trie::NodeId>{a, b, c}));
  trie.Touch(a);
  EXPECT_EQ(RecencyOrder(trie), (std::vector<Trie::NodeId>{b, c, a}));
  trie.Touch(a);  // already the newest: no change
  EXPECT_EQ(RecencyOrder(trie), (std::vector<Trie::NodeId>{b, c, a}));
  trie.EraseLeaf(c);
  EXPECT_EQ(RecencyOrder(trie), (std::vector<Trie::NodeId>{b, a}));
  trie.Touch(b);
  EXPECT_EQ(RecencyOrder(trie), (std::vector<Trie::NodeId>{a, b}));
}

// Random adds and leaf erases against a std::map reference, under a hash
// with four values: every probe run is long and crosses deletion holes,
// and the table grows several times.
TEST(ChunkTrieTest, MatchesReferenceUnderWeakHash) {
  Trie trie(kChunk, &WeakHash);
  // (parent, first token) -> node; chunks are Chunk(first token).
  std::map<std::pair<Trie::NodeId, int32_t>, Trie::NodeId> ref;
  std::map<Trie::NodeId, int32_t> children;
  std::vector<Trie::NodeId> live;
  Rng rng(5);
  for (int32_t step = 0; step < 4000; ++step) {
    const bool erase = !live.empty() && rng.UniformInt(0, 2) == 0;
    if (erase) {
      const Trie::NodeId id = live[Pick(&rng, live.size())];
      if (children[id] != 0) continue;
      for (auto it = ref.begin(); it != ref.end(); ++it) {
        if (it->second != id) continue;
        --children[it->first.first];
        ref.erase(it);
        break;
      }
      trie.EraseLeaf(id);
      live.erase(std::find(live.begin(), live.end(), id));
      children.erase(id);
    } else {
      const Trie::NodeId parent =
          live.empty() || rng.UniformInt(0, 3) == 0
              ? Trie::kRoot
              : live[Pick(&rng, live.size())];
      const int32_t first = static_cast<int32_t>(rng.UniformInt(0, 63));
      const auto chunk = Chunk(first);
      const auto key = std::make_pair(parent, first);
      const Trie::NodeId found = trie.Find(parent, chunk.data());
      if (ref.count(key)) {
        ASSERT_EQ(found, ref.at(key));
        continue;
      }
      ASSERT_EQ(found, Trie::kNil);
      const Trie::NodeId id = trie.Add(parent, chunk.data());
      ref[key] = id;
      ++children[parent];
      live.push_back(id);
    }
    ASSERT_EQ(trie.size(), static_cast<int64_t>(ref.size()));
  }
  for (const auto& [key, id] : ref) {
    EXPECT_EQ(trie.Find(key.first, Chunk(key.second).data()), id);
    EXPECT_EQ(trie.parent(id), key.first);
  }
  EXPECT_GT(ref.size(), 100u);
}

}  // namespace
}  // namespace aptserve
