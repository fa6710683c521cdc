#include "prefix/chunk_trie.h"

namespace aptserve {

uint64_t HashTokenChunk(const int32_t* tokens, int32_t len) {
  uint64_t h = 1469598103934665603ull;
  for (int32_t i = 0; i < len; ++i) {
    h ^= static_cast<uint32_t>(tokens[i]);
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace aptserve
