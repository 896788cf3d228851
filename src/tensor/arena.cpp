#include "rna/tensor/arena.hpp"

#include "rna/common/check.hpp"

namespace rna::tensor {

namespace {

thread_local Arena* t_current_arena = nullptr;

std::size_t RoundUp(std::size_t bytes) {
  return (bytes + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena* Arena::Current() { return t_current_arena; }

Arena::Scope::Scope(Arena* arena) : previous_(t_current_arena) {
  t_current_arena = arena;
}

Arena::Scope::~Scope() { t_current_arena = previous_; }

Arena::Arena(std::size_t initial_bytes) {
  if (initial_bytes > 0) {
    short_.chunks.push_back(NewChunk(RoundUp(initial_bytes)));
  }
}

Arena::Chunk Arena::NewChunk(std::size_t capacity) {
  Chunk chunk;
  chunk.data.reset(static_cast<std::byte*>(
      ::operator new[](capacity, std::align_val_t{kAlignment})));
  chunk.capacity = capacity;
  ++stats_.chunk_allocs;
  stats_.reserved_bytes += capacity;
  return chunk;
}

float* Arena::AllocateFrom(Region& region, std::size_t bytes,
                           bool allow_growth) {
  for (; region.cursor < region.chunks.size(); ++region.cursor) {
    Chunk& chunk = region.chunks[region.cursor];
    if (chunk.capacity - chunk.used >= bytes) {
      float* out = reinterpret_cast<float*>(chunk.data.get() + chunk.used);
      chunk.used += bytes;
      return out;
    }
  }
  if (!allow_growth) throw std::bad_alloc();
  region.chunks.push_back(
      NewChunk(bytes > kMinChunkBytes ? bytes : kMinChunkBytes));
  region.cursor = region.chunks.size() - 1;
  Chunk& chunk = region.chunks.back();
  chunk.used = bytes;
  return reinterpret_cast<float*>(chunk.data.get());
}

float* Arena::Allocate(std::size_t elems, Lifetime lifetime) {
  if (elems == 0) return nullptr;
  const std::size_t bytes = RoundUp(elems * sizeof(float));
  if (lifetime == Lifetime::kShort) {
    // In exact mode the short region is capacity-planned: growth is an OOM.
    float* out = AllocateFrom(short_, bytes, /*allow_growth=*/!exact_);
    ++stats_.short_allocs;
    stats_.short_in_use += bytes;
    if (stats_.short_in_use > stats_.short_high_water) {
      stats_.short_high_water = stats_.short_in_use;
    }
    return out;
  }
  float* out = AllocateFrom(long_, bytes, /*allow_growth=*/true);
  ++stats_.long_allocs;
  stats_.long_in_use += bytes;
  return out;
}

void Arena::ResetScratch() {
  for (Chunk& chunk : short_.chunks) chunk.used = 0;
  short_.cursor = 0;
  stats_.short_in_use = 0;
  ++stats_.resets;
}

void Arena::ReserveExact(std::size_t short_bytes) {
  RNA_CHECK_MSG(stats_.short_in_use == 0,
                "ReserveExact requires no live scratch (call ResetScratch)");
  for (const Chunk& chunk : short_.chunks) {
    stats_.reserved_bytes -= chunk.capacity;
  }
  short_.chunks.clear();
  short_.cursor = 0;
  if (short_bytes > 0) {
    short_.chunks.push_back(NewChunk(RoundUp(short_bytes)));
  }
  exact_ = true;
}

}  // namespace rna::tensor
