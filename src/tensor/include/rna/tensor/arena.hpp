#pragma once

// Per-worker compute arena backing Tensor storage (ROADMAP item 2, after
// Marian's TensorAllocator/reserveExact). Two bump-allocated regions:
//
//   kShort — per-step scratch (activations, per-op temporaries). Freed in
//            O(1) by ResetScratch() at the end of every training step.
//   kLong  — state that survives steps (persistent layer scratch, optimizer
//            state). Never reset for the arena's lifetime.
//
// Chunks grow on demand so variable-length sequences cannot OOM; after the
// first step the high-water mark is reached and steady-state iterations
// perform zero heap allocations (ctest-gated by tests/test_arena.cpp).
// ReserveExact() consolidates the short region into one exactly-sized chunk
// and flips the arena into exact mode, where any growth beyond the reserved
// capacity throws std::bad_alloc — the capacity-planning contract.
//
// The arena is single-owner: one Network (worker replica) per arena, no
// internal locking. Cross-thread use is per-thread-arena by construction;
// the race-stress suite locks this in under TSan.

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace rna::tensor {

enum class Lifetime {
  kShort,  ///< per-step scratch, freed by ResetScratch()
  kLong,   ///< lives until the arena dies
};

struct ArenaStats {
  std::size_t chunk_allocs = 0;      ///< heap chunk allocations (growth events)
  std::size_t reserved_bytes = 0;    ///< total chunk capacity, both regions
  std::size_t short_in_use = 0;      ///< bytes currently bump-allocated (short)
  std::size_t short_high_water = 0;  ///< max short_in_use ever observed
  std::size_t long_in_use = 0;       ///< bytes allocated long-term
  std::size_t short_allocs = 0;      ///< Allocate(kShort) calls
  std::size_t long_allocs = 0;       ///< Allocate(kLong) calls
  std::size_t resets = 0;            ///< ResetScratch() calls
};

class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;       // cache line
  static constexpr std::size_t kMinChunkBytes = 1 << 20;

  Arena() = default;
  /// Pre-reserves one short-region chunk of at least `initial_bytes`
  /// (rounded up to kAlignment); the arena stays in grow-on-demand mode.
  explicit Arena(std::size_t initial_bytes);
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `elems` floats, 64-byte aligned, NOT zeroed. Returns
  /// nullptr for elems == 0. Grows by a new chunk when the region is full;
  /// in exact mode a short-region growth throws std::bad_alloc instead.
  float* Allocate(std::size_t elems, Lifetime lifetime = Lifetime::kShort);

  /// O(1) release of every short-lived allocation. Pointers handed out from
  /// the short region are invalid afterwards (Tensor copy semantics in
  /// tensor.hpp are designed so no live Tensor reuses them).
  void ResetScratch();

  /// Consolidates the short region into a single chunk of exactly
  /// `short_bytes` (rounded up to kAlignment) and enters exact mode: any
  /// short-region allocation beyond this capacity throws std::bad_alloc.
  /// Requires no live short allocations (call after ResetScratch()).
  void ReserveExact(std::size_t short_bytes);

  /// ReserveExact at the observed high-water mark — the capacity-planning
  /// idiom: run one step in grow mode, reset, then pin the capacity.
  void ReserveExact() { ReserveExact(stats_.short_high_water); }

  /// Leaves exact mode: the short region may grow on demand again. The
  /// reserved chunk is kept. Used when a pinned training replica is
  /// repurposed for work with a different footprint (e.g. the terminal
  /// full-dataset evaluation, whose slices dwarf a training batch).
  void Relax() { exact_ = false; }

  bool ExactMode() const { return exact_; }
  const ArenaStats& Stats() const { return stats_; }

  /// The thread's active arena (nullptr when none). Tensor allocations go
  /// through this hook; see Scope below.
  static Arena* Current();

  /// RAII activation: makes `arena` Current() on the calling thread for
  /// the scope's lifetime, restoring the previous one on exit. A null arena
  /// routes the scope's allocations to the heap.
  class Scope {
   public:
    explicit Scope(Arena* arena);
    explicit Scope(Arena& arena) : Scope(&arena) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena* previous_;
  };

  /// Scope + ResetScratch() on exit: wraps exactly one compute step. A
  /// null arena makes it a heap scope with nothing to reset.
  class StepScope {
   public:
    explicit StepScope(Arena* arena) : arena_(arena), scope_(arena) {}
    explicit StepScope(Arena& arena) : StepScope(&arena) {}
    ~StepScope() {
      if (arena_ != nullptr) arena_->ResetScratch();
    }
    StepScope(const StepScope&) = delete;
    StepScope& operator=(const StepScope&) = delete;

   private:
    Arena* arena_;
    Scope scope_;
  };

 private:
  struct ChunkDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };
  using ChunkPtr = std::unique_ptr<std::byte[], ChunkDelete>;

  struct Chunk {
    ChunkPtr data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// A chain of chunks filled front to back; `cursor` indexes the chunk
  /// currently being filled.
  struct Region {
    std::vector<Chunk> chunks;
    std::size_t cursor = 0;
  };

  Chunk NewChunk(std::size_t capacity);
  float* AllocateFrom(Region& region, std::size_t bytes, bool allow_growth);

  Region short_;
  Region long_;
  bool exact_ = false;
  ArenaStats stats_;
};

}  // namespace rna::tensor
