// Allocation-regression guard for the all-pairs join hot loop
// (docs/memory.md): a warm JoinAllPairsInto batch -- the caller's artifact
// table held, output capacity sized, thread-local arenas grown -- must
// perform no
// per-pair heap allocations, and at most a small constant number of
// per-batch ones (span bookkeeping, pool dispatch). Counted with a global
// operator-new override, so this binary must NOT run under ASan/TSan/MSan
// (their allocator interposition conflicts with the override); the
// sanitizer CI jobs build it but every case skips itself.
//
// The per-pair claim is proven by differencing two batch sizes: per-batch
// constants cancel, so any nonzero slope is a real per-pair allocation
// regression. Single-threaded engine -- the count is deterministic.

#include <cstdlib>

#include <atomic>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "matrix_profile/mp_engine.h"
#include "obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPS_ALLOC_TEST_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IPS_ALLOC_TEST_DISABLED 1
#endif
#endif
#ifndef IPS_ALLOC_TEST_DISABLED
#define IPS_ALLOC_TEST_DISABLED 0
#endif

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

inline void CountAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

#if !IPS_ALLOC_TEST_DISABLED
void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Every delete form frees through one out-of-line function: inlined into
// a caller, a bare std::free of the pointer an operator new returned is a
// pairing GCC's -Wmismatched-new-delete cannot tell from a real mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
#endif  // !IPS_ALLOC_TEST_DISABLED

namespace ips {
namespace {

// Every case must bail out under sanitizers (the override above is
// compiled out there, so the counts would read zero-forever and pass
// vacuously at best).
#define IPS_SKIP_UNDER_SANITIZERS()                                       \
  do {                                                                    \
    if (IPS_ALLOC_TEST_DISABLED) {                                        \
      GTEST_SKIP() << "allocation counting is disabled under sanitizers"; \
    }                                                                     \
  } while (0)

std::vector<std::vector<double>> MakeBatch(size_t count, size_t len) {
  Rng rng(5);
  std::vector<std::vector<double>> series(count);
  for (auto& s : series) {
    s.resize(len);
    double x = 0.0;
    for (double& v : s) {
      x += rng.Uniform() - 0.5;
      v = x;
    }
  }
  return series;
}

// Allocations during one steady-state batch over a held table: warm twice
// (sizes the output, grows the arenas), then count the third run.
size_t WarmBatchAllocs(MatrixProfileEngine& engine, const ArtifactTable& table,
                       std::vector<PairMinima>& joins) {
  engine.JoinAllPairsInto(table, joins);
  engine.JoinAllPairsInto(table, joins);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_counting.store(true, std::memory_order_relaxed);
  engine.JoinAllPairsInto(table, joins);
  g_alloc_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocRegressionTest, WarmBatchStaysUnderConstantBound) {
  IPS_SKIP_UNDER_SANITIZERS();
  const auto series = MakeBatch(24, 40);
  const std::vector<std::span<const double>> views(series.begin(),
                                                   series.end());
  MatrixProfileEngine engine(1);
  const ArtifactTable table = engine.BuildTable(views, 8);
  std::vector<PairMinima> joins;
  const size_t allocs = WarmBatchAllocs(engine, table, joins);
  // Per-batch bookkeeping only (obs span path strings and the like); the
  // 276 pairs themselves must contribute nothing. The bound is a small
  // constant with slack for stdlib differences -- the slope test below is
  // the strict per-pair gate.
  EXPECT_LE(allocs, 16u);
}

TEST(AllocRegressionTest, PerPairAllocationSlopeIsZero) {
  IPS_SKIP_UNDER_SANITIZERS();
  const auto small = MakeBatch(24, 40);   // 276 pairs
  const auto large = MakeBatch(48, 40);   // 1128 pairs
  const std::vector<std::span<const double>> small_views(small.begin(),
                                                         small.end());
  const std::vector<std::span<const double>> large_views(large.begin(),
                                                         large.end());
  size_t allocs_small = 0, allocs_large = 0;
  {
    MatrixProfileEngine engine(1);
    const ArtifactTable table = engine.BuildTable(small_views, 8);
    std::vector<PairMinima> joins;
    allocs_small = WarmBatchAllocs(engine, table, joins);
  }
  {
    MatrixProfileEngine engine(1);
    const ArtifactTable table = engine.BuildTable(large_views, 8);
    std::vector<PairMinima> joins;
    allocs_large = WarmBatchAllocs(engine, table, joins);
  }
  // 4x the pairs, same per-batch constants: any growth is a per-pair
  // allocation that crept back into the sweep hot loop.
  EXPECT_EQ(allocs_large, allocs_small);
}

TEST(AllocRegressionTest, ArenaSlabsAreStableAcrossWarmBatches) {
  IPS_SKIP_UNDER_SANITIZERS();
  const auto series = MakeBatch(16, 48);
  const std::vector<std::span<const double>> views(series.begin(),
                                                   series.end());
  MatrixProfileEngine engine(1);
  const ArtifactTable table = engine.BuildTable(views, 9);
  std::vector<PairMinima> joins;
  engine.JoinAllPairsInto(table, joins);
  engine.JoinAllPairsInto(table, joins);

  auto& registry = obs::MetricsRegistry::Instance();
  const uint64_t slabs_before =
      registry.Snapshot().CounterValue("engine.arena.slab_allocs");
  for (int rep = 0; rep < 5; ++rep) {
    engine.JoinAllPairsInto(table, joins);
  }
  const uint64_t slabs_after =
      registry.Snapshot().CounterValue("engine.arena.slab_allocs");
  // Warm arenas: acquisitions keep flowing, slabs never grow again.
  EXPECT_EQ(slabs_after, slabs_before);
}

}  // namespace
}  // namespace ips
