// Allocation guard for the per-event epilogue (docs/DESIGN.md §11): one
// check_allocation call and one select_servers_three_loop call on seeded
// N = 400 engine states make a number of heap allocations bounded by the
// processor count, not the operator count.  The flat kernels allocate
// their output and scratch vectors per call and per processor; a
// per-operator temporary (a returned type vector, a set or map node per
// type) would push the count past the ceiling.
#define INSP_DEFINE_COUNTING_ALLOCATOR
#include "../alloc_counter.hpp"

#include <gtest/gtest.h>

#include "bench_support/dynamic_world.hpp"
#include "core/constraints.hpp"
#include "core/server_selection.hpp"
#include "dynamic/repair_allocator.hpp"

namespace insp {
namespace {

long long ceiling(const Allocation& alloc) {
  return 16LL * alloc.num_processors() + 64;
}

TEST(EpilogueAllocations, BoundedByProcessorCount) {
  int states = 0;
  long long most_check = 0, most_select = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const benchx::DynamicWorld world =
        benchx::make_dynamic_world(seed, {400, 6, 25});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed ^ 0x5eed).success) << seed;
    for (const WorkloadEvent& event : world.trace.events) {
      engine.apply(event, world.trace);
      const Problem problem = engine.problem();
      const Allocation& alloc = engine.allocation();
      if (alloc.processors.empty()) continue;

      long long before = alloc_counter::allocations();
      const CheckReport chk = check_allocation(problem, alloc);
      const long long check_allocs = alloc_counter::allocations() - before;
      ASSERT_TRUE(chk.ok()) << chk.summary();

      Allocation routed = alloc;
      before = alloc_counter::allocations();
      const ServerSelectionResult sel =
          select_servers_three_loop(problem, routed);
      const long long select_allocs = alloc_counter::allocations() - before;
      ASSERT_TRUE(sel.success) << sel.failure_reason;

      EXPECT_LE(check_allocs, ceiling(alloc))
          << "seed " << seed << ", " << alloc.num_processors() << " procs";
      EXPECT_LE(select_allocs, ceiling(alloc))
          << "seed " << seed << ", " << alloc.num_processors() << " procs";
      most_check = std::max(most_check, check_allocs);
      most_select = std::max(most_select, select_allocs);
      ++states;
    }
  }
  EXPECT_GT(states, 100);
  RecordProperty("most_check_allocations", static_cast<int>(most_check));
  RecordProperty("most_select_allocations", static_cast<int>(most_select));
}

} // namespace
} // namespace insp
