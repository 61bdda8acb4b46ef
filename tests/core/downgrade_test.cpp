#include "core/downgrade.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "bench_support/experiment.hpp"
#include "core/constraints.hpp"
#include "core/local_search.hpp"
#include "core/placement_state.hpp"
#include "core/strategy_registry.hpp"
#include "util/rng.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

Allocation most_expensive_single(const Fixture& f) {
  Allocation a;
  PurchasedProcessor p;
  p.config = f.catalog.most_expensive();
  p.ops = {0, 1, 2, 3, 4};
  p.downloads = {{0, 0}, {1, 0}, {2, 0}};
  a.processors.push_back(p);
  a.op_to_proc = {0, 0, 0, 0, 0};
  return a;
}

TEST(Downgrade, LightLoadDropsToCheapest) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  Allocation a = most_expensive_single(f);
  const DowngradeSummary s = downgrade_processors(f.problem(), a);
  EXPECT_EQ(s.processors_changed, 1);
  EXPECT_DOUBLE_EQ(s.saved, 18846.0 - 7548.0);
  EXPECT_DOUBLE_EQ(a.total_cost(f.catalog), 7548.0);
  EXPECT_TRUE(check_allocation(f.problem(), a).ok());
}

TEST(Downgrade, KeepsConfigWhenLoadDemandsIt) {
  // Heavy CPU: root mass 270 at alpha 1.9 -> w ~ 41.8k Mops needs the
  // fastest CPU; the whole tree does not fit one processor, so split:
  // root alone on P0, the rest on P1.
  const Fixture f = fig1a_fixture(1.9, 30.0);
  Allocation a;
  PurchasedProcessor root_proc, rest;
  root_proc.config = f.catalog.most_expensive();
  root_proc.ops = {0};
  rest.config = f.catalog.most_expensive();
  rest.ops = {1, 2, 3, 4};
  rest.downloads = {{0, 0}, {1, 0}, {2, 0}};
  a.processors = {root_proc, rest};
  a.op_to_proc = {0, 1, 1, 1, 1};
  downgrade_processors(f.problem(), a);
  // P0: w = 270^1.9 ~ 41,772 -> 46.88 GHz; NIC carries the two inbound
  // edges (120 + 150 = 270 MB/s) -> 4 Gbps (500 MB/s).
  EXPECT_DOUBLE_EQ(f.catalog.speed(a.processors[0].config), 46880.0);
  EXPECT_DOUBLE_EQ(f.catalog.bandwidth(a.processors[0].config), 500.0);
  // P1: sum w ~ 36.6k -> 38.40 GHz; NIC = downloads 90 + outbound 270 ->
  // 4 Gbps.
  EXPECT_DOUBLE_EQ(f.catalog.speed(a.processors[1].config), 38400.0);
  EXPECT_DOUBLE_EQ(f.catalog.bandwidth(a.processors[1].config), 500.0);
  EXPECT_TRUE(check_allocation(f.problem(), a).ok());
}

TEST(Downgrade, NicRequirementIncludesCrossTraffic) {
  const Fixture f = fig1a_fixture(1.0, 100.0);  // edges up to 500 MB
  Allocation a;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {4, 3};  // n1, n2; edge n2->n5 crosses at 400 MB/s
  p0.downloads = {{0, 0}, {1, 0}};
  p1.config = f.catalog.most_expensive();
  p1.ops = {0, 1, 2};
  p1.downloads = {{1, 0}, {2, 0}};
  a.processors = {p0, p1};
  a.op_to_proc = {1, 1, 1, 0, 0};
  downgrade_processors(f.problem(), a);
  // P0 NIC: downloads 150 + out 400 = 550 -> needs 10 Gbps (1250), not 4.
  EXPECT_DOUBLE_EQ(f.catalog.bandwidth(a.processors[0].config), 1250.0);
  EXPECT_TRUE(check_allocation(f.problem(), a).ok());
}

TEST(Downgrade, NeverIncreasesCost) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Fixture f = testhelpers::random_fixture(seed, 25, 1.2);
    Allocation a;
    // One op per processor, every proc most expensive; route via loop3.
    a.op_to_proc.resize(static_cast<std::size_t>(f.tree.num_operators()));
    for (int op = 0; op < f.tree.num_operators(); ++op) {
      PurchasedProcessor p;
      p.config = f.catalog.most_expensive();
      p.ops = {op};
      a.processors.push_back(p);
      a.op_to_proc[static_cast<std::size_t>(op)] = op;
    }
    // Fill downloads naively from the first hosting server.
    for (int op = 0; op < f.tree.num_operators(); ++op) {
      for (int t : f.tree.object_types_of(op)) {
        a.processors[static_cast<std::size_t>(op)].downloads.push_back(
            {t, f.platform.servers_with(t).front()});
      }
    }
    const Dollars before = a.total_cost(f.catalog);
    const DowngradeSummary s = downgrade_processors(f.problem(), a);
    const Dollars after = a.total_cost(f.catalog);
    EXPECT_LE(after, before);
    EXPECT_NEAR(before - after, s.saved, 1e-9);
  }
}

TEST(Downgrade, IdempotentSecondPassChangesNothing) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  Allocation a = most_expensive_single(f);
  downgrade_processors(f.problem(), a);
  const DowngradeSummary second = downgrade_processors(f.problem(), a);
  EXPECT_EQ(second.processors_changed, 0);
  EXPECT_DOUBLE_EQ(second.saved, 0.0);
}

TEST(Downgrade, MixedRequirementsPerProcessor) {
  // One processor CPU-bound, one NIC-bound: each downgraded independently.
  const Fixture f = fig1a_fixture(1.75, 30.0);  // root w = 270^1.75 ~ 18k
  Allocation a;
  PurchasedProcessor heavy, light;
  heavy.config = f.catalog.most_expensive();
  heavy.ops = {0, 1, 2};  // root included: big CPU
  heavy.downloads = {{1, 0}, {2, 0}};
  light.config = f.catalog.most_expensive();
  light.ops = {3, 4};
  light.downloads = {{0, 0}, {1, 0}};
  a.processors = {heavy, light};
  a.op_to_proc = {0, 0, 0, 1, 1};
  downgrade_processors(f.problem(), a);
  EXPECT_GT(f.catalog.speed(a.processors[0].config),
            f.catalog.speed(a.processors[1].config));
  EXPECT_TRUE(check_allocation(f.problem(), a).ok());
}

// The downgrade rule has one definition, downgraded_config, evaluated on two
// kinds of load: the live PlacementState's (local search's projected cost,
// the repair engine's re-pricing pass) and the finished Allocation's
// (downgrade_processors, the exact solver's leaves).  On every feasible
// state the heuristics produce, both must pick the same configuration.
TEST(Downgrade, RuleAgreesOnStateAndAllocationLoads) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& [n, alpha] : {std::pair{60, 0.9}, std::pair{40, 1.7}}) {
      InstanceConfig cfg;  // paper §5: 15 small high-frequency types
      cfg.tree.num_operators = n;
      cfg.tree.alpha = alpha;
      cfg.tree.num_object_types = 15;
      cfg.tree.object_size_lo = 5.0;
      cfg.tree.object_size_hi = 30.0;
      cfg.tree.download_freq = 0.5;
      cfg.servers.num_servers = 6;
      const Instance inst = make_instance(seed, cfg);
      const Problem prob = inst.problem();
      const PriceCatalog& cat = inst.catalog();
      for (HeuristicKind h : all_heuristics()) {
        for (bool local_search : {false, true}) {
          PlacementState state(prob);
          Rng rng(seed * 131 + static_cast<std::uint64_t>(h));
          if (!strategy_for(h).place(state, rng).success) continue;
          if (local_search) refine_placement(state);
          ASSERT_TRUE(state.feasible());
          Allocation alloc = state.to_allocation();
          downgrade_processors(prob, alloc);
          for (const PurchasedProcessor& p : alloc.processors) {
            const int pid = state.proc_of(p.ops.front());
            EXPECT_EQ(downgraded_config(cat, state.config(pid),
                                        state.cpu_demand(pid),
                                        state.nic_load(pid)),
                      p.config)
                << heuristic_name(h) << " seed " << seed << " n " << n
                << " local search " << local_search;
          }
          // Whole-dollar prices: the sums agree exactly.
          EXPECT_EQ(projected_downgraded_cost(state), alloc.total_cost(cat));
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 48);
}

TEST(Downgrade, TieKeepsCurrentConfiguration) {
  // Two CPUs at the same price: B (faster) sorts first among the ties, so
  // cheapest_meeting names B even where A meets the load just as well.
  const PriceCatalog cat(100.0, {{500.0, 0.0}, {1000.0, 50.0}, {2000.0, 50.0}},
                         {{100.0, 0.0}});
  const ProcessorConfig c{0, 0}, a{1, 0}, b{2, 0};
  ASSERT_EQ(cat.cost(a), cat.cost(b));
  ASSERT_EQ(cat.cheapest_meeting(800.0, 50.0), b);
  // A tie keeps the current configuration...
  EXPECT_EQ(downgraded_config(cat, a, 800.0, 50.0), a);
  EXPECT_EQ(downgraded_config(cat, b, 800.0, 50.0), b);
  // ...a strictly cheaper one replaces it...
  EXPECT_EQ(downgraded_config(cat, a, 400.0, 50.0), c);
  EXPECT_EQ(downgraded_config(cat, b, 400.0, 50.0), c);
  // ...and a load no configuration meets keeps it too.
  EXPECT_EQ(downgraded_config(cat, a, 3000.0, 50.0), a);
}

} // namespace
} // namespace insp
