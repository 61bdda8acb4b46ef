// Differential test of the per-event epilogue kernels: the flat-vector
// needed_types_per_processor, compute_link_loads, check_allocation and
// select_servers_three_loop against their std::set / std::map references
// (tests/oracles/epilogue_reference.hpp).  On every compared allocation the
// two sides must agree bit for bit: the same download lists, loads equal
// under ==, the same violations (kind and detail, in order) and the same
// selection failure reasons.  Allocations come from the six heuristics on
// random instances, from the dynamic engine after every replayed event, and
// from hand corruptions that trigger every ViolationKind.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "bench_support/dynamic_world.hpp"
#include "core/allocator.hpp"
#include "core/placement_state.hpp"
#include "core/strategy_registry.hpp"
#include "dynamic/repair_allocator.hpp"
#include "oracles/epilogue_reference.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;

struct Tally {
  int compared = 0;
  int selections_failed = 0;
  int violations = 0;
  std::set<ViolationKind> kinds;
};

bool fully_mapped(const Problem& problem, const Allocation& alloc) {
  if (static_cast<int>(alloc.op_to_proc.size()) !=
      problem.tree->num_operators()) {
    return false;
  }
  for (int u : alloc.op_to_proc) {
    if (u < 0 || u >= alloc.num_processors()) return false;
  }
  return true;
}

void expect_same_report(const CheckReport& got, const CheckReport& want,
                        const std::string& where) {
  ASSERT_EQ(got.violations.size(), want.violations.size())
      << where << "\n got: " << got.summary() << "\n want: " << want.summary();
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind)
        << where << " violation " << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail)
        << where << " violation " << i;
  }
}

void expect_same_links(const std::vector<LinkLoads::Entry>& got,
                       const std::map<std::pair<int, int>, MBps>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  auto w = want.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++w) {
    EXPECT_EQ(got[i].first, w->first) << where << " entry " << i;
    EXPECT_EQ(got[i].second, w->second) << where << " entry " << i;
  }
}

/// Needed types, link loads and the checker on one allocation.
void expect_same_kernels(const Problem& problem, const Allocation& alloc,
                         const std::string& where, Tally& tally) {
  const CheckReport got = check_allocation(problem, alloc);
  expect_same_report(got, check_allocation_reference(problem, alloc), where);
  ++tally.compared;
  tally.violations += static_cast<int>(got.violations.size());
  for (const Violation& v : got.violations) tally.kinds.insert(v.kind);

  if (!fully_mapped(problem, alloc)) return;
  EXPECT_EQ(needed_types_per_processor(problem, alloc),
            needed_types_per_processor_reference(problem, alloc))
      << where;
  const LinkLoads links = compute_link_loads(problem, alloc);
  const LinkLoadsReference ref = compute_link_loads_reference(problem, alloc);
  EXPECT_EQ(links.server_card, ref.server_card) << where;
  expect_same_links(links.server_proc, ref.server_proc, where + " server_proc");
  expect_same_links(links.proc_proc, ref.proc_proc, where + " proc_proc");
}

/// Runs both selections on copies of `placed`, compares their outcomes and
/// routes, then the kernels on the selected allocation.
void expect_same_selection(const Problem& problem, const Allocation& placed,
                           const std::string& where, Tally& tally) {
  Allocation fast = placed;
  Allocation ref = placed;
  const ServerSelectionResult got = select_servers_three_loop(problem, fast);
  const ServerSelectionResult want =
      select_servers_three_loop_reference(problem, ref);
  EXPECT_EQ(got.success, want.success) << where;
  EXPECT_EQ(got.failure_reason, want.failure_reason) << where;
  ASSERT_EQ(fast.processors.size(), ref.processors.size()) << where;
  for (std::size_t u = 0; u < fast.processors.size(); ++u) {
    EXPECT_EQ(fast.processors[u].downloads, ref.processors[u].downloads)
        << where << " P" << u;
  }
  if (!got.success) ++tally.selections_failed;
  expect_same_kernels(problem, fast, where + " selected", tally);
}

TEST(EpilogueDiff, MatchesReferenceAfterEveryHeuristic) {
  Tally tally;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Fixture f = testhelpers::random_fixture(seed, 40, 1.3);
    const Problem problem = f.problem();
    for (HeuristicKind kind : all_heuristics()) {
      const std::string where =
          std::string(heuristic_name(kind)) + " seed " + std::to_string(seed);
      PlacementState state(problem);
      Rng place_rng(seed);
      if (strategy_for(kind).place(state, place_rng).success) {
        expect_same_selection(problem, state.to_allocation(),
                              where + " placed", tally);
      }
      // The whole pipeline: its own selection (random for Random), the
      // downgrade, and the allocation it reports even on failure.
      Rng rng(seed);
      const AllocationOutcome out = allocate(problem, kind, rng);
      expect_same_kernels(problem, out.allocation, where + " allocate",
                          tally);
    }
  }
  EXPECT_GT(tally.compared, 300);
}

TEST(EpilogueDiff, MatchesReferenceAfterEveryReplayedEvent) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const benchx::DynamicWorld world =
        benchx::make_dynamic_world(seed, {400, 6, 25});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed ^ 0x5eed).success) << seed;
    for (std::size_t e = 0; e < world.trace.events.size(); ++e) {
      engine.apply(world.trace.events[e], world.trace);
      const std::string where =
          "world " + std::to_string(seed) + " event " + std::to_string(e);
      const Problem problem = engine.problem();
      expect_same_kernels(problem, engine.allocation(), where, tally);
      const PlacementState* state = engine.placement_state();
      if (state && state->num_unassigned() == 0) {
        expect_same_selection(problem, state->to_allocation(), where, tally);
      }
    }
  }
  EXPECT_GT(tally.compared, 900);
}

// fig1a's operators n4, n5, n2, n1 (types o0, o1) on P0 and n3 (o1, o2) on
// P1, both on the most expensive configuration, routed by the production
// selection.
Allocation split_fig1a(const Fixture& f) {
  const ProcessorConfig top = f.catalog.most_expensive();
  Allocation a;
  a.op_to_proc = {0, 0, 1, 0, 0};
  a.processors = {{top, {0, 1, 3, 4}, {}}, {top, {2}, {}}};
  EXPECT_TRUE(select_servers_three_loop(f.problem(), a).success);
  return a;
}

TEST(EpilogueDiff, MatchesReferenceOnHandCorruptions) {
  // Server 1 does not host o2, so P1's o2 route can be pointed at a server
  // that does not host it.
  Fixture f = testhelpers::fig1a_fixture();
  f.platform = testhelpers::simple_platform({{0, 1, 2}, {0, 1}}, 3);
  const Allocation base = split_fig1a(f);
  ASSERT_TRUE(check_allocation(f.problem(), base).ok())
      << check_allocation(f.problem(), base).summary();
  ASSERT_EQ(base.processors[1].downloads.back(), (DownloadRoute{2, 0}));

  struct Case {
    std::string name;
    ViolationKind expect;
    Allocation alloc;
    Fixture fixture;
  };
  std::vector<Case> cases;
  const auto add = [&](std::string name, ViolationKind expect,
                       const auto& corrupt) {
    Case c{std::move(name), expect, base, f};
    corrupt(c.alloc, c.fixture);
    cases.push_back(std::move(c));
  };
  add("duplicate route", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        auto& dl = a.processors[0].downloads;
        dl.insert(dl.begin() + 1, dl.front());
      });
  add("unknown type", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        a.processors[0].downloads.push_back({3, 0});
        a.processors[1].downloads.insert(a.processors[1].downloads.begin(),
                                         {-1, 0});
      });
  add("missing route", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        a.processors[0].downloads.erase(a.processors[0].downloads.begin());
      });
  add("unneeded route", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        a.processors[1].downloads.insert(a.processors[1].downloads.begin(),
                                         {0, 1});
      });
  add("unknown server", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        a.processors[0].downloads.front().server = 7;
        a.processors[1].downloads.front().server = -1;
      });
  add("non-hosting server", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        a.processors[1].downloads.back().server = 1;
      });
  add("every route wrong at once", ViolationKind::DownloadRouting,
      [](Allocation& a, Fixture&) {
        auto& dl = a.processors[1].downloads;
        dl = {{2, 1}, {0, 0}, {2, 0}, {5, 0}, {1, 9}, {0, 1}};
      });
  add("op_to_proc size", ViolationKind::Structure,
      [](Allocation& a, Fixture&) { a.op_to_proc.pop_back(); });
  add("map disagrees", ViolationKind::Structure,
      [](Allocation& a, Fixture&) { a.op_to_proc[2] = 0; });
  add("empty processor", ViolationKind::Structure,
      [](Allocation& a, Fixture&) {
        a.processors.push_back({a.processors[0].config, {}, {}});
      });
  add("no configuration", ViolationKind::Structure,
      [](Allocation& a, Fixture&) { a.processors[1].config = {}; });
  add("overloaded cpu and nic", ViolationKind::CpuCapacity,
      [](Allocation&, Fixture& fx) { fx.rho = 1e6; });
  add("overloaded nic", ViolationKind::ProcNic,
      [](Allocation& a, Fixture& fx) {
        a.processors[0].config = fx.catalog.cheapest();
        fx.rho = 1e3;
      });
  add("overloaded cards", ViolationKind::ServerCard,
      [](Allocation&, Fixture& fx) {
        fx.platform =
            testhelpers::simple_platform({{0, 1, 2}, {0, 1}}, 3, 1e-3);
      });
  add("overloaded server links", ViolationKind::ServerProcLink,
      [](Allocation&, Fixture& fx) {
        fx.platform = testhelpers::simple_platform({{0, 1, 2}, {0, 1}}, 3,
                                                   10000.0, 1e-3);
      });
  add("overloaded processor links", ViolationKind::ProcProcLink,
      [](Allocation&, Fixture& fx) {
        fx.platform = testhelpers::simple_platform({{0, 1, 2}, {0, 1}}, 3,
                                                   10000.0, 1000.0, 1e-3);
      });

  Tally tally;
  for (const Case& c : cases) {
    const Problem problem = c.fixture.problem();
    const CheckReport got = check_allocation(problem, c.alloc);
    bool found = false;
    for (const Violation& v : got.violations) found |= v.kind == c.expect;
    EXPECT_TRUE(found) << c.name << ": " << got.summary();
    expect_same_kernels(problem, c.alloc, c.name, tally);
  }
  // Every kind is reached.
  for (ViolationKind kind :
       {ViolationKind::Structure, ViolationKind::CpuCapacity,
        ViolationKind::ProcNic, ViolationKind::ServerCard,
        ViolationKind::ServerProcLink, ViolationKind::ProcProcLink,
        ViolationKind::DownloadRouting}) {
    EXPECT_TRUE(tally.kinds.count(kind)) << to_string(kind);
  }
}

// Several missing and several unneeded types on one processor: both lists
// come out in ascending type order, whatever the route order.
TEST(EpilogueDiff, MissingAndUnneededTypesComeOutAscending) {
  const Fixture f = testhelpers::random_fixture(3, 40, 1.3);
  const Problem problem = f.problem();
  PlacementState state(problem);
  Rng rng(3);
  ASSERT_TRUE(strategy_for(HeuristicKind::CompGreedy).place(state, rng)
                  .success);
  Allocation alloc = state.to_allocation();
  ASSERT_TRUE(select_servers_three_loop(problem, alloc).success);

  auto& routes = alloc.processors[0].downloads;
  const std::vector<DownloadRoute> needed = routes;
  ASSERT_GE(needed.size(), 2u);
  routes.clear();
  // Every type the processor does not need, descending, from a host.
  for (int t = f.tree.catalog().count() - 1; t >= 0; --t) {
    const bool is_needed =
        std::any_of(needed.begin(), needed.end(),
                    [t](const DownloadRoute& r) { return r.object_type == t; });
    const auto& hosts = f.platform.servers_with(t);
    if (!is_needed && !hosts.empty()) routes.push_back({t, hosts.front()});
  }
  // Keep only the last needed route, so the others go missing.
  routes.push_back(needed.back());
  ASSERT_GE(routes.size(), 3u);

  Tally tally;
  expect_same_kernels(problem, alloc, "ascending", tally);
  const CheckReport got = check_allocation(problem, alloc);
  int missing = 0, unneeded = 0;
  for (const Violation& v : got.violations) {
    missing += v.detail.find("misses a route") != std::string::npos;
    unneeded += v.detail.find("routes unneeded") != std::string::npos;
  }
  EXPECT_EQ(missing, static_cast<int>(needed.size()) - 1);
  EXPECT_EQ(unneeded, static_cast<int>(routes.size()) - 1);
}

TEST(EpilogueDiff, SelectionFailuresMatchReference) {
  Tally tally;
  // o2 is hosted by no server.
  Fixture orphan = testhelpers::fig1a_fixture();
  orphan.platform = testhelpers::simple_platform({{0, 1}, {0, 1}}, 3);
  // o2 lives on S0 alone, whose card cannot carry it (loop 1).
  Fixture exclusive = testhelpers::fig1a_fixture();
  exclusive.platform =
      testhelpers::simple_platform({{0, 1, 2}, {0, 1}}, 3, 1e-3);
  // Every type on both servers, neither card able to carry one (loop 3).
  Fixture starved = testhelpers::fig1a_fixture();
  starved.platform =
      testhelpers::simple_platform({{0, 1, 2}, {0, 1, 2}}, 3, 1e-3);
  // Loop 3 fails part way: one server link carries exactly one o1 stream.
  Fixture partial = testhelpers::fig1a_fixture();
  partial.platform = testhelpers::simple_platform({{0, 1, 2}, {0, 1, 2}}, 3,
                                                  10000.0, 10.0);

  const Fixture base_fixture = testhelpers::fig1a_fixture();
  const Allocation base = split_fig1a(base_fixture);
  for (const Fixture* f : {&orphan, &exclusive, &starved, &partial}) {
    expect_same_selection(f->problem(), base, "hand selection", tally);
  }
  EXPECT_GE(tally.selections_failed, 3);
}

} // namespace
} // namespace insp
