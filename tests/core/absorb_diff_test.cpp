// Differential test of PlacementState::try_absorb (docs/DESIGN.md §5):
// on random trees and shared-subexpression DAGs, with equal and unequal
// processor configurations, every absorb is run next to
// try_place(ops_on(from), into) on a copy of the same state.  Verdicts, the
// assignment, every op-list order, the live set, cost, download types and
// feasibility must be equal; loads and link traffic may differ only in
// floating-point summation order (fits_within tolerance, both ways).  A
// failed absorb must leave the state bit-identical to a copy taken before.
#include "core/placement_state.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "util/rng.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;

Fixture dag_fixture(std::uint64_t seed, int n_ops, double alpha) {
  Rng rng(seed);
  TreeGenConfig cfg;
  cfg.num_operators = n_ops;
  cfg.alpha = alpha;
  cfg.num_object_types = 15;
  OperatorTree dag = generate_shared_dag(rng, cfg, 0.35);
  ServerDistConfig dist;
  dist.num_servers = 6;
  dist.num_object_types = 15;
  Platform platform = make_paper_platform(rng, dist);
  return Fixture{std::move(dag), std::move(platform),
                 PriceCatalog::paper_default(), 1.0};
}

/// Bit-level view of everything a failed absorb must leave untouched.
struct Snapshot {
  std::vector<int> live, assignment, unassigned;
  std::vector<std::vector<int>> ops;
  std::vector<std::vector<int>> types;
  std::vector<double> loads;  // cpu, download, comm per live processor
  std::vector<double> traffic;
  Dollars cost = 0.0;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const PlacementState& st) {
  Snapshot s;
  s.live = st.live_processors();
  s.unassigned = st.unassigned_ops();
  for (int op = 0; op < st.problem().tree->num_operators(); ++op) {
    s.assignment.push_back(st.proc_of(op));
  }
  for (int pid : s.live) {
    s.ops.push_back(st.ops_on(pid));
    s.types.push_back(st.download_types(pid));
    s.loads.push_back(st.cpu_demand(pid));
    s.loads.push_back(st.download_load(pid));
    s.loads.push_back(st.comm_load(pid));
    for (int q : s.live) s.traffic.push_back(st.pair_traffic(pid, q));
  }
  s.cost = st.total_cost();
  return s;
}

bool near(double a, double b) { return fits_within(a, b) && fits_within(b, a); }

/// `absorbed` ran try_absorb, `placed` ran try_place on the same state.
void expect_same_result(const PlacementState& absorbed,
                        const PlacementState& placed) {
  ASSERT_EQ(absorbed.live_processors(), placed.live_processors());
  EXPECT_EQ(absorbed.unassigned_ops(), placed.unassigned_ops());
  for (int op = 0; op < absorbed.problem().tree->num_operators(); ++op) {
    ASSERT_EQ(absorbed.proc_of(op), placed.proc_of(op)) << "op " << op;
  }
  EXPECT_EQ(absorbed.total_cost(), placed.total_cost());
  EXPECT_EQ(absorbed.feasible(), placed.feasible());
  const std::vector<int>& live = absorbed.live_processors();
  for (int pid : live) {
    EXPECT_EQ(absorbed.config(pid), placed.config(pid));
    EXPECT_EQ(absorbed.ops_on(pid), placed.ops_on(pid)) << "proc " << pid;
    EXPECT_EQ(absorbed.download_types(pid), placed.download_types(pid));
    EXPECT_TRUE(near(absorbed.cpu_demand(pid), placed.cpu_demand(pid)));
    EXPECT_TRUE(near(absorbed.download_load(pid), placed.download_load(pid)));
    EXPECT_TRUE(near(absorbed.comm_load(pid), placed.comm_load(pid)))
        << absorbed.comm_load(pid) << " vs " << placed.comm_load(pid);
    for (int q : live) {
      EXPECT_TRUE(
          near(absorbed.pair_traffic(pid, q), placed.pair_traffic(pid, q)));
    }
  }
}

/// Buys `procs` processors — all of the top configuration, or a mix of
/// configurations — and seats the operators in random order, each on the
/// first processor (random rotation) that accepts it.  Operators nothing
/// accepts stay unassigned.  The result is feasible.
PlacementState seeded_state(const Fixture& f, Rng& rng, int procs,
                            bool uniform) {
  PlacementState st(f.problem());
  const auto& configs = f.catalog.by_cost();
  for (int i = 0; i < procs; ++i) {
    st.buy(uniform ? configs.back()
                   : configs[configs.size() / 2 + rng.index(
                                 configs.size() - configs.size() / 2)]);
  }
  std::vector<int> order(static_cast<std::size_t>(f.tree.num_operators()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);
  const std::vector<int> live = st.live_processors();
  for (int op : order) {
    const std::size_t start = rng.index(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (st.try_place(op, live[(start + k) % live.size()])) break;
    }
  }
  return st;
}

struct Tally {
  int swapped_ok = 0, swapped_failed = 0, forward_ok = 0, forward_failed = 0;
};

/// Merges random live pairs until at most one processor remains or a run of
/// attempts all fail, checking every absorb against try_place.
void walk(const Fixture& f, std::uint64_t seed, bool uniform, Tally& tally) {
  Rng rng(seed);
  PlacementState st = seeded_state(f, rng, 8, uniform);
  ASSERT_TRUE(st.feasible());
  int misses = 0;
  while (st.num_live_processors() > 1 && misses < 40) {
    const std::vector<int> live = st.live_processors();
    const int from = live[rng.index(live.size())];
    const int into = live[rng.index(live.size())];
    if (into == from || st.ops_on(from).empty()) {
      ++misses;
      continue;
    }
    const bool swaps = st.ops_on(from).size() > st.ops_on(into).size() &&
                       st.config(from) == st.config(into);
    const Snapshot before = snapshot(st);
    PlacementState placed = st;
    const bool expected = placed.try_place(placed.ops_on(from), into);
    const bool verdict = st.try_absorb(from, into);
    ASSERT_EQ(verdict, expected)
        << "absorb " << from << " -> " << into << (swaps ? " (swapped)" : "");
    if (verdict) {
      expect_same_result(st, placed);
      EXPECT_FALSE(st.is_live(from));
      ASSERT_TRUE(st.feasible());
      (swaps ? tally.swapped_ok : tally.forward_ok) += 1;
      misses = 0;
    } else {
      EXPECT_TRUE(snapshot(st) == before) << "failed absorb changed the state";
      (swaps ? tally.swapped_failed : tally.forward_failed) += 1;
      ++misses;
    }
  }
}

TEST(AbsorbDifferential, MatchesTryPlaceOnTreesAndDags) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const int n_ops = 20 + static_cast<int>(seed % 4) * 15;
    const double alpha = seed % 3 == 0 ? 1.5 : 1.1;
    const Fixture tree = testhelpers::random_fixture(
        seed, n_ops, alpha, 5.0, seed % 2 == 0 ? 90.0 : 30.0);
    const Fixture dag = dag_fixture(seed + 100, n_ops, alpha);
    for (bool uniform : {true, false}) {
      walk(tree, seed * 31 + (uniform ? 1 : 2), uniform, tally);
      walk(dag, seed * 37 + (uniform ? 1 : 2), uniform, tally);
    }
  }
  // Both directions, each both succeeding and failing.
  EXPECT_GT(tally.swapped_ok, 20);
  EXPECT_GT(tally.swapped_failed, 5);
  EXPECT_GT(tally.forward_ok, 20);
  EXPECT_GT(tally.forward_failed, 5);
}

TEST(AbsorbDifferential, KeepsTheTargetLabelAndOrder) {
  const Fixture f = testhelpers::fig1a_fixture();
  PlacementState st(f.problem());
  const ProcessorConfig top = f.catalog.by_cost().back();
  const int small = st.buy(top);
  const int big = st.buy(top);
  ASSERT_TRUE(st.try_place(std::vector<int>{0}, small));
  ASSERT_TRUE(st.try_place(std::vector<int>{3, 1, 4}, big));
  // `big` holds more operators: the content moves the cheap way, but the
  // union still lands on `small`, its operators first.
  ASSERT_TRUE(st.try_absorb(big, small));
  EXPECT_FALSE(st.is_live(big));
  EXPECT_EQ(st.live_processors(), std::vector<int>{small});
  EXPECT_EQ(st.ops_on(small), (std::vector<int>{0, 3, 1, 4}));
  for (int op : {0, 1, 3, 4}) EXPECT_EQ(st.proc_of(op), small);
  EXPECT_EQ(st.proc_of(2), kNoNode);
  EXPECT_EQ(st.comm_load(small), 0.0);
}

} // namespace
} // namespace insp
