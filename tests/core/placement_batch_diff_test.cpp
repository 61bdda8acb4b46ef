// Differential oracle for the fresh-processor verdicts (docs/DESIGN.md §10):
// along a seeded random walk over the full mutation surface — the same
// action mix as the placement fuzzer, including the demand refreshes that
// drive the state infeasible — every probe step checks that
//
//   * can_place_on_new_batch matches the literal buy + can_place + sell
//     emulation for every catalog configuration, on feasible and degraded
//     states alike;
//   * the group lift's single journal baseline rolls back bit-exactly: every
//     observable value (assignment, loads, link traffic, cost) compares
//     EQUAL — not near — before and after the call, in particular after
//     calls whose verdicts all failed.
//
// The sequential probe is the specification; the fresh-processor verdict
// shares the journal machinery but none of the verdict arithmetic, so any
// divergence in the footprint fold fails here within one step of the state
// shape that exposed it.  A hand-built case pins the transient-source shape:
// a group spread over two processors whose connecting link is already over
// capacity.
#include "core/placement_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "platform/catalog.hpp"
#include "platform/platform.hpp"
#include "tree/tree_generator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace insp {
namespace {

struct DiffWorld {
  OperatorTree tree;
  Platform platform;
  PriceCatalog prices;

  Problem problem() const {
    Problem p;
    p.tree = &tree;
    p.platform = &platform;
    p.catalog = &prices;
    p.rho = 1.0;
    return p;
  }
};

DiffWorld make_world(std::uint64_t seed, int n_ops) {
  Rng gen(seed);
  ObjectCatalog objects = ObjectCatalog::random(gen, 6, 5.0, 30.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = n_ops;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = 6;
  OperatorTree tree = generate_random_tree(gen, tcfg, objects);
  std::vector<DataServer> servers;
  for (int s = 0; s < 3; ++s) {
    servers.push_back(DataServer{s, units::gigabytes_per_sec(10.0),
                                 {0, 1, 2, 3, 4, 5}});
  }
  Platform platform(std::move(servers), units::gigabytes_per_sec(1.0),
                    units::gigabytes_per_sec(1.0), 6);
  return DiffWorld{std::move(tree), std::move(platform),
                   PriceCatalog::paper_default()};
}

/// Every observable double and int of the state, for EXACT (bit-level on
/// the doubles) rollback comparison.
struct Fingerprint {
  std::vector<int> assignment;
  std::vector<int> live;
  std::vector<double> loads;    // cpu, download, comm per live pid
  std::vector<double> traffic;  // pairwise, live x live upper triangle
  double cost = 0.0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PlacementState& state, int n_ops) {
  Fingerprint f;
  for (int op = 0; op < n_ops; ++op) f.assignment.push_back(state.proc_of(op));
  f.live = state.live_processors();
  for (int pid : f.live) {
    f.loads.push_back(state.cpu_demand(pid));
    f.loads.push_back(state.download_load(pid));
    f.loads.push_back(state.comm_load(pid));
  }
  for (std::size_t i = 0; i < f.live.size(); ++i) {
    for (std::size_t j = i + 1; j < f.live.size(); ++j) {
      f.traffic.push_back(state.pair_traffic(f.live[i], f.live[j]));
    }
  }
  f.cost = state.total_cost();
  return f;
}

std::vector<int> random_group(Rng& rng, PlacementState& state, int n_ops) {
  // Mostly small random groups (the heuristics' common case); sometimes a
  // whole processor's operator list (the merge/eviction case — maximal
  // source/transient interaction with the baseline).
  std::vector<int> ops;
  if (rng.bernoulli(0.25) && state.num_live_processors() > 0) {
    const auto& live = state.live_processors();
    ops = state.ops_on(live[rng.index(live.size())]);
    if (!ops.empty()) return ops;
  }
  const int count = 1 + static_cast<int>(rng.index(4));
  for (int i = 0; i < count; ++i) {
    const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
    if (std::find(ops.begin(), ops.end(), op) == ops.end()) ops.push_back(op);
  }
  return ops;
}

/// Literal emulation of one fresh-processor verdict: buy, probe, sell.
bool literal_new_verdict(PlacementState& state, const std::vector<int>& ops,
                         ProcessorConfig config) {
  const int pid = state.buy(config);
  const bool ok = state.can_place(ops, pid);
  state.sell(pid);
  return ok;
}

TEST(PlacementBatchDiff, NewProcessorVerdictsMatchLiteralBuyEveryStep) {
  constexpr int kSteps = 1500;
  DiffWorld world = make_world(0xBA7C4u, /*n_ops=*/24);
  PlacementState state(world.problem());
  Rng rng(0xBA7C4u);
  const int n_ops = world.tree.num_operators();
  const auto& configs = world.prices.by_cost();

  // Coverage counters: the walk must hit both verdicts and calls that fail
  // on every configuration.
  long true_verdicts = 0, false_verdicts = 0;
  long all_false_calls = 0, config_checks = 0;

  std::vector<unsigned char> batch_new;
  for (int step = 0; step < kSteps; ++step) {
    const std::vector<int> live = state.live_processors();
    const int action = static_cast<int>(rng.index(100));

    if (action < 12 || live.empty()) {
      state.buy(configs[rng.index(configs.size())]);
    } else if (action < 17) {
      for (int pid : live) {
        if (state.ops_on(pid).empty()) {
          state.sell(pid);
          break;
        }
      }
    } else if (action < 40) {  // mutate: committed move
      const std::vector<int> ops = random_group(rng, state, n_ops);
      state.try_place(ops, live[rng.index(live.size())]);
    } else if (action < 75) {  // THE DIFFERENTIAL CHECK
      const std::vector<int> ops = random_group(rng, state, n_ops);
      const Fingerprint before = fingerprint(state, n_ops);

      state.can_place_on_new_batch(ops, configs, batch_new);
      ASSERT_EQ(fingerprint(state, n_ops), before)
          << "step " << step << ": group lift did not roll back bit-exactly";
      ASSERT_EQ(batch_new.size(), configs.size());
      bool any_true = false;
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const bool seq = literal_new_verdict(state, ops, configs[c]);
        ASSERT_EQ(batch_new[c] != 0, seq)
            << "step " << step << ": new-processor verdict differs for "
            << "config " << c << " (group size " << ops.size() << ")";
        ++config_checks;
        (seq ? true_verdicts : false_verdicts) += 1;
        any_true |= seq;
      }
      if (!any_true) ++all_false_calls;
    } else if (action < 85) {  // dynamic demand refresh (may overload)
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      const MegaOps old_w = world.tree.op(op).work;
      const MegaBytes old_d = world.tree.op(op).output_mb;
      const double factor = rng.uniform_real(0.5, 1.9);
      world.tree.set_demand(op, old_w * factor, old_d * factor);
      state.refresh_op_demand(op, old_w, old_d);
    } else if (action < 93) {  // dynamic object-rate refresh
      const int type = static_cast<int>(rng.index(6));
      const MBps old_rate = world.tree.catalog().type(type).rate();
      world.tree.mutable_catalog().set_type_frequency(
          type, rng.uniform_real(0.1, 1.5));
      state.refresh_object_rate(type, old_rate);
    } else {  // raw search moves keep unassigned/assigned mixes in play
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      if (state.proc_of(op) == kNoNode) {
        state.search_place(op, live[rng.index(live.size())]);
      } else {
        state.search_unassign(op);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The walk exercised both verdict polarities and whole-call rejections.
  EXPECT_GT(config_checks, 2000);
  EXPECT_GT(true_verdicts, 200);
  EXPECT_GT(false_verdicts, 200);
  EXPECT_GT(all_false_calls, 5);
}

TEST(PlacementBatchDiff, TransientSourceOnOverloadedLinkMatchesLiteralBuy) {
  // Two adjacent operators on two different processors: lifting the group
  // moves the first member before the second, so the sequential probe
  // realizes their edge toward the second member's host for a moment.  The
  // link between the two hosts is then pushed over capacity by a demand
  // refresh, leaving a degraded state.  The fresh-processor verdict must
  // still equal the literal buy + probe + sell for every configuration.
  DiffWorld world = make_world(0x7A51u, /*n_ops=*/12);
  const int n_ops = world.tree.num_operators();
  int child = kNoNode, parent = kNoNode;
  for (int op = 0; op < n_ops && child == kNoNode; ++op) {
    if (!world.tree.op(op).out.empty()) {
      child = op;
      parent = world.tree.op(op).out.front().dst;
    }
  }
  ASSERT_NE(child, kNoNode);

  PlacementState state(world.problem());
  const auto& configs = world.prices.by_cost();
  const int a = state.buy(world.prices.most_expensive());
  const int b = state.buy(world.prices.most_expensive());
  ASSERT_TRUE(state.try_place(child, a));
  ASSERT_TRUE(state.try_place(parent, b));
  ASSERT_GT(state.pair_traffic(a, b), 0.0);

  // Scale the child's output until its edge alone overflows the link.
  const MegaOps old_w = world.tree.op(child).work;
  const MegaBytes old_d = world.tree.op(child).output_mb;
  const MBps link_cap = world.platform.link_proc_proc();
  world.tree.set_demand(child, old_w,
                        old_d * (2.0 * link_cap / state.pair_traffic(a, b)));
  state.refresh_op_demand(child, old_w, old_d);
  ASSERT_FALSE(fits_within(state.pair_traffic(a, b), link_cap));
  ASSERT_FALSE(state.overloaded_links().empty());

  // The move drains the overloaded link, so it must not veto every
  // configuration.
  std::vector<unsigned char> verdicts;
  for (const std::vector<int>& group :
       {std::vector<int>{child, parent}, std::vector<int>{parent, child}}) {
    const Fingerprint before = fingerprint(state, n_ops);
    state.can_place_on_new_batch(group, configs, verdicts);
    ASSERT_EQ(fingerprint(state, n_ops), before);
    ASSERT_EQ(verdicts.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(verdicts[c] != 0,
                literal_new_verdict(state, group, configs[c]))
          << "group {" << group[0] << ", " << group[1] << "}, config " << c;
    }
    EXPECT_NE(std::find(verdicts.begin(), verdicts.end(), 1), verdicts.end());
  }
}

TEST(PlacementBatchDiff, LinkStillOverloadedAfterLiftMatchesLiteralBuy) {
  // Two children of one parent share a processor; the parent sits on
  // another.  The first child's edge alone overloads their link, so lifting
  // the second child drains the link only partly: the literal probe
  // re-validates the still-overloaded link, finds its load shrunk, and
  // accepts.  The fresh-processor verdict must judge the links the lift
  // touched the same way.
  DiffWorld world = make_world(0x7A51u, /*n_ops=*/12);
  int parent = kNoNode;
  for (int op = 0; op < world.tree.num_operators(); ++op) {
    if (world.tree.op(op).children.size() >= 2) {
      parent = op;
      break;
    }
  }
  ASSERT_NE(parent, kNoNode);
  const int c1 = world.tree.op(parent).children[0];
  const int c2 = world.tree.op(parent).children[1];

  PlacementState state(world.problem());
  const int a = state.buy(world.prices.most_expensive());
  const int b = state.buy(world.prices.most_expensive());
  ASSERT_TRUE(state.try_place(std::vector<int>{c1, c2}, a));
  ASSERT_TRUE(state.try_place(parent, b));

  const MegaOps old_w = world.tree.op(c1).work;
  const MegaBytes old_d = world.tree.op(c1).output_mb;
  const MBps link_cap = world.platform.link_proc_proc();
  world.tree.set_demand(c1, old_w, 1.2 * link_cap / world.problem().rho);
  state.refresh_op_demand(c1, old_w, old_d);
  ASSERT_FALSE(state.overloaded_links().empty());
  ASSERT_TRUE(state.overloaded_processors().empty())
      << "only the link may be overloaded";

  const auto& configs = world.prices.by_cost();
  std::vector<unsigned char> verdicts;
  state.can_place_on_new_batch({c2}, configs, verdicts);
  ASSERT_EQ(verdicts.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(verdicts[c] != 0, literal_new_verdict(state, {c2}, configs[c]))
        << "config " << c;
    EXPECT_EQ(verdicts[c], 1) << "config " << c;
  }
}

} // namespace
} // namespace insp
