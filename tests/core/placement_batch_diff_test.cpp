// Differential oracle for the batched feasibility probes (docs/DESIGN.md
// §10): along a seeded random walk over the full mutation surface — the same
// action mix as the placement fuzzer, including the demand refreshes that
// drive the state infeasible — every probe step checks that
//
//   * can_place_batch / can_place_batch_relaxed verdicts are element-wise
//     identical to the sequential can_place / can_place_relaxed probes over
//     every live candidate (including candidates hosting group members, the
//     sequential-slow-path case, and relaxed probes on infeasible states);
//   * can_place_on_new_batch matches the literal buy + can_place + sell
//     emulation for every catalog configuration;
//   * the batch's single journal baseline rolls back bit-exactly: every
//     observable value (assignment, loads, link traffic, cost) compares
//     EQUAL — not near — before and after a batch call, in particular after
//     batches whose verdicts all failed.
//
// The sequential probes are the specification; the batch path shares the
// journal machinery but none of the verdict arithmetic, so any divergence
// in the SoA gather, the footprint fold, or the flat kernels fails here
// within one step of the state shape that exposed it.
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

TEST(PlacementBatchDiff, BatchVerdictsMatchSequentialProbesEveryStep) {
  constexpr int kSteps = 1500;
  DiffWorld world = make_world(0xBA7C4u, /*n_ops=*/24);
  PlacementState state(world.problem());
  Rng rng(0xBA7C4u);
  const int n_ops = world.tree.num_operators();
  const auto& configs = world.prices.by_cost();

  // Coverage counters: the walk must hit both verdicts in both modes, the
  // sequential slow path, and batches that fail on every candidate.
  long verdicts_checked = 0, true_verdicts = 0, false_verdicts = 0;
  long skip_candidates = 0, all_false_batches = 0, config_checks = 0;

  std::vector<unsigned char> batch, batch_relaxed, batch_new;
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
    } else if (action < 40) {  // mutate: strict or relaxed committed move
      const std::vector<int> ops = random_group(rng, state, n_ops);
      const int pid = live[rng.index(live.size())];
      if (rng.bernoulli(0.5)) {
        state.try_place_relaxed(ops, pid);
      } else {
        state.try_place(ops, pid);
      }
    } else if (action < 75) {  // THE DIFFERENTIAL CHECK
      const std::vector<int> ops = random_group(rng, state, n_ops);
      const Fingerprint before = fingerprint(state, n_ops);

      state.can_place_batch(ops, live, batch);
      ASSERT_EQ(fingerprint(state, n_ops), before)
          << "step " << step << ": strict batch did not roll back bit-exactly";
      state.can_place_batch_relaxed(ops, live, batch_relaxed);
      ASSERT_EQ(fingerprint(state, n_ops), before)
          << "step " << step << ": relaxed batch did not roll back bit-exactly";

      ASSERT_EQ(batch.size(), live.size());
      ASSERT_EQ(batch_relaxed.size(), live.size());
      bool any_true = false;
      for (std::size_t i = 0; i < live.size(); ++i) {
        const bool seq_strict = state.can_place(ops, live[i]);
        const bool seq_relaxed = state.can_place_relaxed(ops, live[i]);
        ASSERT_EQ(batch[i] != 0, seq_strict)
            << "step " << step << ": strict verdict differs for pid "
            << live[i] << " (group size " << ops.size() << ")";
        ASSERT_EQ(batch_relaxed[i] != 0, seq_relaxed)
            << "step " << step << ": relaxed verdict differs for pid "
            << live[i] << " (group size " << ops.size() << ")";
        verdicts_checked += 2;
        (seq_strict ? true_verdicts : false_verdicts) += 1;
        (seq_relaxed ? true_verdicts : false_verdicts) += 1;
        any_true |= seq_strict || seq_relaxed;
        for (int op : ops) {
          if (state.proc_of(op) == live[i]) {
            ++skip_candidates;
            break;
          }
        }
      }
      if (!any_true) ++all_false_batches;

      // first_feasible_target agrees with the first true sequential verdict.
      const int first = state.first_feasible_target(ops, live);
      int expected = kNoNode;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (batch[i]) {
          expected = live[i];
          break;
        }
      }
      ASSERT_EQ(first, expected) << "step " << step;

      // Hypothetical-purchase batch vs the literal buy + probe + sell.
      if (step % 5 == 0) {
        state.can_place_on_new_batch(ops, configs, batch_new);
        ASSERT_EQ(batch_new.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
          const int pid = state.buy(configs[c]);
          const bool seq = state.can_place(ops, pid);
          state.sell(pid);
          ASSERT_EQ(batch_new[c] != 0, seq)
              << "step " << step << ": new-processor verdict differs for "
              << "config " << c;
          ++config_checks;
        }
      }
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

  // The walk exercised every interesting shape, both verdict polarities,
  // the slow path, and whole-batch rejections.
  EXPECT_GT(verdicts_checked, 2000);
  EXPECT_GT(true_verdicts, 200);
  EXPECT_GT(false_verdicts, 200);
  EXPECT_GT(skip_candidates, 100);
  EXPECT_GT(all_false_batches, 5);
  EXPECT_GT(config_checks, 500);
}

} // namespace
} // namespace insp
