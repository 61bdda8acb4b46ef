// Differential oracle suite: the sparse pre-indexed simulator core and the
// compiled-in dense reference must agree *bit-exactly* — same results
// produced, same first output period, same achieved throughput, same
// sustained verdict — across randomized trees, forests, degraded platforms
// and degenerate configs.  Any divergence means the sparse core changed
// semantics, not just data layout.
//
// The sparse core also fast-forwards over whole steady-state cycles once
// its period-normalized state repeats (DESIGN.md §8) while the dense
// reference always runs the full window, so the suite pins that the jump
// is exact: long windows, explicit warmups at every offset from the
// detection point, and plans that must never repeat (unsustained,
// starved) all agree bit-exactly.
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/allocator.hpp"
#include "dynamic/scenario_engine.hpp"
#include "multi/multi_app.hpp"
#include "oracles/event_sim_dense.hpp"
#include "sim/event_sim.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::random_fixture;

void expect_cores_agree(const Problem& problem, const Allocation& alloc,
                        const SimPlatformView& view,
                        const EventSimConfig& config,
                        const std::string& label) {
  const EventSimResult sparse =
      simulate_allocation(problem, alloc, view, config);
  const EventSimResult dense =
      simulate_allocation_dense_reference(problem, alloc, view, config);
  EXPECT_EQ(sparse.results_produced, dense.results_produced) << label;
  EXPECT_EQ(sparse.first_output_period, dense.first_output_period) << label;
  EXPECT_EQ(sparse.sustained, dense.sustained) << label;
  EXPECT_EQ(sparse.degenerate_config, dense.degenerate_config) << label;
  EXPECT_EQ(sparse.warmup_periods_used, dense.warmup_periods_used) << label;
  EXPECT_EQ(sparse.max_results_ahead_used, dense.max_results_ahead_used)
      << label;
  // Bit-exact, not approximately equal: both cores must execute the same
  // arithmetic in the same order.
  EXPECT_EQ(sparse.achieved_throughput, dense.achieved_throughput) << label;
  // The dense reference runs every period; the sparse core may skip some.
  EXPECT_EQ(dense.periods_simulated, std::max(0, config.periods)) << label;
  EXPECT_LE(sparse.periods_simulated, dense.periods_simulated) << label;
}

/// The fig1a tree (total work 250 Mops) on one processor of the given
/// speed, every download from server 0.
Fixture fig1a_on_one_processor(MopsPerSec speed, Allocation& alloc) {
  Fixture f = testhelpers::fig1a_fixture(1.0, 10.0);
  f.catalog = PriceCatalog(10.0, {{speed, 0.0}}, {{2500.0, 0.0}});
  PurchasedProcessor p;
  p.config = f.catalog.cheapest();
  p.ops = {0, 1, 2, 3, 4};
  p.downloads = {{0, 0}, {1, 0}, {2, 0}};
  alloc = Allocation{};
  alloc.processors.push_back(p);
  alloc.op_to_proc = {0, 0, 0, 0, 0};
  return f;
}

TEST(SimDifferential, RandomizedHeuristicPlans) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Fixture f = random_fixture(seed, 24, 1.2);
    for (const HeuristicKind kind :
         {HeuristicKind::CommGreedy, HeuristicKind::SubtreeBottomUp}) {
      Rng rng(seed);
      const AllocationOutcome out = allocate(f.problem(), kind, rng);
      if (!out.success) continue;
      expect_cores_agree(f.problem(), out.allocation,
                         SimPlatformView::uniform(f.platform), {},
                         "seed " + std::to_string(seed));
    }
  }
}

TEST(SimDifferential, OversubscribedPlansAgreeOnTheFailure) {
  // Backpressure, token queues and partial progress all engage when a
  // resource is over-subscribed; the cores must tell the same story.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Fixture f = random_fixture(seed, 20, 1.4);
    f.catalog = PriceCatalog(10.0, {{400.0, 0.0}}, {{120.0, 0.0}});
    Rng rng(seed);
    const AllocationOutcome out =
        allocate(f.problem(), HeuristicKind::CompGreedy, rng);
    if (!out.success) continue;
    expect_cores_agree(f.problem(), out.allocation,
                       SimPlatformView::uniform(f.platform), {},
                       "seed " + std::to_string(seed));
  }
}

TEST(SimDifferential, MultiApplicationForests) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Fixture base = random_fixture(seed, 12, 1.1);
    std::vector<ApplicationSpec> apps;
    apps.push_back({base.tree, 1.0});
    apps.push_back({base.tree, 0.5});
    apps.push_back({base.tree, 1.5});
    const CombinedApplication combined = combine_applications(apps);

    Problem prob;
    prob.tree = &combined.forest;
    prob.platform = &base.platform;
    prob.catalog = &base.catalog;
    prob.rho = 1.0;

    Rng rng(seed);
    const AllocationOutcome out =
        allocate(prob, HeuristicKind::SubtreeBottomUp, rng);
    if (!out.success) continue;
    expect_cores_agree(prob, out.allocation,
                       SimPlatformView::uniform(base.platform), {},
                       "forest seed " + std::to_string(seed));
  }
}

TEST(SimDifferential, DegradedPlatformInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Fixture f = random_fixture(seed, 24, 1.2);
    Rng rng(seed);
    const AllocationOutcome out =
        allocate(f.problem(), HeuristicKind::SubtreeBottomUp, rng);
    if (!out.success) continue;

    // Fail a random server and slow a random processor pair: the verdict
    // may flip to unsustained, but both cores must flip identically.
    SimPlatformView view = SimPlatformView::uniform(f.platform);
    Rng damage(seed ^ 0xD16EA5EDull);
    view.set_server_up(
        static_cast<int>(damage.index(
            static_cast<std::size_t>(f.platform.num_servers()))),
        false);
    const int n_procs = out.allocation.num_processors();
    if (n_procs >= 2) {
      const int u = static_cast<int>(
          damage.index(static_cast<std::size_t>(n_procs)));
      const int v = (u + 1) % n_procs;
      view.set_link_bandwidth(u, v, 2.0);
    }
    expect_cores_agree(f.problem(), out.allocation, view, {},
                       "degraded seed " + std::to_string(seed));
  }
}

TEST(SimDifferential, TightBackpressureBounds) {
  const Fixture f = random_fixture(3, 24, 1.2);
  Rng rng(3);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::CommGreedy, rng);
  ASSERT_TRUE(out.success);
  for (int bound : {1, 2, 3}) {
    EventSimConfig cfg;
    cfg.max_results_ahead = bound;
    expect_cores_agree(f.problem(), out.allocation,
                       SimPlatformView::uniform(f.platform), cfg,
                       "bound " + std::to_string(bound));
  }
}

TEST(SimDifferential, DegenerateConfigs) {
  const Fixture f = random_fixture(1, 16, 1.2);
  Rng rng(1);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::SubtreeBottomUp, rng);
  ASSERT_TRUE(out.success);
  const SimPlatformView view = SimPlatformView::uniform(f.platform);
  EventSimConfig no_window;
  no_window.periods = 40;
  no_window.warmup_periods = 40;
  expect_cores_agree(f.problem(), out.allocation, view, no_window,
                     "warmup == periods");
  EventSimConfig empty;
  empty.periods = 0;
  expect_cores_agree(f.problem(), out.allocation, view, empty, "0 periods");
}

TEST(SimDifferential, ScenarioReplayIdenticalAcrossThreadCounts) {
  // The scenario engine runs the simulator in worker threads over fixed
  // slots; every outcome — including the simulator verdicts — must be
  // identical for any thread count.
  const Fixture base = random_fixture(7, 10, 1.0);
  std::vector<ApplicationSpec> apps;
  apps.push_back({base.tree, 0.5});
  apps.push_back({base.tree, 0.5});

  Rng gen(99);
  TraceGenConfig tg;
  tg.num_events = 30;
  EventTrace trace = generate_trace(gen, tg, static_cast<int>(apps.size()),
                                    0.5, base.platform, base.tree.catalog());

  ScenarioOptions serial;
  serial.num_threads = 1;
  ScenarioOptions parallel = serial;
  parallel.num_threads = 4;
  const ScenarioResult a = replay_trace(apps, base.platform, base.catalog,
                                        trace, serial);
  const ScenarioResult b = replay_trace(apps, base.platform, base.catalog,
                                        trace, parallel);
  EXPECT_EQ(a.signature, b.signature);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].simulated, b.outcomes[i].simulated) << i;
    EXPECT_EQ(a.outcomes[i].sustained, b.outcomes[i].sustained) << i;
  }
  EXPECT_EQ(a.summary.sustained, b.summary.sustained);
  EXPECT_EQ(a.summary.simulated, b.summary.simulated);
}

/// The fig1a tree over two processors: n1, n2 on P1 and the rest on P0, so
/// the edge n2->n5 crosses.
Allocation fig1a_split(const Fixture& f) {
  Allocation split;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {4, 3};
  p0.downloads = {{0, 0}, {1, 0}};
  p1.config = f.catalog.most_expensive();
  p1.ops = {0, 1, 2};
  p1.downloads = {{1, 0}, {2, 0}};
  split.processors = {p0, p1};
  split.op_to_proc = {1, 1, 1, 0, 0};
  return split;
}

/// The fig1a root n4 alone on P0: both of its input edges cross, so the
/// root reads lane counters directly.
Allocation fig1a_remote_root(const Fixture& f) {
  Allocation split;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {0};
  p1.config = f.catalog.most_expensive();
  p1.ops = {1, 2, 3, 4};
  p1.downloads = {{0, 0}, {1, 0}, {2, 0}};
  split.processors = {p0, p1};
  split.op_to_proc = {0, 1, 1, 1, 1};
  return split;
}

TEST(SimDifferential, FastForwardIsExactOnLongSustainedWindows) {
  int fast_forwarded = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Fixture f = random_fixture(seed, 24, 1.2);
    Rng rng(seed);
    const AllocationOutcome out =
        allocate(f.problem(), HeuristicKind::SubtreeBottomUp, rng);
    if (!out.success) continue;
    for (int periods : {2000, 5000}) {
      EventSimConfig cfg;
      cfg.periods = periods;
      const std::string label =
          "seed " + std::to_string(seed) + " periods " +
          std::to_string(periods);
      expect_cores_agree(f.problem(), out.allocation,
                         SimPlatformView::uniform(f.platform), cfg, label);
      const EventSimResult r = simulate_allocation(f.problem(),
                                                   out.allocation, cfg);
      ASSERT_TRUE(r.sustained) << label;
      EXPECT_LT(r.periods_simulated, periods) << label;
      ++fast_forwarded;
    }
  }
  EXPECT_GT(fast_forwarded, 0);

  // Crossing traffic: the jump must carry the lane counters and the tokens
  // in flight, on a healthy link and on a tight one.
  const Fixture fig = testhelpers::fig1a_fixture(1.0, 10.0);
  for (const Allocation& split : {fig1a_split(fig), fig1a_remote_root(fig)}) {
    for (MBps link : {1000.0, 101.0}) {
      SimPlatformView view = SimPlatformView::uniform(fig.platform);
      view.set_link_bandwidth(0, 1, link);
      for (int periods : {2000, 5000}) {
        EventSimConfig cfg;
        cfg.periods = periods;
        const std::string label =
            "split root on P" + std::to_string(split.op_to_proc[0]) +
            " link " + std::to_string(link) + " periods " +
            std::to_string(periods);
        expect_cores_agree(fig.problem(), split, view, cfg, label);
        const EventSimResult r =
            simulate_allocation(fig.problem(), split, view, cfg);
        EXPECT_TRUE(r.sustained) << label;
        EXPECT_LT(r.periods_simulated, periods) << label;
      }
    }
  }
}

TEST(SimDifferential, HeavyOperatorAgreesWithAndWithoutARepeat) {
  // A CPU share that is no multiple of any operator's work: operators
  // that fell behind during the pipeline fill carry partial progress
  // across periods while they catch up.  With any headroom the plan
  // settles and is fast-forwarded.
  Allocation alloc;
  for (double headroom : {1.0, 1.01, 1.05, 1.1, 1.2, 1.37, 1.5, 2.0}) {
    const Fixture roomy = fig1a_on_one_processor(250.0 * headroom, alloc);
    for (int periods : {400, 2000}) {
      EventSimConfig cfg;
      cfg.periods = periods;
      const std::string label = "headroom " + std::to_string(headroom) +
                                " periods " + std::to_string(periods);
      expect_cores_agree(roomy.problem(), alloc,
                         SimPlatformView::uniform(roomy.platform), cfg,
                         label);
      const EventSimResult r =
          simulate_allocation(roomy.problem(), alloc, cfg);
      EXPECT_TRUE(r.sustained) << label;
      EXPECT_LT(r.periods_simulated, periods) << label;
    }
  }
  // 250 Mops of work on 100 Mops per period: one result every 2.5 periods,
  // a pattern that repeats every 5 periods.  But the counters fall behind
  // the period by 3 results per cycle, so the normalized state never
  // repeats and the full window must run.
  const Fixture heavy = fig1a_on_one_processor(100.0, alloc);
  for (int periods : {400, 2000}) {
    EventSimConfig cfg;
    cfg.periods = periods;
    expect_cores_agree(heavy.problem(), alloc,
                       SimPlatformView::uniform(heavy.platform), cfg,
                       "heavy " + std::to_string(periods));
    const EventSimResult r =
        simulate_allocation(heavy.problem(), alloc, cfg);
    EXPECT_FALSE(r.sustained);
    EXPECT_EQ(r.periods_simulated, periods);
  }
}

TEST(SimDifferential, ExplicitWarmupAtEveryOffsetFromTheRepeat) {
  // A jump never crosses the warmup boundary: the warmup snapshot must be
  // the one a full run takes, wherever the warmup falls relative to the
  // detected cycle — before it, on the detection period, after it, and
  // at the last period of the window.
  const Fixture f = random_fixture(2, 24, 1.2);
  Rng rng(2);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::CommGreedy, rng);
  ASSERT_TRUE(out.success);
  const SimPlatformView view = SimPlatformView::uniform(f.platform);
  std::vector<int> warmups;
  for (int w = 0; w <= 80; ++w) warmups.push_back(w);
  for (int w : {127, 128, 129, 200, 399}) warmups.push_back(w);
  for (int w : warmups) {
    EventSimConfig cfg;
    cfg.periods = 400;
    cfg.warmup_periods = w;
    expect_cores_agree(f.problem(), out.allocation, view, cfg,
                       "warmup " + std::to_string(w));
  }
}

TEST(SimDifferential, UnsustainedAndStarvedPlansRunTheFullWindow) {
  // Counters that fall behind the period never repeat once normalized by
  // it, so there is nothing to skip.
  // Unsustained: the fig1a split plan's crossing edge n2->n5 moves 40 MB
  // a period over a 5 MB/s pair link.
  const Fixture fig = testhelpers::fig1a_fixture(1.0, 10.0);
  const Allocation split = fig1a_split(fig);
  SimPlatformView slow = SimPlatformView::uniform(fig.platform);
  slow.set_link_bandwidth(0, 1, 5.0);
  for (int periods : {400, 2000}) {
    EventSimConfig cfg;
    cfg.periods = periods;
    expect_cores_agree(fig.problem(), split, slow, cfg,
                       "slow link " + std::to_string(periods));
    const EventSimResult r =
        simulate_allocation(fig.problem(), split, slow, cfg);
    EXPECT_FALSE(r.sustained);
    EXPECT_EQ(r.periods_simulated, periods);
  }

  // Starved: every route of the plan points at server 0, which is down.
  Allocation alloc;
  const Fixture f = fig1a_on_one_processor(1000.0, alloc);
  SimPlatformView down = SimPlatformView::uniform(f.platform);
  down.set_server_up(0, false);
  for (int periods : {400, 2000}) {
    EventSimConfig cfg;
    cfg.periods = periods;
    expect_cores_agree(f.problem(), alloc, down, cfg,
                       "starved " + std::to_string(periods));
    const EventSimResult r = simulate_allocation(f.problem(), alloc, down, cfg);
    EXPECT_FALSE(r.sustained);
    EXPECT_EQ(r.periods_simulated, periods);
  }
}

} // namespace
} // namespace insp
