#include "dynamic/repair_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "bench_support/dynamic_world.hpp"
#include "core/constraints.hpp"
#include "dynamic_test_helpers.hpp"
#include "sim/event_sim.hpp"

namespace insp {
namespace {

using dyntest::make_world;

WorkloadEvent rho_event(int app_id, Throughput rho) {
  WorkloadEvent e;
  e.kind = EventKind::RhoChange;
  e.app_id = app_id;
  e.rho = rho;
  return e;
}

WorkloadEvent arrival_event(int app_id, int tree) {
  WorkloadEvent e;
  e.kind = EventKind::AppArrival;
  e.app_id = app_id;
  e.rho = 1.0;
  e.arrival_tree = tree;
  return e;
}

TEST(DynamicAllocator, InitializeProducesValidAllocation) {
  auto w = make_world(21);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  const RepairReport rep = engine.initialize(42);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_GT(engine.cost(), 0.0);
  EXPECT_EQ(engine.num_live_apps(), 2);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, RhoIncreaseRepairsAndStaysValid) {
  auto w = make_world(22);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(rho_event(0, 1.0), no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_DOUBLE_EQ(engine.rho_of(0), 1.0);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
  // The simulator confirms the repaired plan sustains the folded target.
  const EventSimResult sim =
      simulate_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(sim.sustained);
}

TEST(DynamicAllocator, RhoDecreaseConsolidatesCost) {
  auto w = make_world(23, /*apps=*/2, /*n_per_app=*/16, /*rho=*/1.0);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const Dollars before = engine.cost();
  const EventTrace no_trace;
  RepairReport rep = engine.apply(rho_event(0, 0.05), no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  rep = engine.apply(rho_event(1, 0.05), no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  // Released capacity turns back into dollars (merge + re-pricing passes).
  EXPECT_LE(engine.cost(), before);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, ObjectRateChangeKeepsAllocationValid) {
  auto w = make_world(24);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  WorkloadEvent e;
  e.kind = EventKind::ObjectRateChange;
  e.object_type = 2;
  e.freq_hz = 2.0;  // 4x the initial 0.5 Hz
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(e, no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_DOUBLE_EQ(engine.forest().catalog().type(2).freq_hz, 2.0);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, ServerFailureReroutesDownloadsAndRecoveryRestores) {
  auto w = make_world(25);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  WorkloadEvent fail;
  fail.kind = EventKind::ServerFailure;
  fail.server = 0;
  const EventTrace no_trace;
  RepairReport rep = engine.apply(fail, no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_EQ(engine.num_servers_down(), 1);
  ASSERT_FALSE(engine.servers_up()[0]);
  for (const PurchasedProcessor& p : engine.allocation().processors) {
    for (const DownloadRoute& d : p.downloads) {
      EXPECT_NE(d.server, 0) << "download routed to the failed server";
    }
  }
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
  // The simulator, handed the *degraded* view, confirms the re-routed plan
  // still sustains the target — every route now points at healthy servers.
  SimPlatformView degraded = SimPlatformView::uniform(engine.platform());
  degraded.set_server_up(0, false);
  const EventSimResult sim = simulate_allocation(
      engine.problem(), engine.allocation(), degraded);
  EXPECT_TRUE(sim.sustained);

  WorkloadEvent recover;
  recover.kind = EventKind::ServerRecovery;
  recover.server = 0;
  rep = engine.apply(recover, no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_EQ(engine.num_servers_down(), 0);
}

TEST(DynamicAllocator, ArrivalPlacesNewApplication) {
  auto w = make_world(26);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const int ops_before = engine.forest().num_operators();

  EventTrace trace;
  Rng gen(5);
  TreeGenConfig tcfg;
  tcfg.num_operators = 10;
  tcfg.alpha = 1.0;
  trace.arrival_trees.push_back(
      generate_random_tree(gen, tcfg, w.objects));
  WorkloadEvent e;
  e.kind = EventKind::AppArrival;
  e.app_id = 2;
  e.rho = 0.3;
  e.arrival_tree = 0;
  const RepairReport rep = engine.apply(e, trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_EQ(engine.num_live_apps(), 3);
  EXPECT_TRUE(engine.has_app(2));
  EXPECT_EQ(engine.forest().num_operators(), ops_before + 10);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, DepartureRemovesAppAndKeepsRestValid) {
  auto w = make_world(27, /*apps=*/3);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const Dollars before = engine.cost();
  WorkloadEvent e;
  e.kind = EventKind::AppDeparture;
  e.app_id = 1;
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(e, no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_EQ(engine.num_live_apps(), 2);
  EXPECT_FALSE(engine.has_app(1));
  EXPECT_TRUE(engine.has_app(0));
  EXPECT_TRUE(engine.has_app(2));
  EXPECT_LE(engine.cost(), before);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, EventOnDepartedAppIsBenignNoOp) {
  auto w = make_world(28, /*apps=*/2);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  WorkloadEvent gone;
  gone.kind = EventKind::AppDeparture;
  gone.app_id = 1;
  const EventTrace no_trace;
  ASSERT_TRUE(engine.apply(gone, no_trace).success);
  const Allocation before = engine.allocation();
  const RepairReport rep = engine.apply(rho_event(1, 1.0), no_trace);
  EXPECT_TRUE(rep.success);
  EXPECT_EQ(rep.ops_moved, 0);
  EXPECT_TRUE(engine.allocation() == before);
}

TEST(DynamicAllocator, ImpossibleDemandFailsButKeepsEngineAlive) {
  auto w = make_world(29);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  // A rho far past any CPU in the catalog: no heuristic can host it.
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(rho_event(0, 10000.0), no_trace);
  EXPECT_FALSE(rep.success);
  EXPECT_FALSE(rep.failure_reason.empty());
  // Re-purchase finds no configuration, so the event goes straight to
  // scratch, which fails too.
  EXPECT_TRUE(rep.used_fallback);
  EXPECT_NE(rep.fallback_reason.find("exceeds every configuration"),
            std::string::npos)
      << rep.fallback_reason;
  // The engine stays usable: lowering rho again repairs the world.
  const RepairReport back = engine.apply(rho_event(0, 0.5), no_trace);
  ASSERT_TRUE(back.success) << back.failure_reason;
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

// Repair re-purchases processors and nothing else, so an overloaded link
// goes to scratch.  Chain R <- M <- L (work 60, 30, 40; M ships 60 MB/s to
// R, L 10 MB/s to M) on HandWorld's processors, but with 50 MB/s
// processor-processor links.  At rho 0.8 the chain overflows one CPU
// (104), and the plan is {L, M} and {R} with 48 MB/s on their link.  At
// rho 1 both CPUs (70, 60) and NICs (60) still fit, but the link carries
// 60.  Moving M next to R would drain it (CPU 90, link 10), and the scratch
// plan does exactly that.
TEST(DynamicAllocator, LinkOverloadFallsBackToScratch) {
  const dyntest::HandWorld w;
  const Platform platform{{DataServer{0, 1e6, {0}}, DataServer{1, 1e6, {0}}},
                          1e6, 50.0, 1};
  DynamicAllocator engine(
      {{w.tree({kNoNode, 0, 1}, {60.0, 30.0, 40.0}, {1.0, 60.0, 10.0}), 0.8}},
      platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  ASSERT_EQ(engine.allocation().num_processors(), 2);
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(rho_event(0, 1.0), no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_TRUE(rep.used_fallback);
  EXPECT_EQ(rep.fallback_reason.rfind("repair: link", 0), 0u)
      << rep.fallback_reason;
  EXPECT_EQ(rep.reconfigures, 0);
  const std::vector<int>& home = engine.allocation().op_to_proc;
  EXPECT_EQ(home[1], home[0]);
  EXPECT_NE(home[2], home[0]);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, OutOfRangeEventsAreRejectedNotApplied) {
  auto w = make_world(35);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const Allocation before = engine.allocation();
  const EventTrace no_trace;

  WorkloadEvent bad_server;
  bad_server.kind = EventKind::ServerFailure;
  bad_server.server = 99;
  EXPECT_FALSE(engine.apply(bad_server, no_trace).success);

  WorkloadEvent bad_type;
  bad_type.kind = EventKind::ObjectRateChange;
  bad_type.object_type = 99;
  bad_type.freq_hz = 1.0;
  EXPECT_FALSE(engine.apply(bad_type, no_trace).success);

  WorkloadEvent bad_arrival;
  bad_arrival.kind = EventKind::AppArrival;
  bad_arrival.app_id = 7;
  bad_arrival.rho = 0.5;
  bad_arrival.arrival_tree = 3;  // no such tree in the (empty) trace
  EXPECT_FALSE(engine.apply(bad_arrival, no_trace).success);

  EXPECT_TRUE(engine.allocation() == before);
}

TEST(DynamicAllocator, NonFiniteRhoAndRateAreRejectedNotApplied) {
  auto w = make_world(37);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  EventTrace trace;
  Rng gen(5);
  TreeGenConfig tcfg;
  tcfg.num_operators = 6;
  tcfg.alpha = 1.0;
  trace.arrival_trees.push_back(generate_random_tree(gen, tcfg, w.objects));

  // Each bad event must be refused with its typed error and change nothing;
  // the valid event after it must then succeed.
  const auto refused = [&](const WorkloadEvent& bad, EventError error,
                           const WorkloadEvent& next) {
    const Allocation alloc = engine.allocation();
    const Dollars cost = engine.cost();
    const Throughput rho0 = engine.rho_of(0), rho1 = engine.rho_of(1);
    const MBps rate0 = engine.forest().catalog().type(0).rate();
    const RepairReport rep = engine.apply(bad, trace);
    EXPECT_FALSE(rep.success);
    EXPECT_EQ(rep.error, error) << to_string(rep.error);
    EXPECT_TRUE(engine.allocation() == alloc);
    EXPECT_EQ(engine.cost(), cost);
    EXPECT_EQ(engine.rho_of(0), rho0);
    EXPECT_EQ(engine.rho_of(1), rho1);
    EXPECT_EQ(engine.forest().catalog().type(0).rate(), rate0);
    EXPECT_EQ(engine.num_live_apps(), 2);
    const RepairReport ok = engine.apply(next, trace);
    EXPECT_TRUE(ok.success) << ok.failure_reason;
  };
  const double nan = std::nan("");
  for (double bad : {nan, HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    refused(rho_event(0, bad), EventError::kBadRho,
            rho_event(0, 0.9 * engine.rho_of(0)));

    WorkloadEvent rate;
    rate.kind = EventKind::ObjectRateChange;
    rate.object_type = 0;
    rate.freq_hz = bad;
    WorkloadEvent valid_rate = rate;
    valid_rate.freq_hz = 0.9 * engine.forest().catalog().type(0).freq_hz;
    refused(rate, EventError::kBadRate, valid_rate);

    WorkloadEvent arrive;
    arrive.kind = EventKind::AppArrival;
    arrive.app_id = 9;
    arrive.rho = bad;
    arrive.arrival_tree = 0;
    WorkloadEvent depart;  // undoes the valid arrival below
    depart.kind = EventKind::AppDeparture;
    depart.app_id = 9;
    WorkloadEvent valid_arrive = arrive;
    valid_arrive.rho = 0.1;
    refused(arrive, EventError::kBadRho, valid_arrive);
    ASSERT_TRUE(engine.apply(depart, trace).success);
  }
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, WorldSurvivesDrainingToZeroApps) {
  auto w = make_world(36, /*apps=*/2);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);

  EventTrace trace;
  Rng gen(9);
  TreeGenConfig tcfg;
  tcfg.num_operators = 10;
  tcfg.alpha = 1.0;
  trace.arrival_trees.push_back(generate_random_tree(gen, tcfg, w.objects));

  WorkloadEvent depart;
  depart.kind = EventKind::AppDeparture;
  for (int id : {0, 1}) {
    depart.app_id = id;
    ASSERT_TRUE(engine.apply(depart, trace).success);
  }
  EXPECT_EQ(engine.num_live_apps(), 0);
  EXPECT_DOUBLE_EQ(engine.cost(), 0.0);

  // App-facing events in the empty world are benign no-ops, but platform
  // state (a server failure) must still stick...
  ASSERT_TRUE(engine.apply(rho_event(0, 1.0), trace).success);
  WorkloadEvent fail;
  fail.kind = EventKind::ServerFailure;
  fail.server = 0;
  ASSERT_TRUE(engine.apply(fail, trace).success);
  EXPECT_EQ(engine.num_servers_down(), 1);

  // ...and an arrival repopulates the world from nothing, routing around
  // the server that failed while it was empty.
  WorkloadEvent arrive;
  arrive.kind = EventKind::AppArrival;
  arrive.app_id = 2;
  arrive.rho = 0.4;
  arrive.arrival_tree = 0;
  const RepairReport rep = engine.apply(arrive, trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_EQ(engine.num_live_apps(), 1);
  for (const PurchasedProcessor& p : engine.allocation().processors) {
    for (const DownloadRoute& d : p.downloads) EXPECT_NE(d.server, 0);
  }
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(DynamicAllocator, DepartureOfUnknownAppIsRejected) {
  auto w = make_world(31, /*apps=*/2);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const Allocation before = engine.allocation();
  const EventTrace no_trace;

  // Never-admitted app: rejected with a structured error, nothing applied.
  WorkloadEvent never;
  never.kind = EventKind::AppDeparture;
  never.app_id = 7;
  RepairReport rep = engine.apply(never, no_trace);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.error, EventError::kUnknownApp);
  EXPECT_FALSE(rep.failure_reason.empty());
  EXPECT_EQ(engine.num_live_apps(), 2);
  EXPECT_TRUE(engine.allocation() == before);

  // A second departure of an app that already left is the same error.
  WorkloadEvent gone;
  gone.kind = EventKind::AppDeparture;
  gone.app_id = 1;
  ASSERT_TRUE(engine.apply(gone, no_trace).success);
  rep = engine.apply(gone, no_trace);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.error, EventError::kUnknownApp);
  EXPECT_EQ(engine.num_live_apps(), 1);
}

TEST(DynamicAllocator, DuplicateServerFailureAndRecoveryAreIdempotent) {
  auto w = make_world(32);
  DynamicAllocator engine(w.apps, w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  const EventTrace no_trace;

  WorkloadEvent fail;
  fail.kind = EventKind::ServerFailure;
  fail.server = 0;
  RepairReport rep = engine.apply(fail, no_trace);
  ASSERT_TRUE(rep.success);
  EXPECT_FALSE(rep.already_known);
  ASSERT_EQ(engine.num_servers_down(), 1);
  const Allocation after_failure = engine.allocation();

  // A detector re-inferring an in-flight failure is a no-op success: the
  // allocation is untouched, no repair pass runs, nothing is double-applied.
  rep = engine.apply(fail, no_trace);
  EXPECT_TRUE(rep.success);
  EXPECT_TRUE(rep.already_known);
  EXPECT_EQ(rep.error, EventError::kNone);
  EXPECT_EQ(rep.ops_moved, 0);
  EXPECT_EQ(rep.procs_bought, 0);
  EXPECT_EQ(rep.reconfigures, 0);
  EXPECT_EQ(rep.cost_after, rep.cost_before);
  EXPECT_EQ(engine.num_servers_down(), 1);
  EXPECT_TRUE(engine.allocation() == after_failure);

  WorkloadEvent recover;
  recover.kind = EventKind::ServerRecovery;
  recover.server = 0;
  rep = engine.apply(recover, no_trace);
  ASSERT_TRUE(rep.success);
  EXPECT_FALSE(rep.already_known);
  EXPECT_EQ(engine.num_servers_down(), 0);

  // Recovering a healthy server is likewise already known.
  rep = engine.apply(recover, no_trace);
  EXPECT_TRUE(rep.success);
  EXPECT_TRUE(rep.already_known);
  EXPECT_EQ(engine.num_servers_down(), 0);

  // Fresh transitions keep reporting kNone and already_known == false.
  rep = engine.apply(fail, no_trace);
  EXPECT_FALSE(rep.already_known);
  rep = engine.apply(recover, no_trace);
  EXPECT_EQ(rep.error, EventError::kNone);
  EXPECT_FALSE(rep.already_known);
}

TEST(DynamicAllocator, AlwaysFallbackModeMatchesScratchPipeline) {
  auto w = make_world(30);
  RepairOptions opts;
  opts.always_fallback = true;
  DynamicAllocator engine(w.apps, w.platform, w.catalog, opts);
  ASSERT_TRUE(engine.initialize(42).success);
  const EventTrace no_trace;
  const RepairReport rep = engine.apply(rho_event(0, 0.8), no_trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_TRUE(rep.used_fallback);
  // Scratch disrupts every operator by definition.
  EXPECT_EQ(rep.ops_moved, engine.forest().num_operators());
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

// The running application is one operator (work 15) on one processor.  The
// arrival's children A and B (work 40, output 60 MB/s each) first-fit onto
// that processor; the root (work 40) then overflows its CPU, and alone on a
// fresh processor it would receive 120 MB/s through a 100 MB/s NIC.  The
// grouping step merges the root with A (the heavier edge; ties go to the
// smaller id): CPU 80, NIC 60.
TEST(DynamicAllocator, ArrivalRootThatFitsNowhereAloneIsGrouped) {
  const dyntest::HandWorld w;
  DynamicAllocator engine({{w.tree({kNoNode}, {15.0}, {1.0}), 1.0}},
                          w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  EventTrace trace;
  trace.arrival_trees.push_back(
      w.tree({kNoNode, 0, 0}, {40.0, 40.0, 40.0}, {1.0, 60.0, 60.0}));
  const RepairReport rep = engine.apply(arrival_event(1, 0), trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_FALSE(rep.used_fallback) << rep.fallback_reason;
  EXPECT_EQ(rep.groups_formed, 1);
  EXPECT_EQ(rep.ops_moved, 0);
  EXPECT_EQ(rep.procs_bought, 1);
  EXPECT_EQ(rep.procs_retired, 0);
  // Forest ids: 0 the running operator; 1 the root, 2 A, 3 B.
  const std::vector<int>& home = engine.allocation().op_to_proc;
  EXPECT_EQ(home[1], home[2]);
  EXPECT_EQ(home[3], home[0]);
  EXPECT_NE(home[1], home[0]);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

// A group can seat operators the bottom-up loop has not reached yet, and the
// loop must leave them where the group put them.  Arrival: root X (work 10)
// over M (work 40) and Z (work 20); M over A and B (work 20).  Every edge
// carries 60 MB/s.  A, B and Z first-fit beside the running operator (work
// 10; CPU 70).  M overflows that CPU and alone would receive 120 MB/s, so
// it grows a group along its heaviest edges (ties: smaller id): X, then A,
// then B, which fits (CPU 90, NIC 60).  X could still move next to Z
// without growing any load, which would split the group.
TEST(DynamicAllocator, OperatorsSeatedByAGroupStayWithIt) {
  const dyntest::HandWorld w;
  DynamicAllocator engine({{w.tree({kNoNode}, {10.0}, {1.0}), 1.0}},
                          w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  EventTrace trace;
  trace.arrival_trees.push_back(
      w.tree({kNoNode, 0, 1, 1, 0}, {10.0, 40.0, 20.0, 20.0, 20.0},
             {1.0, 60.0, 60.0, 60.0, 60.0}));
  const RepairReport rep = engine.apply(arrival_event(1, 0), trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_FALSE(rep.used_fallback) << rep.fallback_reason;
  EXPECT_EQ(rep.groups_formed, 1);
  EXPECT_EQ(rep.ops_moved, 0);
  EXPECT_EQ(rep.procs_bought, 1);
  // Forest ids: 0 the running operator; 1 X, 2 M, 3 A, 4 B, 5 Z.
  const std::vector<int>& home = engine.allocation().op_to_proc;
  EXPECT_EQ(home[1], home[2]);
  EXPECT_EQ(home[3], home[2]);
  EXPECT_EQ(home[4], home[2]);
  EXPECT_EQ(home[5], home[0]);
  EXPECT_NE(home[2], home[0]);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

// An arrival that fails outright leaves its seated operators in place, and
// the next event, of any kind, seats the rest with the same steps; there a
// group pulls an operator the failed event seated.  That application was
// never published, so the pull is no move.  The running operator R (work
// 15) takes the arrival's children A and B (work 40, output 60 MB/s each);
// the root X (work 70) fits nowhere alone (NIC 120) and not with A (CPU
// 110), and no scratch plan exists either.  At rho 0.9 X still fits neither
// beside R (CPU 150) nor alone (NIC 108), but X with A fits (CPU 99).
TEST(DynamicAllocator, GroupSeatsWhatAFailedArrivalLeftBehind) {
  const dyntest::HandWorld w;
  DynamicAllocator engine({{w.tree({kNoNode}, {15.0}, {1.0}), 1.0}},
                          w.platform, w.catalog);
  ASSERT_TRUE(engine.initialize(42).success);
  EventTrace trace;
  trace.arrival_trees.push_back(
      w.tree({kNoNode, 0, 0}, {70.0, 40.0, 40.0}, {1.0, 60.0, 60.0}));
  const RepairReport failed = engine.apply(arrival_event(1, 0), trace);
  ASSERT_FALSE(failed.success);
  EXPECT_EQ(failed.fallback_reason, "arrival: operator 1 fits no processor");
  EXPECT_EQ(failed.groups_formed, 0);
  // The last good allocation stays published: app 1 never ran.
  ASSERT_EQ(engine.allocation().op_to_proc.size(), 1u);
  const int home_r = engine.allocation().op_to_proc[0];

  const RepairReport rep = engine.apply(rho_event(1, 0.9), trace);
  ASSERT_TRUE(rep.success) << rep.failure_reason;
  EXPECT_FALSE(rep.used_fallback) << rep.fallback_reason;
  EXPECT_EQ(rep.groups_formed, 1);
  EXPECT_EQ(rep.ops_moved, 0);
  EXPECT_EQ(rep.procs_bought, 1);
  EXPECT_EQ(rep.procs_retired, 0);
  // Forest ids: 0 R; 1 X, 2 A, 3 B.
  const std::vector<int>& home = engine.allocation().op_to_proc;
  EXPECT_EQ(home[0], home_r);
  EXPECT_EQ(home[3], home[0]);
  EXPECT_EQ(home[1], home[2]);
  EXPECT_NE(home[1], home[0]);
  const CheckReport chk =
      check_allocation(engine.problem(), engine.allocation());
  EXPECT_TRUE(chk.ok()) << chk.summary();
}

// Grouping grows only inside the arriving application: the forest's
// applications share no edge.  A running operator may still move when
// consolidation merges two processors, but a merge moves whole processors,
// so two running operators that shared a processor still share one, and an
// arrival that reports no moved operator leaves them exactly as they were.
// The processor count moves by exactly procs_bought - procs_retired.
TEST(DynamicAllocator, ArrivalsKeepRunningOperatorsTogether) {
  int arrivals = 0;
  int groups = 0;
  for (std::uint64_t seed : {1u, 2u, 9u, 42u}) {
    benchx::DynamicWorld world = benchx::make_dynamic_world(seed, {40, 2, 24});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed).success);
    for (const WorkloadEvent& e : world.trace.events) {
      const std::vector<int> before = engine.allocation().op_to_proc;
      const int procs_before = engine.allocation().num_processors();
      const RepairReport rep = engine.apply(e, world.trace);
      ASSERT_TRUE(rep.success) << rep.failure_reason;
      EXPECT_EQ(engine.allocation().num_processors(),
                procs_before + rep.procs_bought - rep.procs_retired)
          << "seed " << seed << " " << to_string(e.kind);
      if (e.kind != EventKind::AppArrival) continue;
      ++arrivals;
      groups += rep.groups_formed;
      EXPECT_FALSE(rep.used_fallback) << rep.fallback_reason;
      // The arrival is appended, so running operators keep their ids.
      const std::vector<int>& after = engine.allocation().op_to_proc;
      std::map<int, int> image;     // old processor -> new processor
      std::map<int, int> preimage;  // new processor -> old processor
      for (std::size_t op = 0; op < before.size(); ++op) {
        EXPECT_EQ(image.emplace(before[op], after[op]).first->second,
                  after[op])
            << "seed " << seed << ": running operator " << op << " split off";
        if (rep.ops_moved == 0) {
          EXPECT_EQ(preimage.emplace(after[op], before[op]).first->second,
                    before[op])
              << "seed " << seed << ": running operator " << op << " moved";
        }
      }
      if (rep.ops_moved == 0) {
        EXPECT_EQ(rep.procs_retired, 0);
      }
      const CheckReport chk =
          check_allocation(engine.problem(), engine.allocation());
      EXPECT_TRUE(chk.ok()) << chk.summary();
    }
  }
  EXPECT_GT(arrivals, 0);
  EXPECT_GE(groups, 1);
}

// ops_moved counts the operators seated before the event that end it on
// another processor, each once; the arrival's own operators, which never
// ran, count nothing however the consolidation sweep moves them.  The
// count is held against the live state: demand and server events keep
// processor ids, and an arrival re-seats the processors in purchase order.
TEST(DynamicAllocator, OpsMovedCountsOnlyOperatorsThatRan) {
  int arrivals_with_moves = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const benchx::DynamicWorld world =
        benchx::make_dynamic_world(seed, {100, 2, 200});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed).success);
    for (const WorkloadEvent& e : world.trace.events) {
      const bool arrival = e.kind == EventKind::AppArrival;
      std::vector<int> expected;  // each seated operator's pid if it stays
      if (e.kind != EventKind::AppDeparture && engine.placement_state()) {
        const PlacementState& st = *engine.placement_state();
        const std::vector<int>& live = st.live_processors();
        for (int op = 0; op < engine.forest().num_operators(); ++op) {
          const int pid = st.proc_of(op);
          expected.push_back(
              !arrival || pid == kNoNode
                  ? pid
                  : static_cast<int>(
                        std::lower_bound(live.begin(), live.end(), pid) -
                        live.begin()));
        }
      }
      const RepairReport rep = engine.apply(e, world.trace);
      ASSERT_TRUE(rep.success) << rep.failure_reason;
      if (e.kind == EventKind::AppDeparture || !engine.placement_state()) {
        continue;
      }
      int moved = 0;
      for (std::size_t op = 0; op < expected.size(); ++op) {
        if (expected[op] != kNoNode &&
            engine.placement_state()->proc_of(static_cast<int>(op)) !=
                expected[op]) {
          ++moved;
        }
      }
      EXPECT_EQ(rep.ops_moved, moved)
          << "seed " << seed << " " << to_string(e.kind);
      if (arrival && moved > 0) ++arrivals_with_moves;
    }
  }
  EXPECT_GT(arrivals_with_moves, 0);
}

// The phase times are laps of one clock inside apply(): each is >= 0 and
// together they fit inside the call's wall time measured from outside.
TEST(DynamicAllocator, PhaseTimesFitInsideApply) {
  int timed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const benchx::DynamicWorld world =
        benchx::make_dynamic_world(seed, {400, 6, 25});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed ^ 0x5eed).success) << seed;
    for (const WorkloadEvent& event : world.trace.events) {
      const auto start = std::chrono::steady_clock::now();
      const RepairReport rep = engine.apply(event, world.trace);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const double phases[] = {rep.refold_s, rep.place_unassigned_s,
                               rep.repair_violations_s, rep.consolidate_s,
                               rep.finish_allocation_s};
      double sum = 0.0;
      for (double s : phases) {
        EXPECT_GE(s, 0.0) << "seed " << seed;
        sum += s;
      }
      EXPECT_LE(sum, wall) << "seed " << seed;
      if (rep.finish_allocation_s > 0.0) ++timed;
    }
  }
  EXPECT_GT(timed, 50);
}

} // namespace
} // namespace insp
