// Structural invariants of the seeded chaos generator: the detectability
// floors (down phases outlive the timeout, up gaps outlive the recovery
// window, faults are spaced apart), whole-beat scheduling, and the mutual
// consistency of the four renderings of one ground truth — chaos_beats,
// chaos_oracle_trace, chaos_transitions, servers_up_at.  These invariants
// are what the inferred-vs-oracle differential suite (tests/health/) and
// the golden chaos signatures stand on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dynamic/chaos_generator.hpp"
#include "util/rng.hpp"

namespace insp {
namespace {

constexpr int kNumServers = 6;

bool is_whole_beats(double seconds, double interval) {
  const double beats = seconds / interval;
  return std::abs(beats - std::round(beats)) < 1e-9;
}

TEST(ChaosGenerator, SameSeedSameTrace) {
  const ChaosGenConfig cfg;
  Rng a(2026), b(2026);
  const ChaosTrace ta = generate_chaos(a, cfg, kNumServers);
  const ChaosTrace tb = generate_chaos(b, cfg, kNumServers);
  ASSERT_EQ(ta.faults.size(), tb.faults.size());
  EXPECT_EQ(ta.horizon_s, tb.horizon_s);
  for (std::size_t i = 0; i < ta.faults.size(); ++i) {
    EXPECT_EQ(ta.faults[i].cls, tb.faults[i].cls);
    EXPECT_EQ(ta.faults[i].servers, tb.faults[i].servers);
    EXPECT_EQ(ta.faults[i].start_s, tb.faults[i].start_s);
    EXPECT_EQ(ta.faults[i].end_s, tb.faults[i].end_s);
  }
}

TEST(ChaosGenerator, FloorsAndWholeBeatSchedulingHoldAcrossSeeds) {
  ChaosGenConfig cfg;
  cfg.num_faults = 8;
  const double interval = cfg.beat_interval_s;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const ChaosTrace trace = generate_chaos(rng, cfg, kNumServers);
    ASSERT_EQ(trace.faults.size(), static_cast<std::size_t>(cfg.num_faults));
    double prev_end = 0.0;
    for (const ChaosFault& f : trace.faults) {
      // Affected sets: non-empty, sorted, in range, never the whole
      // platform.
      ASSERT_FALSE(f.servers.empty());
      EXPECT_TRUE(std::is_sorted(f.servers.begin(), f.servers.end()));
      EXPECT_LT(f.servers.size(), static_cast<std::size_t>(kNumServers));
      EXPECT_GE(f.servers.front(), 0);
      EXPECT_LT(f.servers.back(), kNumServers);
      // Whole-beat scheduling.
      EXPECT_TRUE(is_whole_beats(f.start_s, interval));
      EXPECT_TRUE(is_whole_beats(f.end_s, interval));
      // Disjoint in time, with room for the previous fault's recovery
      // inference to land before this fault begins.  (The inter-fault
      // floor does not apply before the first fault, which only needs to
      // start after the quiet lead-in.)
      if (prev_end > 0.0) {
        EXPECT_GE(f.start_s - prev_end,
                  (cfg.timeout_beats + cfg.recovery_beats + 3) * interval);
      } else {
        EXPECT_GE(f.start_s, cfg.start_beats * interval);
      }
      prev_end = f.end_s;
      if (f.cls == ChaosClass::Brownout) {
        // Delay pushes past the detection timeout, and the window leaves
        // room for the recovery chain over delayed beats.
        EXPECT_GT(f.beat_delay_s, cfg.timeout_beats * interval);
        EXPECT_GE(f.end_s - f.start_s,
                  f.beat_delay_s + cfg.recovery_beats * interval);
        continue;
      }
      EXPECT_GE(f.down_s, (cfg.timeout_beats + 2) * interval);
      EXPECT_GE(f.flaps, 1);
      if (f.cls != ChaosClass::Flapping) {
        EXPECT_EQ(f.flaps, 1);
      }
      if (f.flaps > 1) {
        EXPECT_GE(f.up_gap_s, (cfg.recovery_beats + 2) * interval);
      }
      EXPECT_EQ(f.end_s - f.start_s,
                f.flaps * f.down_s + (f.flaps - 1) * f.up_gap_s);
    }
    EXPECT_GE(trace.horizon_s,
              prev_end + (cfg.timeout_beats + cfg.recovery_beats) * interval);
  }
}

TEST(ChaosGenerator, BeatsAreSortedAndAbsentExactlyDuringDownPhases) {
  ChaosGenConfig cfg;
  cfg.w_brownout = 0.0;  // beat-loss classes only: absence == down phase
  Rng rng(7);
  const ChaosTrace trace = generate_chaos(rng, cfg, kNumServers);
  const std::vector<BeatObservation> beats = chaos_beats(trace);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_TRUE(beats[i - 1].time < beats[i].time ||
                (beats[i - 1].time == beats[i].time &&
                 beats[i - 1].server < beats[i].server));
  }
  // Reconstruct the schedule: server s beats at k * interval unless its
  // ground truth says down.
  const double interval = trace.beat_interval_s;
  const long long n_beats =
      static_cast<long long>(std::llround(trace.horizon_s / interval));
  std::size_t seen = 0;
  for (long long k = 1; k <= n_beats; ++k) {
    const double t = static_cast<double>(k) * interval;
    const std::vector<bool> up = servers_up_at(trace, t);
    for (int s = 0; s < kNumServers; ++s) {
      const bool expect_beat = up[static_cast<std::size_t>(s)];
      const bool found =
          std::any_of(beats.begin(), beats.end(), [&](const BeatObservation& b) {
            return b.server == s && b.time == t;
          });
      EXPECT_EQ(found, expect_beat) << "server " << s << " at t=" << t;
      if (found) ++seen;
    }
  }
  EXPECT_EQ(seen, beats.size());  // no extra (delayed) beats in this family
}

TEST(ChaosGenerator, BrownoutDelaysBeatsInsteadOfDroppingThem) {
  ChaosGenConfig cfg;
  cfg.w_rack = cfg.w_flap = cfg.w_partition = 0.0;
  cfg.num_faults = 3;
  Rng rng(11);
  const ChaosTrace trace = generate_chaos(rng, cfg, kNumServers);
  const std::vector<BeatObservation> beats = chaos_beats(trace);
  const double interval = trace.beat_interval_s;
  // Every scheduled beat of every server is present: brownout loses
  // nothing.
  const long long n_beats =
      static_cast<long long>(std::llround(trace.horizon_s / interval));
  EXPECT_EQ(beats.size(),
            static_cast<std::size_t>(n_beats) *
                static_cast<std::size_t>(kNumServers));
  // Beats scheduled inside a brownout window arrive exactly delay late.
  for (const ChaosFault& f : trace.faults) {
    ASSERT_EQ(f.cls, ChaosClass::Brownout);
    const int s = f.servers.front();
    int delayed = 0;
    for (long long k = 1; k <= n_beats; ++k) {
      const double t = static_cast<double>(k) * interval;
      if (t < f.start_s || t >= f.end_s) continue;
      const double expected = t + f.beat_delay_s;
      EXPECT_TRUE(std::any_of(
          beats.begin(), beats.end(), [&](const BeatObservation& b) {
            return b.server == s && b.time == expected;
          }))
          << "delayed beat of server " << s << " scheduled at " << t;
      ++delayed;
    }
    EXPECT_GT(delayed, 0);
    // The ground truth never takes a brownout server down.
    EXPECT_TRUE(servers_up_at(
        trace, f.start_s + interval)[static_cast<std::size_t>(s)]);
  }
  // ... and the oracle trace is empty: no real transitions happened.
  EXPECT_TRUE(chaos_oracle_trace(trace).events.empty());
}

TEST(ChaosGenerator, OracleTraceMatchesTransitionsAndAvailability) {
  ChaosGenConfig cfg;
  cfg.w_brownout = 0.0;
  cfg.num_faults = 8;
  Rng rng(13);
  const ChaosTrace trace = generate_chaos(rng, cfg, kNumServers);
  const EventTrace oracle = chaos_oracle_trace(trace);
  const std::vector<TruthTransition> transitions = chaos_transitions(trace);
  ASSERT_EQ(oracle.events.size(), transitions.size());
  for (std::size_t i = 0; i < oracle.events.size(); ++i) {
    const WorkloadEvent& e = oracle.events[i];
    const TruthTransition& t = transitions[i];
    EXPECT_EQ(e.time, t.time);
    EXPECT_EQ(e.server, t.server);
    EXPECT_EQ(e.kind == EventKind::ServerFailure, t.down);
    // Just inside a down phase the server is down; at the recovery instant
    // (phase end, half-open) it is back up.
    const std::vector<bool> up = servers_up_at(trace, e.time);
    EXPECT_EQ(up[static_cast<std::size_t>(e.server)], !t.down);
  }
  // Per server the oracle alternates failure / recovery.
  for (int s = 0; s < kNumServers; ++s) {
    bool down = false;
    for (const WorkloadEvent& e : oracle.events) {
      if (e.server != s) continue;
      if (e.kind == EventKind::ServerFailure) {
        EXPECT_FALSE(down);
        down = true;
      } else {
        EXPECT_TRUE(down);
        down = false;
      }
    }
    EXPECT_FALSE(down);  // every fault heals within the horizon
  }
}

TEST(ChaosGenerator, ClassPredicatesAndNames) {
  EXPECT_EQ(all_chaos_classes().size(), 4u);
  EXPECT_TRUE(is_beat_loss(ChaosClass::RackFailure));
  EXPECT_TRUE(is_beat_loss(ChaosClass::Flapping));
  EXPECT_TRUE(is_beat_loss(ChaosClass::Partition));
  EXPECT_FALSE(is_beat_loss(ChaosClass::Brownout));
  for (ChaosClass cls : all_chaos_classes()) {
    EXPECT_STRNE(to_string(cls), "unknown");
  }
}

} // namespace
} // namespace insp
