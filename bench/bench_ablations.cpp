// Ablations of the documented design decisions (docs/DESIGN.md §3): how
// much do (a) SBU's opportunistic sibling-processor coalescing and (b) the
// iterated (transitive) grouping technique matter, (c) how often does the
// three-loop server selection succeed where random selection fails, and
// (d) how much of the subexpression analysis' *predicted* sharing savings
// the fold pass (multi/subexpression_fold) actually *realizes* as fleet
// cost, sim-verified, and (e) how far each registry heuristic's full-
// pipeline cost sits above the PROVED exact optimum at paper sizes
// (docs/DESIGN.md §14).  Sections (d) and (e) emit machine-readable
// BENCH_ablations.json rows tagged "section": "fold" / "optimality_gap"
// (schema checked in CI by scripts/check_bench_json.py); --gate makes an
// unrealized saving, an unsustained plan, an unproved gap anchor or a
// heuristic gap above its pinned ceiling a hard failure.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/downgrade.hpp"
#include "core/server_selection.hpp"
#include "harness/optimality_gap.hpp"
#include "multi/multi_app.hpp"
#include "multi/subexpression.hpp"
#include "multi/subexpression_fold.hpp"
#include "oracles/ablation_variants.hpp"
#include "platform/server_distribution.hpp"
#include "sim/event_sim.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

struct VariantStats {
  SampleSet cost;
  int attempts = 0;
  int failures = 0;
};

void run_variant(const Problem& prob, const PlacementFn& place,
                 std::uint64_t seed, bool three_loop, VariantStats* stats) {
  ++stats->attempts;
  Rng rng(seed);
  PlacementState state(prob);
  const PlacementOutcome placed = place(state, rng);
  if (!placed.success) {
    ++stats->failures;
    return;
  }
  Allocation alloc = state.to_allocation();
  const ServerSelectionResult sel =
      three_loop ? select_servers_three_loop(prob, alloc)
                 : select_servers_random(prob, alloc, rng);
  if (!sel.success) {
    ++stats->failures;
    return;
  }
  downgrade_processors(prob, alloc);
  stats->cost.add(alloc.total_cost(*prob.catalog));
}

void print_stats(const char* name, const VariantStats& s) {
  if (s.cost.empty()) {
    std::printf("  %-44s all %d runs failed\n", name, s.attempts);
  } else {
    std::printf("  %-44s mean $%-9.0f fail %d/%d\n", name, s.cost.mean(),
                s.failures, s.attempts);
  }
}

// ---- (d) realized vs predicted subexpression sharing. ----------------------

struct FoldRow {
  int rep = 0;
  int num_apps = 0;
  int operators_forest = 0;
  int operators_folded = 0;
  int shared_nodes = 0;
  double predicted_work_saved = 0.0;
  double predicted_cost_bound = 0.0;
  double realized_work_saved = 0.0;
  double unfolded_cost = 0.0;
  double folded_cost = 0.0;
  double realized_cost_saving = 0.0;
  bool both_allocated = false;
  bool unfolded_sustained = false;
  bool folded_sustained = false;
};

/// Seeded shared-subexpression workload: three applications, two of them
/// identical (guaranteed maximal sharing), one independent, over one object
/// catalog.  The duplicated pair is what the fold pass can merge; the
/// third keeps the allocator honest about coexisting unshared work.
FoldRow run_fold_rep(int rep, std::uint64_t seed) {
  FoldRow row;
  row.rep = rep;
  Rng gen(seed);
  ObjectCatalog objects = ObjectCatalog::random(gen, 15, 5.0, 30.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = 20;
  tcfg.alpha = 1.0;
  std::vector<ApplicationSpec> apps;
  {
    Rng t(seed * 3 + 1);
    apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
  }
  {
    Rng t(seed * 3 + 1);  // identical draw: shared subexpressions
    apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
  }
  {
    Rng t(seed * 3 + 2);
    apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
  }
  row.num_apps = static_cast<int>(apps.size());

  ServerDistConfig dist;
  const Platform platform = make_paper_platform(gen, dist);
  const PriceCatalog catalog = PriceCatalog::paper_default();

  const SharingSavings predicted = estimate_sharing_savings(apps, catalog);
  row.predicted_work_saved = predicted.work_saved;
  row.predicted_cost_bound = predicted.cost_bound;

  const CombinedApplication c = combine_applications(apps);
  const FoldResult f = fold_shared_subexpressions(c.forest);
  row.operators_forest = f.stats.operators_before;
  row.operators_folded = f.stats.operators_after;
  row.shared_nodes = f.stats.shared_nodes;
  row.realized_work_saved = f.stats.work_saved;

  Problem unfolded;
  unfolded.tree = &c.forest;
  unfolded.platform = &platform;
  unfolded.catalog = &catalog;
  Problem folded = unfolded;
  folded.tree = &f.dag;

  Rng r1(seed ^ 0x5bd1e995u), r2(seed ^ 0x5bd1e995u);
  const AllocationOutcome before =
      allocate(unfolded, HeuristicKind::SubtreeBottomUp, r1);
  const AllocationOutcome after =
      allocate(folded, HeuristicKind::SubtreeBottomUp, r2);
  row.both_allocated = before.success && after.success;
  if (!row.both_allocated) return row;

  row.unfolded_cost = before.cost;
  row.folded_cost = after.cost;
  row.realized_cost_saving = before.cost - after.cost;
  row.unfolded_sustained =
      simulate_allocation(unfolded, before.allocation).sustained;
  row.folded_sustained =
      simulate_allocation(folded, after.allocation).sustained;
  return row;
}

// ---- (e) heuristic cost vs PROVED exact optimum at paper sizes. ------------

struct GapRow {
  int n = 0;
  double alpha = 0.0;
  std::string heuristic;
  int attempts = 0;   ///< instances where the heuristic pipeline succeeded
  int measured = 0;   ///< ... and the exact anchor proved Optimal
  double gap_mean = 0.0;  ///< heuristic cost / optimum over measured
  double gap_max = 0.0;
  std::uint64_t nodes_total = 0;  ///< branch-and-bound nodes across anchors
};

std::vector<GapRow> run_gap_section(std::uint64_t seed, int reps) {
  std::vector<GapRow> rows;
  for (double alpha : {0.9, 1.7}) {
    for (int n : {10, 16, 20}) {
      std::vector<GapRow> per_h;
      for (HeuristicKind h : all_heuristics()) {
        GapRow row;
        row.n = n;
        row.alpha = alpha;
        row.heuristic = heuristic_name(h);
        per_h.push_back(row);
      }
      for (int rep = 0; rep < reps; ++rep) {
        const Instance inst = make_instance(seed + 1000 * rep + n,
                                            paper_instance(n, alpha));
        const Problem prob = inst.problem();
        // One exact solve anchors every heuristic on this instance.
        const ExactResult ex = solve_exact(prob, ExactSolverConfig{});
        std::size_t idx = 0;
        for (HeuristicKind h : all_heuristics()) {
          GapRow& row = per_h[idx++];
          Rng rng(seed + rep);
          const AllocationOutcome out = allocate(prob, h, rng);
          if (!out.success) continue;
          ++row.attempts;
          OptimalityGap gap;
          gap.exact_status = ex.status;
          gap.exact_cost = ex.cost;
          gap.observed_cost = out.cost;
          gap.nodes_visited = ex.nodes_visited;
          row.nodes_total += ex.nodes_visited;
          if (!gap.measured()) continue;
          ++row.measured;
          row.gap_mean += gap.ratio();
          row.gap_max = std::max(row.gap_max, gap.ratio());
        }
      }
      for (GapRow& row : per_h) {
        if (row.measured > 0) row.gap_mean /= row.measured;
        rows.push_back(row);
      }
    }
  }
  return rows;
}

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<FoldRow>& rows,
                const std::vector<GapRow>& gap_rows) {
  JsonArtifact a{"ablations", 2, seed};
  for (const FoldRow& r : rows) {
    a.results.push_back(
        JsonRow()
            .add("section", "fold")
            .add("rep", r.rep)
            .add("num_apps", r.num_apps)
            .add("operators_forest", r.operators_forest)
            .add("operators_folded", r.operators_folded)
            .add("shared_nodes", r.shared_nodes)
            .add("predicted_work_saved", r.predicted_work_saved, 4)
            .add("predicted_cost_bound", r.predicted_cost_bound, 4)
            .add("realized_work_saved", r.realized_work_saved, 4)
            .add("unfolded_cost", r.unfolded_cost, 2)
            .add("folded_cost", r.folded_cost, 2)
            .add("realized_cost_saving", r.realized_cost_saving, 2)
            .add("both_allocated", r.both_allocated)
            .add("unfolded_sustained", r.unfolded_sustained)
            .add("folded_sustained", r.folded_sustained));
  }
  for (const GapRow& r : gap_rows) {
    a.results.push_back(JsonRow()
                            .add("section", "optimality_gap")
                            .add("n", r.n)
                            .add("alpha", r.alpha, 2)
                            .add("heuristic", r.heuristic)
                            .add("attempts", r.attempts)
                            .add("measured", r.measured)
                            .add("gap_mean", r.gap_mean, 4)
                            .add("gap_max", r.gap_max, 4)
                            .add("nodes_total", r.nodes_total));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke", "gate"},
                  /*default_reps=*/20, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_ablations.json");
  const bool smoke = args.get_bool("smoke", false);
  const bool gate = args.get_bool("gate", false);
  const int reps = smoke ? std::min(flags.repetitions, 5) : flags.repetitions;

  std::printf("Ablations of documented design decisions\n"
              "========================================\n\n");

  // ---- (a) SBU coalescing, small objects, two alphas. ----------------------
  for (double alpha : {0.9, 1.5}) {
    for (int n : {40, 80}) {
      VariantStats with_coalesce, without_coalesce;
      for (int rep = 0; rep < reps; ++rep) {
        const Instance inst = make_instance(flags.seed + rep,
                                            paper_instance(n, alpha));
        const Problem prob = inst.problem();
        run_variant(prob, strategy_for(HeuristicKind::SubtreeBottomUp).place,
                    flags.seed + rep, true, &with_coalesce);
        run_variant(prob, place_subtree_bottom_up_no_coalesce,
                    flags.seed + rep, true, &without_coalesce);
      }
      std::printf("SBU coalescing (N=%d, alpha=%.1f):\n", n, alpha);
      print_stats("with sibling coalescing (default)", with_coalesce);
      print_stats("without (paper-literal parent merge)", without_coalesce);
    }
  }

  // ---- (b) grouping: iterated vs pair-only, large objects. -----------------
  std::printf("\nGrouping technique (Random placement, large objects, "
              "N=30, alpha=0.9):\n");
  {
    VariantStats iterated, pair_only;
    for (int rep = 0; rep < reps; ++rep) {
      InstanceConfig cfg = paper_instance(30, 0.9);
      cfg.tree.object_size_lo = 450.0;
      cfg.tree.object_size_hi = 530.0;
      const Instance inst = make_instance(flags.seed + rep, cfg);
      const Problem prob = inst.problem();
      run_variant(prob, strategy_for(HeuristicKind::Random).place,
                  flags.seed + rep, false, &iterated);
      run_variant(prob, place_random_pair_grouping, flags.seed + rep, false,
                  &pair_only);
    }
    print_stats("iterated transitive grouping (default)", iterated);
    print_stats("pair-only grouping (paper-literal)", pair_only);
  }

  // ---- (c) server selection policy under download pressure. ----------------
  std::printf("\nServer selection (Comp-Greedy placement, large objects, "
              "N=30, alpha=0.9):\n");
  {
    VariantStats three_loop, random_sel;
    for (int rep = 0; rep < reps; ++rep) {
      InstanceConfig cfg = paper_instance(30, 0.9);
      cfg.tree.object_size_lo = 450.0;
      cfg.tree.object_size_hi = 530.0;
      const Instance inst = make_instance(flags.seed + rep, cfg);
      const Problem prob = inst.problem();
      run_variant(prob, strategy_for(HeuristicKind::CompGreedy).place,
                  flags.seed + rep, true, &three_loop);
      run_variant(prob, strategy_for(HeuristicKind::CompGreedy).place,
                  flags.seed + rep, false, &random_sel);
    }
    print_stats("three-loop selection (default)", three_loop);
    print_stats("random selection", random_sel);
  }

  // ---- (d) subexpression folding: realized vs predicted savings. -----------
  std::printf("\nSubexpression folding (SBU, 3 apps with one duplicated "
              "pair, N=20):\n");
  std::printf("  %-4s %-11s %-10s %-10s %-10s %-10s %-9s %s\n", "rep",
              "pred Mops", "real Mops", "unfolded$", "folded$", "saved$",
              "sustained", "ops");
  std::vector<FoldRow> fold_rows;
  int compared = 0, saved = 0, unsustained = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const FoldRow row = run_fold_rep(rep, flags.seed + static_cast<std::uint64_t>(rep));
    fold_rows.push_back(row);
    if (!row.both_allocated) {
      std::printf("  %-4d allocation failed on one side\n", rep);
      continue;
    }
    ++compared;
    if (row.realized_cost_saving > 0.0) ++saved;
    if (!row.unfolded_sustained || !row.folded_sustained) ++unsustained;
    std::printf("  %-4d %-11.0f %-10.0f %-10.0f %-10.0f %-10.0f %d/%d       "
                "%d->%d\n",
                rep, row.predicted_work_saved, row.realized_work_saved,
                row.unfolded_cost, row.folded_cost, row.realized_cost_saving,
                row.unfolded_sustained ? 1 : 0, row.folded_sustained ? 1 : 0,
                row.operators_forest, row.operators_folded);
  }
  std::printf("  folding lowered fleet cost in %d/%d comparable runs\n",
              saved, compared);

  // ---- (e) heuristic gap vs the exact optimum (docs/DESIGN.md §14). --------
  std::printf("\nOptimality gap vs exact branch-and-bound (full pipeline, "
              "paper catalog):\n");
  std::printf("  %-4s %-6s %-22s %-9s %-10s %s\n", "N", "alpha", "heuristic",
              "measured", "gap mean", "gap max");
  const std::vector<GapRow> gap_rows = run_gap_section(flags.seed, reps);
  for (const GapRow& r : gap_rows) {
    std::printf("  %-4d %-6.1f %-22s %d/%-7d %-10.3f %.3f\n", r.n, r.alpha,
                r.heuristic.c_str(), r.measured, r.attempts, r.gap_mean,
                r.gap_max);
  }

  write_json(json_path, flags.seed, fold_rows, gap_rows);

  if (gate) {
    // The fold pass must realize savings, not just predict them: every
    // comparable run sim-sustained on both sides, never a cost regression,
    // and a strict improvement in at least one run.
    bool regressed = false;
    for (const FoldRow& r : fold_rows) {
      if (r.both_allocated && r.realized_cost_saving < 0.0) regressed = true;
    }
    if (compared == 0 || unsustained > 0 || regressed || saved == 0) {
      std::fprintf(stderr,
                   "GATE FAILED: compared=%d unsustained=%d regressed=%d "
                   "saved=%d\n",
                   compared, unsustained, regressed ? 1 : 0, saved);
      return 1;
    }
    // Gap-regression gate: at these sizes the exact anchor must prove every
    // attempted instance (measured == attempts, anchors never time out),
    // and the workhorse heuristic must stay near-optimal.  The 1.35x
    // ceiling is pinned well above the measured Subtree-bottom-up mean so
    // only a genuine regression trips it.
    bool gap_ok = !gap_rows.empty();
    for (const GapRow& r : gap_rows) {
      if (r.measured != r.attempts) {
        std::fprintf(stderr,
                     "GATE FAILED: gap anchor unproved for %s N=%d "
                     "alpha=%.1f (%d/%d)\n",
                     r.heuristic.c_str(), r.n, r.alpha, r.measured,
                     r.attempts);
        gap_ok = false;
      }
      if (r.heuristic == "Subtree-bottom-up" && r.measured > 0 &&
          r.gap_mean > 1.35) {
        std::fprintf(stderr,
                     "GATE FAILED: SBU gap regressed: mean %.3fx at N=%d "
                     "alpha=%.1f (ceiling 1.35x)\n",
                     r.gap_mean, r.n, r.alpha);
        gap_ok = false;
      }
    }
    if (!gap_ok) return 1;
    std::printf("gate passed: %d comparable fold runs, all sustained, "
                "%d with strictly lower cost; %zu gap rows, all anchors "
                "proved\n",
                compared, saved, gap_rows.size());
  }
  return 0;
}
