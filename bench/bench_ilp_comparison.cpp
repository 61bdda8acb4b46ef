// ILP / optimal comparison (paper §5, last experiment): on a homogeneous
// platform (single processor type, downgrade skipped) and small trees, the
// paper solved the ILP with CPLEX and found (a) the optimum buys a single
// processor in all solved cases (N = 20), (b) Subtree-bottom-up is optimal
// in most cases, (c) ranking SBU > Greedy (Comm-Greedy best) > Object-
// Grouping > Object-Availability > Random.  Our exact branch-and-bound
// replaces CPLEX (docs/DESIGN.md §4, §14).
//
// Every instance is solved twice: by the incremental journal-based search
// (solve_exact) and by the legacy copy-based reference search
// (solve_exact_reference).  Both must agree bit-for-bit on the optimal
// cost; the per-(N, alpha) node counts quantify how much the composite
// lower bound + incumbent seeding shrink the tree.  Machine-readable
// BENCH_ilp.json (schema checked by scripts/check_bench_json.py); --gate
// fails the run unless every instance is proved Optimal, both solvers
// agree, and the aggregate node ratio is at least 5x.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ilp/exact_solver.hpp"
#include "oracles/exact_reference.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

struct IlpRow {
  int n = 0;
  double alpha = 0.0;
  int instances = 0;         ///< instances attempted at this (N, alpha)
  int solved = 0;            ///< incremental search proved Optimal
  int reference_solved = 0;  ///< reference search proved Optimal
  std::uint64_t nodes_incremental = 0;
  std::uint64_t nodes_reference = 0;
  double node_ratio = 0.0;  ///< reference / max(1, incremental)
  bool costs_match = true;  ///< bit-for-bit, over both-Optimal instances
  double best_heuristic_ratio = 0.0;  ///< best mean cost/optimal in the row
};

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<IlpRow>& rows) {
  JsonArtifact a{"ilp", 1, seed};
  for (const IlpRow& r : rows) {
    a.results.push_back(JsonRow()
                            .add("n", r.n)
                            .add("alpha", r.alpha, 2)
                            .add("instances", r.instances)
                            .add("solved", r.solved)
                            .add("reference_solved", r.reference_solved)
                            .add("nodes_incremental", r.nodes_incremental)
                            .add("nodes_reference", r.nodes_reference)
                            .add("node_ratio", r.node_ratio, 2)
                            .add("costs_match", r.costs_match)
                            .add("best_heuristic_ratio",
                                 r.best_heuristic_ratio, 4));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke", "gate", "nmax"},
                  /*default_reps=*/10, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_ilp.json");
  const bool smoke = args.get_bool("smoke", false);
  const bool gate = args.get_bool("gate", false);
  const int n_max =
      static_cast<int>(args.get_int("nmax", smoke ? 10 : 16));
  const int reps = smoke ? std::min(flags.repetitions, 3) : flags.repetitions;

  std::printf(
      "ILP comparison (homogeneous platform, alpha varied, no downgrade)\n"
      "================================================================\n"
      "paper-reported shape: optimum buys one processor; Subtree-bottom-up "
      "optimal in most cases;\nranking SBU, Greedy family (Comm best), "
      "Object-Grouping, Object-Availability, Random.\n\n");

  AllocatorOptions opts;
  opts.downgrade = false;  // paper skips downgrading in the homogeneous study

  std::printf("%-4s %-6s %-10s", "N", "alpha", "optimal");
  for (HeuristicKind h : all_heuristics()) {
    std::printf(" %-18s", heuristic_name(h));
  }
  std::printf("\n");

  std::map<HeuristicKind, int> optimal_hits;
  std::map<HeuristicKind, double> ratio_sum;
  int solved = 0;
  bool all_incremental_optimal = true;
  bool all_costs_match = true;
  std::uint64_t total_nodes_incremental = 0;
  std::uint64_t total_nodes_reference = 0;
  std::vector<IlpRow> rows;

  for (double alpha : {0.9, 1.7}) {
    for (int n = 4; n <= n_max; n += 2) {
      IlpRow row;
      row.n = n;
      row.alpha = alpha;
      std::map<HeuristicKind, double> row_ratio_sum;
      int row_compared = 0;
      for (int rep = 0; rep < reps; ++rep) {
        InstanceConfig cfg = paper_instance(n, alpha);
        cfg.tree.at_most_n = false;
        cfg.homogeneous_catalog = true;
        const Instance inst =
            make_instance(flags.seed + 1000 * rep + n, cfg);
        const Problem prob = inst.problem();

        ++row.instances;
        const ExactResult exact = solve_exact(prob, ExactSolverConfig{});
        const ExactResult reference =
            solve_exact_reference(prob, ExactSolverConfig{});
        row.nodes_incremental += exact.nodes_visited;
        row.nodes_reference += reference.nodes_visited;
        if (reference.status == ExactStatus::Optimal) ++row.reference_solved;
        if (exact.status != ExactStatus::Optimal || !exact.cost) {
          all_incremental_optimal = false;
          continue;
        }
        ++row.solved;
        ++solved;
        if (reference.status == ExactStatus::Optimal && reference.cost &&
            *reference.cost != *exact.cost) {
          // Catalog prices are integral, so exact equality is the contract.
          row.costs_match = false;
          all_costs_match = false;
          std::fprintf(stderr,
                       "COST MISMATCH N=%d alpha=%.1f rep=%d: "
                       "incremental $%.4f reference $%.4f\n",
                       n, alpha, rep, *exact.cost, *reference.cost);
        }

        const bool print_row = rep == 0;
        if (print_row) {
          std::printf("%-4d %-6.1f $%-9.0f", n, alpha, *exact.cost);
        }
        ++row_compared;
        for (HeuristicKind h : all_heuristics()) {
          Rng rng(flags.seed + rep);
          const AllocationOutcome out = allocate(prob, h, rng, opts);
          if (out.success) {
            ratio_sum[h] += out.cost / *exact.cost;
            row_ratio_sum[h] += out.cost / *exact.cost;
            if (out.cost <= *exact.cost * 1.0001) ++optimal_hits[h];
            if (print_row) std::printf(" $%-17.0f", out.cost);
          } else {
            ratio_sum[h] += 10.0;  // failure penalty for the summary only
            row_ratio_sum[h] += 10.0;
            if (print_row) std::printf(" %-18s", "FAIL");
          }
        }
        if (print_row) std::printf("\n");
      }
      total_nodes_incremental += row.nodes_incremental;
      total_nodes_reference += row.nodes_reference;
      row.node_ratio =
          static_cast<double>(row.nodes_reference) /
          static_cast<double>(std::max<std::uint64_t>(1, row.nodes_incremental));
      row.best_heuristic_ratio = 0.0;
      if (row_compared > 0) {
        double best = 10.0;
        for (HeuristicKind h : all_heuristics()) {
          best = std::min(best, row_ratio_sum[h] / row_compared);
        }
        row.best_heuristic_ratio = best;
      }
      rows.push_back(row);
    }
  }

  std::printf("\nsummary over %d solved instances:\n", solved);
  std::printf("%-22s %-18s %s\n", "heuristic", "mean cost/optimal",
              "found optimum");
  for (HeuristicKind h : all_heuristics()) {
    std::printf("%-22s %-18.3f %d/%d\n", heuristic_name(h),
                solved ? ratio_sum[h] / solved : 0.0, optimal_hits[h],
                solved);
  }

  const double aggregate_ratio =
      static_cast<double>(total_nodes_reference) /
      static_cast<double>(std::max<std::uint64_t>(1, total_nodes_incremental));
  std::printf("\nsearch-tree size: incremental %llu nodes vs reference %llu "
              "(%.1fx fewer)\n",
              static_cast<unsigned long long>(total_nodes_incremental),
              static_cast<unsigned long long>(total_nodes_reference),
              aggregate_ratio);

  write_json(json_path, flags.seed, rows);

  if (gate) {
    // The incremental search must fully replace the reference: every
    // instance proved Optimal, bit-for-bit cost agreement wherever both
    // proved, and at least a 5x aggregate node reduction.  The reference
    // search shares the default node budget, so its count (and therefore
    // the ratio) is an underestimate when it is budget-capped — the gate
    // is conservative.
    if (!all_incremental_optimal || !all_costs_match ||
        aggregate_ratio < 5.0) {
      std::fprintf(stderr,
                   "GATE FAILED: all_optimal=%d costs_match=%d "
                   "node_ratio=%.2f (need >= 5)\n",
                   all_incremental_optimal ? 1 : 0, all_costs_match ? 1 : 0,
                   aggregate_ratio);
      return 1;
    }
    std::printf("gate passed: %d instances all Optimal, costs agree, "
                "%.1fx node reduction\n",
                solved, aggregate_ratio);
  }
  return 0;
}
