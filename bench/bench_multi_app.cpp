// Multi-application extension (the paper's §6 future work): several
// continuous queries provisioned together.  Compares, per heuristic:
//   separate — each application buys its own processors (baseline; note it
//              optimistically books the shared data servers per app);
//   joint    — one purchase plan serves all applications (processors and
//              per-processor downloads shared across apps).
// Also prints the common-subexpression analysis: what a DAG-capable engine
// could additionally save by computing shared expressions once.
#include <cstdio>

#include "bench_common.hpp"
#include "multi/multi_app.hpp"
#include "multi/subexpression.hpp"

using namespace insp;
using namespace insp::benchx;

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"apps", "n", "alpha"}, /*default_reps=*/20,
                  /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const int num_apps = static_cast<int>(args.get_int("apps", 3));
  const int n = static_cast<int>(args.get_int("n", 25));
  const double alpha = args.get_double("alpha", 1.2);

  std::printf("Multi-application provisioning (%d apps, N=%d, alpha=%.1f)\n"
              "========================================================\n\n",
              num_apps, n, alpha);

  struct Cell {
    SampleSet joint, joint_ls, separate, procs_joint, procs_separate;
    int fails = 0, attempts = 0;
  };
  std::map<HeuristicKind, Cell> cells;
  SampleSet cse_work_saved, cse_cost_bound;

  for (int rep = 0; rep < flags.repetitions; ++rep) {
    Rng gen(flags.seed + rep);
    ObjectCatalog objects = ObjectCatalog::random(gen, 15, 5.0, 30.0, 0.5);
    TreeGenConfig tcfg;
    tcfg.num_operators = n;
    tcfg.alpha = alpha;
    std::vector<ApplicationSpec> apps;
    for (int a = 0; a < num_apps; ++a) {
      apps.push_back({generate_random_tree(gen, tcfg, objects),
                      /*rho=*/1.0});
    }
    ServerDistConfig dist;
    const Platform platform = make_paper_platform(gen, dist);
    const PriceCatalog catalog = PriceCatalog::paper_default();

    const CombinedApplication combined = combine_applications(apps);
    const SharingSavings savings =
        estimate_sharing_savings(apps, catalog);
    cse_work_saved.add(savings.work_saved);
    cse_cost_bound.add(savings.cost_bound);

    for (HeuristicKind k : all_heuristics()) {
      auto& cell = cells[k];
      ++cell.attempts;
      Rng r1(flags.seed + rep), r2(flags.seed + rep), r3(flags.seed + rep);
      const AllocationOutcome joint =
          allocate_joint(combined, platform, catalog, k, r1);
      const SeparateAllocationOutcome separate =
          allocate_separate(apps, platform, catalog, k, r2);
      AllocatorOptions with_ls;
      with_ls.local_search = true;  // merges across applications too
      const AllocationOutcome joint_ls =
          allocate_joint(combined, platform, catalog, k, r3, with_ls);
      if (!joint.success || !separate.success || !joint_ls.success) {
        ++cell.fails;
        continue;
      }
      cell.joint.add(joint.cost);
      cell.joint_ls.add(joint_ls.cost);
      cell.separate.add(separate.total_cost);
      cell.procs_joint.add(joint.num_processors);
      cell.procs_separate.add(separate.total_processors);
    }
  }

  std::printf("%-22s %-14s %-14s %-14s %-10s %-11s %s\n", "heuristic",
              "separate ($)", "joint ($)", "joint+LS ($)", "saving",
              "procs sep", "procs joint");
  for (HeuristicKind k : all_heuristics()) {
    const auto& cell = cells[k];
    if (cell.joint.empty()) {
      std::printf("%-22s all %d runs failed\n", heuristic_name(k),
                  cell.attempts);
      continue;
    }
    const double sep = cell.separate.mean(), joint = cell.joint.mean();
    const double joint_ls = cell.joint_ls.mean();
    std::printf("%-22s %-14.0f %-14.0f %-14.0f %-9.1f%% %-11.1f %.1f\n",
                heuristic_name(k), sep, joint, joint_ls,
                100.0 * (sep - joint_ls) / sep, cell.procs_separate.mean(),
                cell.procs_joint.mean());
  }

  std::printf("\ncommon-subexpression analysis (DAG-engine potential, on top "
              "of the joint plan):\n"
              "  mean CPU work shareable: %.0f Mops/result\n"
              "  mean platform-cost bound of that work: $%.0f\n",
              cse_work_saved.mean(), cse_cost_bound.mean());
  return 0;
}
