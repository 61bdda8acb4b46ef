// Local-search refinement (extension beyond the paper): how much of each
// heuristic's gap to the best-known cost does the merge/relocate hill-climb
// recover, and what does it cost in runtime?
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"

using namespace insp;
using namespace insp::benchx;

int main(int argc, char** argv) {
  const BenchFlags flags = parse_flags(argc, argv, {"alpha"},
                                       /*default_reps=*/20,
                                       /*accepts_heuristics=*/false);
  const double alpha = flags.args.get_double("alpha", 1.5);

  std::printf("Local-search refinement (alpha=%.1f, small objects, high "
              "frequency)\n"
              "==============================================================\n\n",
              alpha);

  for (int n : {40, 80}) {
    std::printf("N = %d\n", n);
    std::printf("  %-22s %-12s %-12s %-9s %s\n", "heuristic", "plain ($)",
                "refined ($)", "gain", "refine time");
    for (HeuristicKind k : all_heuristics()) {
      SampleSet plain_cost, refined_cost;
      double refine_ms = 0.0;
      int fails = 0;
      for (int rep = 0; rep < flags.repetitions; ++rep) {
        const Instance inst =
            make_instance(flags.seed + rep, paper_instance(n, alpha));
        const Problem prob = inst.problem();
        Rng r1(flags.seed + rep), r2(flags.seed + rep);
        AllocatorOptions plain, refined;
        refined.local_search = true;
        const AllocationOutcome a = allocate(prob, k, r1, plain);
        const auto t0 = std::chrono::steady_clock::now();
        const AllocationOutcome b = allocate(prob, k, r2, refined);
        const auto t1 = std::chrono::steady_clock::now();
        if (!a.success || !b.success) {
          ++fails;
          continue;
        }
        plain_cost.add(a.cost);
        refined_cost.add(b.cost);
        refine_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
      }
      if (plain_cost.empty()) {
        std::printf("  %-22s all runs failed (%d)\n", heuristic_name(k),
                    fails);
        continue;
      }
      const double gain =
          100.0 * (plain_cost.mean() - refined_cost.mean()) /
          plain_cost.mean();
      std::printf("  %-22s %-12.0f %-12.0f %-8.1f%% %.1f ms\n",
                  heuristic_name(k), plain_cost.mean(), refined_cost.mean(),
                  gain, refine_ms / std::max<std::size_t>(1, plain_cost.count()));
    }
    std::printf("\n");
  }
  return 0;
}
