// Download-frequency study (paper §5, text): the download rate of object k
// is rate_k = f_k * delta_k.  Frequencies below 1/10 s^-1 stop influencing
// the solution; between 1/2 and 1/10 the cost generally decreases (cheaper
// network cards), and the heuristic ranking is unchanged.  The paper also
// notes the mapping itself usually matches the high-frequency mapping, with
// less powerful network cards purchased.
#include "bench_common.hpp"

using namespace insp;
using namespace insp::benchx;

int main(int argc, char** argv) {
  const BenchFlags flags = parse_flags(argc, argv, {"n"});
  const int n = static_cast<int>(flags.args.get_int("n", 80));

  SweepSpec spec = make_sweep_spec(flags);
  spec.x_name = "freq(1/s)";
  spec.xs = {1.0 / 2, 1.0 / 5, 1.0 / 10, 1.0 / 25, 1.0 / 50};
  spec.config_for = [n](double freq) {
    InstanceConfig cfg = paper_instance(n, 0.9);
    cfg.tree.download_freq = freq;
    return cfg;
  };

  const SweepResult result = run_sweep(spec);
  report(result,
         "Frequency sweep: cost vs download frequency (N=" +
             std::to_string(n) + ", alpha=0.9, small objects)",
         "Cost decreases from 1/2 to ~1/10 s^-1 and is constant below 1/10; "
         "ranking unchanged: Subtree-bottom-up, Greedy family, object "
         "heuristics, Random.",
         flags.csv_path);
  return 0;
}
