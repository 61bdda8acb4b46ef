// Figure 3: mean platform cost vs computation factor alpha, N = 60 (the
// text also discusses N = 20; run with --n 20 for the companion sweep).
// Expected thresholds: costs flat up to alpha ~1.6, rising, no solutions
// past ~1.8 for N = 60 (1.7 / 2.2 for N = 20).
#include "bench_common.hpp"

using namespace insp;
using namespace insp::benchx;

int main(int argc, char** argv) {
  const BenchFlags flags = parse_flags(argc, argv, {"n"});
  const int n = static_cast<int>(flags.args.get_int("n", 60));

  SweepSpec spec = make_sweep_spec(flags);
  spec.x_name = "alpha";
  for (double a = 0.5; a <= 2.5001; a += 0.1) spec.xs.push_back(a);
  spec.config_for = [n](double alpha) { return paper_instance(n, alpha); };

  const SweepResult result = run_sweep(spec);
  report(result,
         "Figure 3: cost vs alpha (N=" + std::to_string(n) +
             ", high frequency, small objects)",
         "alpha has no influence up to a first threshold; cost then rises "
         "until a second threshold past which no solutions exist "
         "(N=60: ~1.6 and ~1.8; N=20: ~1.7 and ~2.2). Subtree-bottom-up "
         "best, Random worst.",
         flags.csv_path);
  return 0;
}
