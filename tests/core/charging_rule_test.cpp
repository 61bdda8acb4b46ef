// The dense (from-scratch) charging code against an independent restatement
// of the multicast rule of docs/DESIGN.md §13: a producer ships ONE copy of
// its result to each distinct remote processor hosting consumers, sized by
// the largest out-edge delta into it.  The restatement below collects those
// maxima in a std::map per producer — no first-occurrence scan — and the
// test holds compute_processor_loads, compute_link_loads and analyze_flow
// to it on random full assignments of shared-subexpression DAGs.  The
// hand-built cases pin OperatorTree::visit_shipments itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "platform/catalog.hpp"
#include "platform/platform.hpp"
#include "sim/flow_analyzer.hpp"
#include "tree/tree_generator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace insp {
namespace {

constexpr int kTypes = 6;
constexpr int kServers = 3;
constexpr MBps kLinkPP = 1e-3;  // so the processor links always bind

struct World {
  OperatorTree dag;
  Platform platform;
  PriceCatalog prices;
  Throughput rho = 1.0;

  Problem problem() const {
    Problem p;
    p.tree = &dag;
    p.platform = &platform;
    p.catalog = &prices;
    p.rho = rho;
    return p;
  }
};

World make_world(std::uint64_t seed, int n_ops, double share_prob,
                 Throughput rho) {
  Rng gen(seed);
  TreeGenConfig tcfg;
  tcfg.num_operators = n_ops;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = kTypes;
  const OperatorTree shared = generate_shared_dag(gen, tcfg, share_prob);
  // The generator gives every out-edge its producer's output_mb; per-edge
  // deltas (as after per-application rho folding) make the max matter.
  std::vector<OperatorNode> ops = shared.operators();
  for (OperatorNode& n : ops) {
    for (OutEdge& e : n.out) e.delta *= gen.uniform_real(0.25, 1.0);
  }
  OperatorTree dag(std::move(ops), shared.leaf_refs(), shared.roots(),
                   shared.catalog());
  std::vector<DataServer> servers;
  for (int s = 0; s < kServers; ++s) {
    servers.push_back(DataServer{s, 1e9, {0, 1, 2, 3, 4, 5}});
  }
  Platform platform(std::move(servers), 1e9, kLinkPP, kTypes);
  return World{std::move(dag), std::move(platform),
               PriceCatalog::paper_default(), rho};
}

/// Every operator on a uniformly drawn one of `n_procs` processors (empty
/// ones dropped), downloads routed round-robin, plus one route naming an
/// unknown type and one naming an unknown server, which the link sums skip.
Allocation random_allocation(const World& w, Rng& rng, int n_procs) {
  const int n = w.dag.num_operators();
  std::vector<int> draw(static_cast<std::size_t>(n));
  for (int& p : draw) p = static_cast<int>(rng.uniform_int(0, n_procs - 1));
  std::vector<int> remap(static_cast<std::size_t>(n_procs), kNoNode);
  Allocation a;
  a.op_to_proc.assign(static_cast<std::size_t>(n), kNoNode);
  for (int op = 0; op < n; ++op) {
    const int d = draw[static_cast<std::size_t>(op)];
    int& u = remap[static_cast<std::size_t>(d)];
    if (u == kNoNode) {
      u = a.num_processors();
      a.processors.push_back({w.prices.most_expensive(), {}, {}});
    }
    a.processors[static_cast<std::size_t>(u)].ops.push_back(op);
    a.op_to_proc[static_cast<std::size_t>(op)] = u;
  }
  const auto types = needed_types_per_processor(w.problem(), a);
  for (std::size_t u = 0; u < types.size(); ++u) {
    for (int t : types[u]) {
      a.processors[u].downloads.push_back(
          {t, static_cast<int>((static_cast<std::size_t>(t) + u) % kServers)});
    }
  }
  a.processors.front().downloads.push_back({kTypes, 0});
  a.processors.front().downloads.push_back({0, kServers});
  return a;
}

struct Restated {
  std::map<int, MBps> comm_in, comm_out;
  std::map<std::pair<int, int>, MBps> proc_proc, server_proc;
  std::map<int, MBps> server_card;
};

Restated restate(const World& w, const Allocation& a) {
  Restated r;
  for (int p = 0; p < w.dag.num_operators(); ++p) {
    const int from = a.op_to_proc[static_cast<std::size_t>(p)];
    std::map<int, MegaBytes> shipment;  // destination processor -> max delta
    for (const OutEdge& e : w.dag.op(p).out) {
      const int to = a.op_to_proc[static_cast<std::size_t>(e.dst)];
      if (to == from) continue;
      MegaBytes& mx = shipment[to];
      mx = std::max(mx, e.delta);
    }
    for (const auto& [to, mx] : shipment) {
      r.comm_out[from] += w.rho * mx;
      r.comm_in[to] += w.rho * mx;
      r.proc_proc[{std::min(from, to), std::max(from, to)}] += w.rho * mx;
    }
  }
  for (std::size_t u = 0; u < a.processors.size(); ++u) {
    for (const DownloadRoute& dl : a.processors[u].downloads) {
      if (dl.object_type >= kTypes || dl.server >= kServers) continue;
      const MBps rate = w.dag.catalog().type(dl.object_type).rate();
      r.server_card[dl.server] += rate;
      r.server_proc[{dl.server, static_cast<int>(u)}] += rate;
    }
  }
  return r;
}

MBps at(const std::map<int, MBps>& m, int k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

// Sums may differ from the restatement in accumulation order only.
void expect_close(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want))) << what;
}

void expect_same_pairs(const std::vector<LinkLoads::Entry>& got,
                       const std::map<std::pair<int, int>, MBps>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  auto e = want.begin();
  for (auto g = got.begin(); g != got.end(); ++g, ++e) {
    ASSERT_EQ(g->first, e->first) << what;
    expect_close(g->second, e->second, what);
  }
}

TEST(ChargingRule, DenseLoadsMatchRestatementOnDags) {
  int link_bound = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const double share_prob = 0.2 + 0.1 * static_cast<double>(seed % 6);
    const World w = make_world(seed, 30 + static_cast<int>(seed % 4) * 10,
                               share_prob, seed % 2 ? 1.0 : 1.7);
    Rng rng(seed * 7919);
    for (int rep = 0; rep < 4; ++rep) {
      const Allocation a = random_allocation(w, rng, 2 + rep * 2);
      const std::string ctx =
          "seed " + std::to_string(seed) + " rep " + std::to_string(rep);
      const Restated r = restate(w, a);

      const auto loads = compute_processor_loads(w.problem(), a);
      ASSERT_EQ(loads.size(), a.processors.size()) << ctx;
      for (int u = 0; u < a.num_processors(); ++u) {
        const auto& l = loads[static_cast<std::size_t>(u)];
        expect_close(l.comm_in, at(r.comm_in, u), ctx + " comm_in");
        expect_close(l.comm_out, at(r.comm_out, u), ctx + " comm_out");
      }

      const LinkLoads links = compute_link_loads(w.problem(), a);
      expect_same_pairs(links.proc_proc, r.proc_proc, ctx + " proc_proc");
      expect_same_pairs(links.server_proc, r.server_proc,
                        ctx + " server_proc");
      ASSERT_EQ(links.server_card.size(), static_cast<std::size_t>(kServers));
      for (int s = 0; s < kServers; ++s) {
        expect_close(links.server_card[static_cast<std::size_t>(s)],
                     at(r.server_card, s), ctx + " server_card");
      }

      // The analyzer's proc-link coefficients are the unit-rho volumes; with
      // near-zero link capacity the heaviest pair binds, at capacity/volume.
      if (r.proc_proc.empty()) continue;
      MBps heaviest = 0.0;
      for (const auto& [pair, load] : r.proc_proc) {
        heaviest = std::max(heaviest, load / w.rho);
      }
      const FlowAnalysis flow = analyze_flow(w.problem(), a);
      EXPECT_EQ(flow.bottleneck, BottleneckKind::ProcProcLink) << ctx;
      expect_close(flow.max_throughput, kLinkPP / heaviest,
                   ctx + " max_throughput");
      ++link_bound;
    }
  }
  EXPECT_GT(link_bound, 50);
}

/// Producer 0 with four consumers: out-edges (in order) to ops 1..4 with
/// deltas 2, 5, 1, 3.
OperatorTree fan_out() {
  std::vector<OperatorNode> ops(5);
  for (int i = 0; i < 5; ++i) ops[static_cast<std::size_t>(i)].id = i;
  ops[0].out = {{1, 2.0}, {2, 5.0}, {3, 1.0}, {4, 3.0}};
  for (int i = 1; i < 5; ++i) ops[static_cast<std::size_t>(i)].children = {0};
  return OperatorTree(std::move(ops), {}, std::vector<int>{1, 2, 3, 4},
                      ObjectCatalog({{0, 1.0, 1.0}}));
}

using Shipments = std::vector<std::pair<int, MegaBytes>>;

/// visit_shipments on the fan-out producer, `proc[op]` the processor of
/// op; `from` defaults to the producer's own processor.
Shipments shipments(const OperatorTree& t, const std::vector<int>& proc,
                    std::optional<int> from = std::nullopt) {
  Shipments out;
  t.visit_shipments(
      0, from.value_or(proc[0]),
      [&](int op) { return proc[static_cast<std::size_t>(op)]; },
      [&](int q, MegaBytes mx) { out.emplace_back(q, mx); });
  return out;
}

TEST(VisitShipments, TwoConsumersOnOneRemoteProcessorShipOnceAtTheMax) {
  const OperatorTree t = fan_out();
  // Ops 1 and 3 share P7 (deltas 2, 1); op 2 and op 4 share P8 (5, 3).
  EXPECT_EQ(shipments(t, {0, 7, 8, 7, 8}), (Shipments{{7, 2.0}, {8, 5.0}}));
  // Order is first occurrence: P8 is reached first when op 1 moves there.
  EXPECT_EQ(shipments(t, {0, 8, 7, 7, 8}), (Shipments{{8, 3.0}, {7, 5.0}}));
}

TEST(VisitShipments, CoLocatedConsumersAreFree) {
  const OperatorTree t = fan_out();
  // Op 2 (the largest delta) sits with the producer: it is not charged and
  // does not raise P7's shipment.
  EXPECT_EQ(shipments(t, {3, 7, 3, 7, 7}), (Shipments{{7, 3.0}}));
  EXPECT_TRUE(shipments(t, {3, 3, 3, 3, 3}).empty());
}

TEST(VisitShipments, UnassignedConsumersAreSkipped) {
  const OperatorTree t = fan_out();
  EXPECT_EQ(shipments(t, {0, kNoNode, kNoNode, 4, kNoNode}),
            (Shipments{{4, 1.0}}));
  // An unassigned producer (from == kNoNode) still ships to assigned
  // consumers — the group-lift footprint relies on this.
  EXPECT_EQ(shipments(t, {kNoNode, 5, kNoNode, 5, 6}),
            (Shipments{{5, 2.0}, {6, 3.0}}));
}

TEST(VisitShipments, FromIsSkippedEvenWhenItIsNotTheProducersProcessor) {
  const OperatorTree t = fan_out();
  // `from` is whatever the caller treats as local — the producer's proc in
  // the charging code, a candidate processor in a what-if probe.
  EXPECT_EQ(shipments(t, {0, 1, 2, 1, 2}, 2), (Shipments{{1, 2.0}}));
}

} // namespace
} // namespace insp
