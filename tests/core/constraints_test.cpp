#include "core/constraints.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;
using testhelpers::simple_platform;

/// Hand-built allocation over the fig1a fixture: all five ops on one
/// processor, downloads routed to server 0.
Allocation one_proc_allocation(const Fixture&, ProcessorConfig cfg) {
  Allocation a;
  PurchasedProcessor proc;
  proc.config = cfg;
  proc.ops = {0, 1, 2, 3, 4};
  proc.downloads = {{0, 0}, {1, 0}, {2, 0}};
  a.processors.push_back(proc);
  a.op_to_proc = {0, 0, 0, 0, 0};
  return a;
}

TEST(Constraints, ValidSingleProcessorPasses) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  const CheckReport r = check_allocation(f.problem(), a);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Constraints, DetectsUnassignedOperator) {
  const Fixture f = fig1a_fixture();
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  a.op_to_proc[2] = kNoNode;
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::Structure);
}

TEST(Constraints, DetectsDoubleOwnership) {
  const Fixture f = fig1a_fixture();
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  PurchasedProcessor extra;
  extra.config = f.catalog.cheapest();
  extra.ops = {2};  // op 2 also owned by proc 0
  a.processors.push_back(extra);
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::Structure);
}

TEST(Constraints, DetectsCpuOverload) {
  // Fastest CPU is 46,880 Mops; mass 270 at alpha 2.2 -> far beyond.
  const Fixture f = fig1a_fixture(2.2, 30.0);
  const Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.kind == ViolationKind::CpuCapacity;
  }
  EXPECT_TRUE(found) << r.summary();
}

TEST(Constraints, DetectsProcNicOverloadFromDownloads) {
  // 1 Gbps card = 125 MB/s; large objects at 0.5 Hz -> 3 types * ~240 MB/s.
  const Fixture f = fig1a_fixture(0.5, 480.0);
  Allocation a = one_proc_allocation(
      f, *f.catalog.cheapest_meeting(f.catalog.max_speed(), 0.0));
  // Force the smallest NIC (cheapest_meeting with bw=0 gives 1 Gbps).
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.kind == ViolationKind::ProcNic;
  }
  EXPECT_TRUE(found) << r.summary();
}

TEST(Constraints, DetectsCrossProcessorCommOnNic) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  // Custom catalog: plenty CPU, tiny NIC (20 MB/s).
  f.catalog = PriceCatalog(100.0, {{50000.0, 0.0}}, {{20.0, 0.0}});
  Allocation a;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.cheapest();
  p0.ops = {0, 1, 2, 3};  // everything except n1
  p0.downloads = {{0, 0}, {1, 0}, {2, 0}};
  p1.config = f.catalog.cheapest();
  p1.ops = {4};  // n1 alone: edge n1->n2 = 30 MB crosses
  p1.downloads = {{0, 0}, {1, 0}};
  a.processors = {p0, p1};
  a.op_to_proc = {0, 0, 0, 0, 1};
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool nic = false;
  for (const auto& v : r.violations) nic |= v.kind == ViolationKind::ProcNic;
  EXPECT_TRUE(nic) << r.summary();
}

TEST(Constraints, DetectsServerCardOverload) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  // Server card of 7 MB/s < total download demand 22.5 MB/s.
  f.platform = simple_platform({{0, 1, 2}}, 3, /*server_card=*/7.0);
  const Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.kind == ViolationKind::ServerCard;
  }
  EXPECT_TRUE(found) << r.summary();
}

TEST(Constraints, DetectsServerProcLinkOverload) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  f.platform = simple_platform({{0, 1, 2}}, 3, 10000.0, /*link_sp=*/10.0);
  const Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.kind == ViolationKind::ServerProcLink;
  }
  EXPECT_TRUE(found) << r.summary();
}

TEST(Constraints, DetectsProcProcLinkOverload) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  f.platform = simple_platform({{0, 1, 2}}, 3, 10000.0, 1000.0,
                               /*link_pp=*/25.0);
  Allocation a;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {0, 1, 2, 3};
  p0.downloads = {{0, 0}, {1, 0}, {2, 0}};
  p1.config = f.catalog.most_expensive();
  p1.ops = {4};
  p1.downloads = {{0, 0}, {1, 0}};
  a.processors = {p0, p1};
  a.op_to_proc = {0, 0, 0, 0, 1};
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.kind == ViolationKind::ProcProcLink;
  }
  EXPECT_TRUE(found) << r.summary();
}

TEST(Constraints, DetectsMissingDownloadRoute) {
  const Fixture f = fig1a_fixture();
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  a.processors[0].downloads.pop_back();  // drop o2's route
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::DownloadRouting);
}

TEST(Constraints, DetectsUnknownDownloadType) {
  // A route naming a type outside the catalog is a routing violation; the
  // link and card sums must skip it rather than look its rate up.
  const Fixture f = fig1a_fixture();
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  a.processors[0].downloads.push_back({f.tree.catalog().count(), 0});
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::DownloadRouting);
}

TEST(Constraints, DetectsDuplicateDownloadRoute) {
  const Fixture f = fig1a_fixture();
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  a.processors[0].downloads.push_back({0, 1});  // o0 routed twice
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::DownloadRouting);
}

TEST(Constraints, DetectsDownloadFromNonHostingServer) {
  Fixture f = fig1a_fixture();
  f.platform = simple_platform({{0, 1}, {2}}, 3);
  Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  a.processors[0].downloads = {{0, 0}, {1, 0}, {2, 0}};  // S0 lacks o2
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, ViolationKind::DownloadRouting);
}

TEST(Constraints, DetectsUnneededDownloadRoute) {
  const Fixture f = fig1a_fixture();
  Allocation a;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {0, 1, 2, 3};
  p0.downloads = {{0, 0}, {1, 0}, {2, 0}};
  p1.config = f.catalog.most_expensive();
  p1.ops = {4};
  p1.downloads = {{0, 0}, {1, 0}, {2, 0}};  // o2 not needed by n1
  a.processors = {p0, p1};
  a.op_to_proc = {0, 0, 0, 0, 1};
  const CheckReport r = check_allocation(f.problem(), a);
  ASSERT_FALSE(r.ok());
  bool routing = false;
  for (const auto& v : r.violations) {
    routing |= v.kind == ViolationKind::DownloadRouting;
  }
  EXPECT_TRUE(routing);
}

TEST(Constraints, SummaryNamesTheEquation) {
  const Fixture f = fig1a_fixture(2.2, 30.0);
  const Allocation a = one_proc_allocation(f, f.catalog.most_expensive());
  const CheckReport r = check_allocation(f.problem(), a);
  EXPECT_NE(r.summary().find("cpu-capacity(1)"), std::string::npos);
}

TEST(Constraints, LoadsComputationGroundTruth) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  Allocation a;
  PurchasedProcessor p0, p1;
  p0.config = f.catalog.most_expensive();
  p0.ops = {4, 3};  // n1, n2
  p0.downloads = {{0, 0}, {1, 0}};
  p1.config = f.catalog.most_expensive();
  p1.ops = {0, 1, 2};  // n4, n5, n3
  p1.downloads = {{1, 0}, {2, 0}};
  a.processors = {p0, p1};
  a.op_to_proc = {1, 1, 1, 0, 0};
  const auto loads = compute_processor_loads(f.problem(), a);
  // P0: works n1 = 30, n2 = 40 -> 70; edge n2->n5 crosses (40 out).
  EXPECT_DOUBLE_EQ(loads[0].cpu_demand, 70.0);
  EXPECT_DOUBLE_EQ(loads[0].comm_out, 40.0);
  EXPECT_DOUBLE_EQ(loads[0].comm_in, 0.0);
  EXPECT_DOUBLE_EQ(loads[0].download, 15.0);  // o0 + o1
  // P1: works n5 = 40, n3 = 50, n4 = 90 -> 180; in 40; downloads o1+o2 = 25.
  EXPECT_DOUBLE_EQ(loads[1].cpu_demand, 180.0);
  EXPECT_DOUBLE_EQ(loads[1].comm_in, 40.0);
  EXPECT_DOUBLE_EQ(loads[1].comm_out, 0.0);
  EXPECT_DOUBLE_EQ(loads[1].download, 25.0);
  // The split allocation is valid overall.
  EXPECT_TRUE(check_allocation(f.problem(), a).ok());
}

} // namespace
} // namespace insp
