#include "net/bandwidth_ledger.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace insp {
namespace {

TEST(CardLedger, AddRemoveTracksUsage) {
  CardLedger cards({100.0, 200.0});
  EXPECT_DOUBLE_EQ(cards.used(0), 0.0);
  cards.add(0, 30.0);
  cards.add(0, 20.0);
  EXPECT_DOUBLE_EQ(cards.used(0), 50.0);
  EXPECT_DOUBLE_EQ(cards.headroom(0), 50.0);
  cards.remove(0, 30.0);
  EXPECT_DOUBLE_EQ(cards.used(0), 20.0);
  EXPECT_DOUBLE_EQ(cards.used(1), 0.0);
}

TEST(CardLedger, CanAddRespectsCapacity) {
  CardLedger cards({100.0});
  EXPECT_TRUE(cards.can_add(0, 100.0));
  cards.add(0, 60.0);
  EXPECT_TRUE(cards.can_add(0, 40.0));
  EXPECT_FALSE(cards.can_add(0, 41.0));
}

TEST(CardLedger, EpsilonToleranceAtBoundary) {
  CardLedger cards({1.0});
  cards.add(0, 0.3);
  cards.add(0, 0.3);
  cards.add(0, 0.3);
  // 0.9 + 0.1 may exceed 1.0 by floating error; must still fit.
  EXPECT_TRUE(cards.can_add(0, 0.1));
}

TEST(CardLedger, RemoveToZeroCancelsDrift) {
  CardLedger cards({10.0});
  cards.add(0, 0.1);
  cards.add(0, 0.2);
  cards.remove(0, 0.2);
  cards.remove(0, 0.1);
  EXPECT_DOUBLE_EQ(cards.used(0), 0.0);
}

TEST(LinkLedger, SymmetricKeys) {
  LinkLedger links(100.0);
  links.add(3, 7, 25.0);
  EXPECT_DOUBLE_EQ(links.used(7, 3), 25.0);
  EXPECT_DOUBLE_EQ(links.used(3, 7), 25.0);
  links.remove(7, 3, 25.0);
  EXPECT_DOUBLE_EQ(links.used(3, 7), 0.0);
  EXPECT_EQ(links.active_links(), 0u);
}

TEST(LinkLedger, IndependentPairs) {
  LinkLedger links(100.0);
  links.add(0, 1, 10.0);
  links.add(0, 2, 20.0);
  links.add(1, 2, 30.0);
  EXPECT_DOUBLE_EQ(links.used(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(links.used(0, 2), 20.0);
  EXPECT_DOUBLE_EQ(links.used(1, 2), 30.0);
  EXPECT_EQ(links.active_links(), 3u);
}

TEST(LinkLedger, CanAddAndHeadroom) {
  LinkLedger links(50.0);
  links.add(0, 1, 30.0);
  EXPECT_TRUE(links.can_add(0, 1, 20.0));
  EXPECT_FALSE(links.can_add(0, 1, 21.0));
  EXPECT_DOUBLE_EQ(links.headroom(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(links.headroom(5, 6), 50.0);  // untouched pair
}

TEST(LinkLedger, AllWithinDetectsOverload) {
  LinkLedger links(50.0);
  links.add(0, 1, 30.0);
  EXPECT_TRUE(links.all_within());
  links.add(0, 1, 30.0);
  EXPECT_FALSE(links.all_within());
}

TEST(LinkLedger, EntriesExposesActiveLinks) {
  LinkLedger links(100.0);
  links.add(2, 1, 5.0);
  const auto& entries = links.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.begin()->first, (std::pair<int, int>{1, 2}));
  EXPECT_DOUBLE_EQ(entries.begin()->second, 5.0);
}

TEST(LinkLedger, ZeroedEntriesErased) {
  LinkLedger links(100.0);
  links.add(0, 1, 5.0);
  links.add(0, 1, 7.0);
  links.remove(0, 1, 5.0);
  EXPECT_EQ(links.active_links(), 1u);
  links.remove(0, 1, 7.0);
  EXPECT_EQ(links.active_links(), 0u);
}

// ---------------------------------------------------------------------------
// Transaction / touched-set delta API (docs/DESIGN.md §5)
// ---------------------------------------------------------------------------

TEST(LinkLedger, RenameEndpointMovesLinksAndKeepsOrder) {
  LinkLedger l(100.0);
  l.add(1, 2, 5.0);
  l.add(2, 3, 7.0);
  l.add(1, 4, 3.0);
  l.add(4, 5, 1.0);
  l.add(2, 4, 2.0);  // the renamed pair itself: dropped
  l.add(0, 2, 0.5);
  l.rename_endpoint(2, 4);
  // (1,2) lands on the existing (1,4); (2,3) and (0,2) become new links.
  const std::vector<LinkLedger::Entry> expected = {
      {{0, 4}, 0.5}, {{1, 4}, 8.0}, {{3, 4}, 7.0}, {{4, 5}, 1.0}};
  EXPECT_EQ(l.entries(), expected);
  EXPECT_DOUBLE_EQ(l.used(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(l.used(4, 2), 0.0);
}

TEST(LinkLedger, RenameEndpointOntoHigherIdResorts) {
  LinkLedger l(100.0);
  l.add(0, 1, 1.0);
  l.add(1, 2, 2.0);
  l.add(2, 3, 3.0);
  l.rename_endpoint(1, 9);
  const std::vector<LinkLedger::Entry> expected = {
      {{0, 9}, 1.0}, {{2, 3}, 3.0}, {{2, 9}, 2.0}};
  EXPECT_EQ(l.entries(), expected);
  l.rename_endpoint(5, 6);  // no links: nothing changes
  EXPECT_EQ(l.entries(), expected);
}

TEST(LinkLedgerTxn, CommitKeepsChangesAndClosesTxn) {
  LinkLedger links(100.0);
  links.add(0, 1, 10.0);
  links.begin_txn();
  EXPECT_TRUE(links.in_txn());
  links.add(0, 1, 5.0);
  links.add(2, 3, 7.0);
  EXPECT_EQ(links.touched_links(), 2u);
  links.commit_txn();
  EXPECT_FALSE(links.in_txn());
  EXPECT_DOUBLE_EQ(links.used(0, 1), 15.0);
  EXPECT_DOUBLE_EQ(links.used(2, 3), 7.0);
}

TEST(LinkLedgerTxn, RollbackRestoresValuesAndAbsences) {
  LinkLedger links(100.0);
  links.add(0, 1, 10.0);
  links.begin_txn();
  links.add(0, 1, 5.0);   // existing entry grows
  links.add(2, 3, 7.0);   // entry created inside the txn
  links.remove(0, 1, 15.0);  // existing entry erased inside the txn
  EXPECT_EQ(links.active_links(), 1u);
  links.rollback_txn();
  EXPECT_FALSE(links.in_txn());
  EXPECT_DOUBLE_EQ(links.used(0, 1), 10.0);  // exact pre-txn value
  EXPECT_DOUBLE_EQ(links.used(2, 3), 0.0);
  EXPECT_EQ(links.active_links(), 1u);  // (2,3) absent again, not zeroed
}

TEST(LinkLedgerTxn, RollbackOfRemoveReinsertsExactValue) {
  LinkLedger links(100.0);
  links.add(4, 5, 0.1);
  links.add(4, 5, 0.2);
  const MBps before = links.used(4, 5);
  links.begin_txn();
  links.remove(4, 5, before);  // erased (drops to ~0)
  EXPECT_EQ(links.active_links(), 0u);
  links.rollback_txn();
  EXPECT_DOUBLE_EQ(links.used(4, 5), before);
  EXPECT_EQ(links.active_links(), 1u);
}

TEST(LinkLedgerTxn, TouchedWithinChecksOnlyTouchedLinks) {
  LinkLedger links(50.0);
  links.add(0, 1, 80.0);  // overloaded, but outside any txn
  links.begin_txn();
  links.add(2, 3, 10.0);
  EXPECT_TRUE(links.touched_no_worse());  // (0,1) is not consulted
  EXPECT_FALSE(links.all_within());       // the full scan still sees it
  links.add(4, 5, 60.0);
  EXPECT_FALSE(links.touched_no_worse());  // the new violation is touched
  links.rollback_txn();
}

TEST(LinkLedgerTxn, TouchedWithinSeesViolationOnExistingLink) {
  LinkLedger links(50.0);
  links.add(0, 1, 45.0);
  links.begin_txn();
  links.add(0, 1, 10.0);  // pushes the touched link over capacity
  EXPECT_FALSE(links.touched_no_worse());
  links.rollback_txn();
  EXPECT_DOUBLE_EQ(links.used(0, 1), 45.0);
  EXPECT_TRUE(links.all_within());
}

TEST(LinkLedgerTxn, BackToBackTransactionsAreIndependent) {
  LinkLedger links(100.0);
  links.begin_txn();
  links.add(0, 1, 30.0);
  links.commit_txn();
  links.begin_txn();
  EXPECT_EQ(links.touched_links(), 0u);  // journal reset
  links.add(0, 1, 20.0);
  links.rollback_txn();
  EXPECT_DOUBLE_EQ(links.used(0, 1), 30.0);  // only the second txn undone
}

TEST(LinkLedgerTxn, TouchedNoWorseAllowsShrinkingPreexistingViolation) {
  LinkLedger links(50.0);
  links.add(0, 1, 80.0);  // already violated before the transaction
  links.begin_txn();
  links.remove(0, 1, 10.0);  // still violated, but strictly better
  EXPECT_FALSE(links.all_within());
  EXPECT_TRUE(links.touched_no_worse());
  links.rollback_txn();
}

TEST(LinkLedgerTxn, TouchedNoWorseRejectsGrowingViolation) {
  LinkLedger links(50.0);
  links.add(0, 1, 80.0);
  links.begin_txn();
  links.add(0, 1, 5.0);  // the excess grows
  EXPECT_FALSE(links.touched_no_worse());
  links.rollback_txn();
}

TEST(LinkLedgerTxn, TouchedNoWorseRejectsNewViolation) {
  LinkLedger links(50.0);
  links.add(0, 1, 80.0);  // untouched violation elsewhere is irrelevant
  links.begin_txn();
  links.add(2, 3, 60.0);  // a *new* violation on a previously-fine link
  EXPECT_FALSE(links.touched_no_worse());
  links.rollback_txn();
}

TEST(LinkLedgerTxn, TouchedNoWorseJudgesAgainstFirstJournalEntry) {
  LinkLedger links(50.0);
  links.add(0, 1, 80.0);
  links.begin_txn();
  // Two steps: up then partially down, net increase.  Judging each entry
  // against its own recorded prior value would wrongly accept this.
  links.add(0, 1, 20.0);
  links.remove(0, 1, 10.0);
  EXPECT_FALSE(links.touched_no_worse());
  links.rollback_txn();
  // Net decrease over two steps is accepted.
  links.begin_txn();
  links.add(0, 1, 10.0);
  links.remove(0, 1, 25.0);
  EXPECT_TRUE(links.touched_no_worse());
  links.rollback_txn();
  EXPECT_DOUBLE_EQ(links.used(0, 1), 80.0);
}

TEST(LinkLedgerTxn, TouchedNoWorseAcceptsWithinCapacityChanges) {
  LinkLedger links(50.0);
  links.begin_txn();
  links.add(0, 1, 40.0);
  EXPECT_TRUE(links.touched_no_worse());
  links.commit_txn();
  // A link that fit before the transaction — here within kCapacityEpsilon
  // of its limit — must still fit after it: ending just past the limit is
  // a new violation even though it is within epsilon of the prior value.
  const MBps edge = 50.0 + 0.5 * kCapacityEpsilon * 51.0;
  links.add(2, 3, edge);
  ASSERT_TRUE(links.all_within());
  links.begin_txn();
  links.add(2, 3, 0.9 * kCapacityEpsilon * 51.0);
  ASSERT_FALSE(links.all_within());
  EXPECT_FALSE(links.touched_no_worse());
  links.rollback_txn();
}

} // namespace
} // namespace insp
