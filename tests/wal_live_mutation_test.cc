// The live WAL mutation path (ROADMAP PR 3 follow-up): after SaveRelation
// or OpenRelation, every mutation committed through the relation's
// mutators — DataMonitor update batches, applied repairs, direct
// Insert/Delete/SetCell — must append to the attached WAL sidecar so a
// later OpenRelation replays the relation to its exact live state. The
// gate is mutate -> reopen -> redetect: the reopened relation's detection
// output must equal the live one's, byte for byte.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/semandaq.h"
#include "relational/update.h"
#include "test_util.h"
#include "workload/customer_gen.h"

namespace semandaq::core {
namespace {

using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Update;
using relational::UpdateBatch;
using relational::Value;

std::string TempPath(const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

Row CustomerRow(const std::string& name) {
  return {Value::String(name),        Value::String("UK"),
          Value::String("Edinburgh"), Value::String("EH2 4SD"),
          Value::String("Mayfield Rd"), Value::String("44"),
          Value::String("131")};
}

void ExpectSameDetection(Semandaq& live, const std::string& live_name,
                         Semandaq& reopened, const std::string& reopened_name) {
  auto a = live.DetectErrors(live_name);
  auto b = reopened.DetectErrors(reopened_name);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->Summary(), b->Summary());
  EXPECT_EQ(a->TotalVio(), b->TotalVio());
  ASSERT_EQ(a->singles().size(), b->singles().size());
  for (size_t i = 0; i < a->singles().size(); ++i) {
    EXPECT_EQ(a->singles()[i].tid, b->singles()[i].tid) << i;
  }
  ASSERT_EQ(a->groups().size(), b->groups().size());
  for (size_t i = 0; i < a->groups().size(); ++i) {
    EXPECT_EQ(a->groups()[i].members, b->groups()[i].members) << i;
  }
}

TEST(WalLiveMutationTest, MonitorUpdatesReachTheSidecar) {
  const std::string path = TempPath("wal_live_monitor.sdq");
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  (void)saved;

  // The save armed the attachment.
  storage::WalAttachment* wal = sys.AttachedWal("customer");
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->records_appended(), 0u);

  // Mutate through the monitor — the paper's live-update path. None of
  // these calls know about the WAL; the relation-level observer does.
  ASSERT_OK_AND_ASSIGN(auto monitor, sys.StartMonitor("customer"));
  UpdateBatch batch;
  batch.push_back(Update::Insert(CustomerRow("Zoe")));
  batch.push_back(Update::Insert(CustomerRow("Yan")));
  batch.push_back(Update::DeleteTuple(1));
  batch.push_back(Update::Modify(0, workload::CustomerGenerator::kStr,
                                 Value::String("Crichton St")));
  ASSERT_OK(monitor->OnUpdate(batch).status());
  EXPECT_EQ(wal->records_appended(), 4u);
  ASSERT_OK(wal->status());

  // Reopen the snapshot elsewhere: the sidecar replays the monitor's
  // mutations, so detection output matches the live relation exactly.
  Semandaq other;
  ASSERT_OK_AND_ASSIGN(auto opened, other.OpenRelation("customer2", path));
  EXPECT_EQ(opened.wal_records, 4u);
  ASSERT_OK(other.constraints().AddCfdsFromText(
      "customer2: [CNT=UK, ZIP=_] -> [STR=_]\ncustomer2: [CC=44] -> [CNT=UK]"));
  ExpectSameDetection(sys, "customer", other, "customer2");

  const Relation* live = sys.database().FindRelation("customer");
  const Relation* replayed = other.database().FindRelation("customer2");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(live->size(), replayed->size());
  EXPECT_EQ(live->IdBound(), replayed->IdBound());
  EXPECT_FALSE(replayed->IsLive(1));
  EXPECT_EQ(replayed->cell(0, workload::CustomerGenerator::kStr),
            Value::String("Crichton St"));

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(WalLiveMutationTest, ApplyRepairJournalsSetCells) {
  const std::string path = TempPath("wal_live_repair.sdq");
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  (void)saved;

  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  ASSERT_FALSE(repair.changes.empty());
  ASSERT_OK(sys.ApplyRepair("customer", repair));
  storage::WalAttachment* wal = sys.AttachedWal("customer");
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->records_appended(), repair.changes.size());

  Semandaq other;
  ASSERT_OK_AND_ASSIGN(auto opened, other.OpenRelation("cleaned", path));
  EXPECT_EQ(opened.wal_records, repair.changes.size());
  ASSERT_OK(other.constraints().AddCfdsFromText(
      "cleaned: [CNT=UK, ZIP=_] -> [STR=_]\ncleaned: [CC=44] -> [CNT=UK]"));
  ExpectSameDetection(sys, "customer", other, "cleaned");

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(WalLiveMutationTest, FailedApplyRepairWritesNothing) {
  // A repair that names a tuple deleted since `clean` must fail before it
  // writes any cell: no partial repair in the relation, none in the WAL.
  const std::string path = TempPath("wal_live_partial_repair.sdq");
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 200;
  opts.noise_rate = 0.10;
  auto wl = workload::CustomerGenerator::Generate(opts);
  Semandaq sys;
  ASSERT_OK(sys.Connect(std::move(wl.dirty)));
  ASSERT_OK(sys.constraints().AddCfdsFromText(
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }"));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  (void)saved;

  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  ASSERT_FALSE(repair.changes.empty());
  const TupleId doomed = repair.changes.back().tid;
  // The bug needs earlier changes on other tuples to leave behind.
  ASSERT_NE(repair.changes.front().tid, doomed);

  Relation* rel = sys.database().FindMutableRelation("customer");
  ASSERT_NE(rel, nullptr);
  ASSERT_OK(rel->Delete(doomed));
  const Relation before = *rel;
  storage::WalAttachment* wal = sys.AttachedWal("customer");
  ASSERT_NE(wal, nullptr);
  const size_t records = wal->records_appended();

  EXPECT_FALSE(sys.ApplyRepair("customer", repair).ok());
  EXPECT_EQ(wal->records_appended(), records);
  ASSERT_EQ(rel->size(), before.size());
  for (TupleId tid : before.LiveIds()) {
    EXPECT_TRUE(rel->row(tid) == before.row(tid)) << "tuple " << tid;
  }

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(WalLiveMutationTest, OpenedRelationKeepsJournaling) {
  // Open -> mutate -> reopen: the attachment armed by OpenRelation appends
  // after the replayed tail, so chained reopen cycles stay lossless.
  const std::string path = TempPath("wal_live_chain.sdq");
  {
    Semandaq sys;
    ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
    ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
    (void)saved;
    // Mutate AFTER save via direct relation access (any mutator counts).
    Relation* rel = sys.database().FindMutableRelation("customer");
    ASSERT_NE(rel, nullptr);
    ASSERT_OK(rel->Insert(CustomerRow("Pat")).status());
  }
  size_t first_gen_records = 0;
  {
    Semandaq sys;
    ASSERT_OK_AND_ASSIGN(auto opened, sys.OpenRelation("customer", path));
    first_gen_records = opened.wal_records;
    EXPECT_EQ(first_gen_records, 1u);
    Relation* rel = sys.database().FindMutableRelation("customer");
    ASSERT_NE(rel, nullptr);
    ASSERT_OK(rel->Delete(2));
    storage::WalAttachment* wal = sys.AttachedWal("customer");
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(wal->records_appended(), 1u);
  }
  {
    Semandaq sys;
    ASSERT_OK_AND_ASSIGN(auto opened, sys.OpenRelation("customer", path));
    EXPECT_EQ(opened.wal_records, 2u);  // insert + delete, both replayed
    const Relation* rel = sys.database().FindRelation("customer");
    ASSERT_NE(rel, nullptr);
    EXPECT_FALSE(rel->IsLive(2));
    EXPECT_EQ(rel->IdBound(), 8);  // 7 paper tuples + Pat
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(WalLiveMutationTest, UnsavedRelationHasNoAttachment) {
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  EXPECT_EQ(sys.AttachedWal("customer"), nullptr);
  EXPECT_EQ(sys.AttachedWal("nope"), nullptr);
}

}  // namespace
}  // namespace semandaq::core
