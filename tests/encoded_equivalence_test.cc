// The dictionary-encoded engines against independent oracles on noisy
// generated workloads: NativeDetector's violation tables against the
// paper's generated-SQL detector (SqlDetector, Q_C / Q_V), and
// Partition::Build against a brute-force Π_X written from its definition.

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/incremental_detector.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "discovery/partition.h"
#include "oracles.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::detect {
namespace {

using discovery::Partition;
using relational::Database;
using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

/// Group emission order is an implementation detail (hash order in the SQL
/// detector's bucketing, first-touch order in the native scan), and so is
/// member order within a group (the incremental detector re-appends
/// modified tuples). Canonical form: (member, rhs) pairs sorted by member,
/// groups sorted by (fd_group, smallest member).
struct CanonicalGroup {
  int fd_group = -1;
  int cfd_index = -1;
  relational::Row lhs_key;
  std::vector<std::pair<TupleId, Value>> members;
};

std::vector<CanonicalGroup> CanonicalGroups(const ViolationTable& t) {
  std::vector<CanonicalGroup> out;
  out.reserve(t.groups().size());
  for (const auto& g : t.groups()) {
    CanonicalGroup cg;
    cg.fd_group = g.fd_group;
    cg.cfd_index = g.cfd_index;
    cg.lhs_key = g.lhs_key;
    for (size_t i = 0; i < g.members.size(); ++i) {
      cg.members.emplace_back(g.members[i], g.member_rhs[i]);
    }
    std::sort(cg.members.begin(), cg.members.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.push_back(std::move(cg));
  }
  std::sort(out.begin(), out.end(),
            [](const CanonicalGroup& a, const CanonicalGroup& b) {
              if (a.fd_group != b.fd_group) return a.fd_group < b.fd_group;
              return a.members.front().first < b.members.front().first;
            });
  return out;
}

/// Which CFD a group names is a representative choice, not a semantic
/// fact: the native scans take the first variable pattern the group's
/// first-touched tuple matched, the SQL detector the group's first
/// variable-RHS CFD. Only tables from the native family compare it.
enum class CfdIndex { kCompare, kIgnore };

void ExpectIdenticalTables(const ViolationTable& want,
                           const ViolationTable& got, const Relation& rel,
                           CfdIndex cfd_index) {
  EXPECT_EQ(want.TotalVio(), got.TotalVio());
  EXPECT_EQ(want.NumViolatingTuples(), got.NumViolatingTuples());
  for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
    ASSERT_EQ(want.vio(tid), got.vio(tid)) << "vio mismatch at tuple " << tid;
  }

  // Canonicalize singles: full detection emits them group-major while the
  // incremental Snapshot emits them tid-major.
  auto canonical_singles = [](const ViolationTable& t) {
    std::vector<std::tuple<TupleId, int, int>> out;
    out.reserve(t.singles().size());
    for (const SingleViolation& s : t.singles()) {
      out.emplace_back(s.tid, s.cfd_index, s.pattern_index);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canonical_singles(want), canonical_singles(got));

  const auto ga = CanonicalGroups(want);
  const auto gb = CanonicalGroups(got);
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].fd_group, gb[i].fd_group);
    if (cfd_index == CfdIndex::kCompare) {
      EXPECT_EQ(ga[i].cfd_index, gb[i].cfd_index);
    }
    ASSERT_EQ(ga[i].lhs_key.size(), gb[i].lhs_key.size());
    for (size_t k = 0; k < ga[i].lhs_key.size(); ++k) {
      EXPECT_EQ(ga[i].lhs_key[k], gb[i].lhs_key[k])
          << "lhs_key mismatch in group " << i;
    }
    ASSERT_EQ(ga[i].members.size(), gb[i].members.size());
    for (size_t k = 0; k < ga[i].members.size(); ++k) {
      EXPECT_EQ(ga[i].members[k].first, gb[i].members[k].first);
      EXPECT_EQ(ga[i].members[k].second, gb[i].members[k].second)
          << "rhs mismatch at member " << ga[i].members[k].first;
    }
  }
}

/// The paper's SQL detector over a clone of `rel` (same tuple ids).
ViolationTable SqlTable(const Relation& rel, const std::vector<cfd::Cfd>& cfds) {
  Database db;
  EXPECT_OK(db.AddRelation(rel.Clone()));
  SqlDetector sql(&db, rel.name(), cfds);
  auto table = sql.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(*table) : ViolationTable{};
}

void ExpectDetectorEquivalence(const Relation& rel,
                               const std::vector<cfd::Cfd>& cfds) {
  const ViolationTable oracle = SqlTable(rel, cfds);

  NativeDetector cold_detector(&rel, cfds);
  auto cold_table = cold_detector.Detect();
  ASSERT_TRUE(cold_table.ok()) << cold_table.status().ToString();
  ExpectIdenticalTables(oracle, *cold_table, rel, CfdIndex::kIgnore);

  // Same again through an externally owned warm snapshot.
  EncodedRelation warm(&rel);
  NativeDetector warm_detector(&rel, cfds);
  warm_detector.set_encoded(&warm);
  auto warm_table = warm_detector.Detect();
  ASSERT_TRUE(warm_table.ok()) << warm_table.status().ToString();
  ExpectIdenticalTables(oracle, *warm_table, rel, CfdIndex::kIgnore);
  ExpectIdenticalTables(*cold_table, *warm_table, rel, CfdIndex::kCompare);
}

TEST(EncodedEquivalenceTest, NoisyCustomerDetection) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 3000;
  opts.noise_rate = 0.10;
  opts.seed = 7;
  const auto wl = workload::CustomerGenerator::Generate(opts);
  ExpectDetectorEquivalence(wl.dirty,
                            Parse(workload::CustomerGenerator::PaperCfds()));
}

TEST(EncodedEquivalenceTest, NoisyHospitalDetection) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 3000;
  opts.noise_rate = 0.10;
  opts.seed = 8;
  const auto wl = workload::HospitalGenerator::Generate(opts);
  ExpectDetectorEquivalence(wl.dirty,
                            Parse(workload::HospitalGenerator::HospitalCfds()));
}

TEST(EncodedEquivalenceTest, PaperExampleDetection) {
  const Relation rel = semandaq::testing::PaperCustomerRelation();
  ExpectDetectorEquivalence(rel, Parse(semandaq::testing::PaperCfdText()));
}

TEST(EncodedEquivalenceTest, NullHeavyEdgeCases) {
  // NULL LHS never groups; NULL RHS is "unknown, not wrong"; constants
  // absent from the data are compiled out.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"", "x", "1"},
       {"", "y", "1"},
       {"1", "x", ""},
       {"1", "y", "2"},
       {"1", "", "2"},
       {"2", "z", "9"}});
  ExpectDetectorEquivalence(
      rel, Parse("t: [A] -> [B]\n"
                 "t: [A=1] -> [C=2]\n"
                 "t: [A=7] -> [C=5]\n"));  // A=7 absent from the data
}

TEST(EncodedEquivalenceTest, NullPatternConstantMatchesNothing) {
  // A NULL pattern *constant* is legal via the public API and matches no
  // tuple (PatternValue::Matches rejects NULL cells); the encoded compiler
  // must not conflate it with kNullCode, which would match exactly the
  // NULL cells. The SQL detector cannot serve as the oracle here: its
  // tableau encoding stores a wildcard as NULL, so a NULL constant is not
  // expressible there. The expected answer is stated directly instead, for
  // the cold and warm scans and the incremental detector.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"", "x"}, {"", "y"}, {"1", "x"}, {"1", "y"}});
  cfd::PatternTuple null_const_row;
  null_const_row.lhs = {cfd::PatternValue::Constant(Value::Null())};
  null_const_row.rhs = cfd::PatternValue::Wildcard();
  cfd::Cfd phi("t", {"A"}, "B", {null_const_row});

  NativeDetector cold_detector(&rel, {phi});
  auto table = cold_detector.Detect();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->TotalVio(), 0) << "NULL constant must match no tuple";
  EncodedRelation warm(&rel);
  NativeDetector warm_detector(&rel, {phi});
  warm_detector.set_encoded(&warm);
  auto warm_table = warm_detector.Detect();
  ASSERT_TRUE(warm_table.ok());
  EXPECT_EQ(warm_table->TotalVio(), 0) << "NULL constant must match no tuple";

  IncrementalDetector inc(&rel, {phi});
  ASSERT_OK(inc.Initialize());
  EXPECT_TRUE(inc.Clean());
}

TEST(EncodedEquivalenceTest, StaleExternalSnapshotFallsBack) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"1", "x"}, {"1", "x"}});
  EncodedRelation stale(&rel);
  rel.MustInsert({Value::String("1"), Value::String("y")});  // stale now
  NativeDetector detector(&rel, Parse("t: [A] -> [B]"));
  detector.set_encoded(&stale);
  auto table = detector.Detect();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // The conflict introduced after the snapshot must still be found.
  ASSERT_EQ(table->groups().size(), 1u);
  EXPECT_EQ(table->groups()[0].members.size(), 3u);
}

// -------------------------------------------------- Partition oracle

void ExpectIdenticalPartitions(const Relation& rel,
                               const std::vector<size_t>& cols) {
  const semandaq::testing::BruteForcePartition oracle(rel, cols);
  const EncodedRelation enc(&rel);
  const Partition by_codes = Partition::Build(enc, cols);
  oracle.ExpectMatches(by_codes);
}

TEST(EncodedEquivalenceTest, PartitionsOnNoisyCustomer) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 2000;
  opts.noise_rate = 0.10;
  opts.seed = 9;
  const auto wl = workload::CustomerGenerator::Generate(opts);
  using C = workload::CustomerGenerator;
  ExpectIdenticalPartitions(wl.dirty, {C::kCnt});
  ExpectIdenticalPartitions(wl.dirty, {C::kZip});
  ExpectIdenticalPartitions(wl.dirty, {C::kCnt, C::kZip});
  ExpectIdenticalPartitions(wl.dirty, {C::kCnt, C::kZip, C::kStr});
}

TEST(EncodedEquivalenceTest, PartitionsOnNoisyHospital) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 2000;
  opts.noise_rate = 0.10;
  opts.seed = 10;
  const auto wl = workload::HospitalGenerator::Generate(opts);
  using H = workload::HospitalGenerator;
  ExpectIdenticalPartitions(wl.dirty, {H::kZip});
  ExpectIdenticalPartitions(wl.dirty, {H::kState, H::kCity});
  ExpectIdenticalPartitions(wl.dirty, {H::kState, H::kCity, H::kZip, H::kMcode});
}

TEST(EncodedEquivalenceTest, PartitionsWithNulls) {
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"},
      {{"", "x"}, {"1", "x"}, {"1", ""}, {"1", "x"}, {"2", "y"}, {"", ""}});
  ExpectIdenticalPartitions(rel, {0});
  ExpectIdenticalPartitions(rel, {1});
  ExpectIdenticalPartitions(rel, {0, 1});
}

// ------------------------------------------- incremental detector parity

// The incremental detector's snapshot after churn against both full
// detections: the SQL oracle, and the native scan (which also pins the
// representative cfd_index the two native detectors share).
TEST(EncodedEquivalenceTest, IncrementalSnapshotMatchesBothFullPaths) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 500;
  opts.noise_rate = 0.10;
  opts.seed = 11;
  auto wl = workload::CustomerGenerator::Generate(opts);
  const auto cfds = Parse(workload::CustomerGenerator::PaperCfds());

  IncrementalDetector inc(&wl.dirty, cfds);
  ASSERT_OK(inc.Initialize());
  // Churn: modify some cells, delete a tuple, insert a conflicting one.
  ASSERT_OK(inc.ApplyAndDetect(
      {relational::Update::Modify(3, workload::CustomerGenerator::kStr,
                                  Value::String("Broadway")),
       relational::Update::DeleteTuple(10),
       relational::Update::Modify(42, workload::CustomerGenerator::kCnt,
                                  Value::String("UK"))}));
  const ViolationTable snap = inc.Snapshot();

  ExpectIdenticalTables(SqlTable(wl.dirty, cfds), snap, wl.dirty,
                        CfdIndex::kIgnore);

  NativeDetector native(&wl.dirty, cfds);
  auto native_table = native.Detect();
  ASSERT_TRUE(native_table.ok());
  ExpectIdenticalTables(*native_table, snap, wl.dirty, CfdIndex::kCompare);
}

}  // namespace
}  // namespace semandaq::detect
