// Determinism of the sharded detection path (DetectorOptions::num_threads):
// the shard of a tuple is a pure function of its LHS codes and the merge
// re-establishes the serial first-touch order, so the sharded ViolationTable
// must be *exactly* the serial one — same singles in the same sequence, same
// groups in the same sequence with the same member order — for every thread
// count, not merely equivalent up to reordering. The count-only pass
// (NativeDetector::Count, serial whatever num_threads says) must print the
// serial table's Summary() at every thread count too.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "detect/shard_plan.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::detect {
namespace {

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

/// Exact (order-sensitive) equality of two violation tables.
void ExpectExactlyEqual(const ViolationTable& serial,
                        const ViolationTable& sharded, const Relation& rel) {
  EXPECT_EQ(serial.TotalVio(), sharded.TotalVio());
  EXPECT_EQ(serial.NumViolatingTuples(), sharded.NumViolatingTuples());
  for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
    ASSERT_EQ(serial.vio(tid), sharded.vio(tid)) << "vio mismatch at " << tid;
  }

  ASSERT_EQ(serial.singles().size(), sharded.singles().size());
  for (size_t i = 0; i < serial.singles().size(); ++i) {
    const SingleViolation& a = serial.singles()[i];
    const SingleViolation& b = sharded.singles()[i];
    EXPECT_EQ(a.tid, b.tid) << "single " << i;
    EXPECT_EQ(a.cfd_index, b.cfd_index) << "single " << i;
    EXPECT_EQ(a.pattern_index, b.pattern_index) << "single " << i;
  }

  ASSERT_EQ(serial.groups().size(), sharded.groups().size());
  for (size_t i = 0; i < serial.groups().size(); ++i) {
    const ViolationGroup& a = serial.groups()[i];
    const ViolationGroup& b = sharded.groups()[i];
    EXPECT_EQ(a.fd_group, b.fd_group) << "group " << i;
    EXPECT_EQ(a.cfd_index, b.cfd_index) << "group " << i;
    ASSERT_EQ(a.lhs_key.size(), b.lhs_key.size()) << "group " << i;
    for (size_t k = 0; k < a.lhs_key.size(); ++k) {
      EXPECT_EQ(a.lhs_key[k], b.lhs_key[k]) << "group " << i << " key " << k;
    }
    ASSERT_EQ(a.members.size(), b.members.size()) << "group " << i;
    for (size_t k = 0; k < a.members.size(); ++k) {
      EXPECT_EQ(a.members[k], b.members[k]) << "group " << i << " member " << k;
      EXPECT_EQ(a.member_rhs[k], b.member_rhs[k]) << "group " << i;
      EXPECT_EQ(a.member_partners[k], b.member_partners[k]) << "group " << i;
    }
  }
}

ViolationTable DetectWith(const Relation& rel, const std::vector<cfd::Cfd>& cfds,
                          size_t num_threads,
                          const EncodedRelation* warm = nullptr) {
  DetectorOptions options;
  options.num_threads = num_threads;
  NativeDetector detector(&rel, cfds, options);
  if (warm != nullptr) detector.set_encoded(warm);
  auto table = detector.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(*table) : ViolationTable{};
}

/// The count-only pass (NativeDetector::Count), rendered as `detect`
/// prints it; it must equal the serial Detect's Summary().
std::string CountWith(const Relation& rel, const std::vector<cfd::Cfd>& cfds,
                      size_t num_threads,
                      const EncodedRelation* warm = nullptr) {
  DetectorOptions options;
  options.num_threads = num_threads;
  NativeDetector detector(&rel, cfds, options);
  if (warm != nullptr) detector.set_encoded(warm);
  auto counts = detector.Count();
  EXPECT_TRUE(counts.ok()) << counts.status().ToString();
  return counts.ok() ? counts->ToString() : std::string();
}

const size_t kCountThreads[] = {1, 2, 4, 0};

void ExpectShardedMatchesSerial(const Relation& rel,
                                const std::vector<cfd::Cfd>& cfds) {
  const ViolationTable serial = DetectWith(rel, cfds, 1);
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectExactlyEqual(serial, DetectWith(rel, cfds, threads), rel);
  }
  // 0 = one lane per hardware thread (whatever this host has).
  ExpectExactlyEqual(serial, DetectWith(rel, cfds, 0), rel);
  for (const size_t threads : kCountThreads) {
    EXPECT_EQ(CountWith(rel, cfds, threads), serial.Summary())
        << "Count at num_threads=" << threads;
  }
}

TEST(ShardedDetectTest, MatchesSerialOnNoisyCustomer) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 6000;
  opts.noise_rate = 0.10;
  opts.seed = 21;
  const auto wl = workload::CustomerGenerator::Generate(opts);
  ExpectShardedMatchesSerial(wl.dirty,
                             Parse(workload::CustomerGenerator::PaperCfds()));
}

TEST(ShardedDetectTest, MatchesSerialOnNoisyHospital) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 6000;
  opts.noise_rate = 0.10;
  opts.seed = 22;
  const auto wl = workload::HospitalGenerator::Generate(opts);
  ExpectShardedMatchesSerial(wl.dirty,
                             Parse(workload::HospitalGenerator::HospitalCfds()));
}

TEST(ShardedDetectTest, MatchesSerialThroughAttachedEncoding) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 6000;
  opts.noise_rate = 0.08;
  opts.seed = 23;
  const auto wl = workload::CustomerGenerator::Generate(opts);
  const auto cfds = Parse(workload::CustomerGenerator::PaperCfds());
  const EncodedRelation warm(&wl.dirty);
  const ViolationTable serial = DetectWith(wl.dirty, cfds, 1, &warm);
  ExpectExactlyEqual(serial, DetectWith(wl.dirty, cfds, 4, &warm), wl.dirty);
  EXPECT_EQ(CountWith(wl.dirty, cfds, 1, &warm), serial.Summary());
  EXPECT_EQ(CountWith(wl.dirty, cfds, 4, &warm), serial.Summary());
}

TEST(ShardedDetectTest, EmptyRelation) {
  const Relation rel("t", relational::Schema::AllStrings({"A", "B"}));
  const auto cfds = Parse("t: [A] -> [B]\nt: [A=1] -> [B=x]\n");
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    const ViolationTable table = DetectWith(rel, cfds, threads);
    EXPECT_EQ(table.TotalVio(), 0) << threads << " threads";
    EXPECT_TRUE(table.groups().empty());
    EXPECT_TRUE(table.singles().empty());
    EXPECT_EQ(CountWith(rel, cfds, threads), table.Summary());
  }
}

TEST(ShardedDetectTest, SingleGroupLandsInOneShard) {
  // Every tuple shares one LHS key, so all the multi-tuple work lands in a
  // single shard while the others stay empty — the extreme skew case. Large
  // enough that the planner actually shards (see kMinTuplesPerShard).
  Relation rel("t", relational::Schema::AllStrings({"K", "V"}));
  for (int i = 0; i < 2000; ++i) {
    rel.MustInsert({Value::String("key"), Value::String(i % 2 ? "x" : "y")});
  }
  const auto cfds = Parse("t: [K] -> [V]");
  const ViolationTable serial = DetectWith(rel, cfds, 1);
  ASSERT_EQ(serial.groups().size(), 1u);
  EXPECT_EQ(serial.groups()[0].members.size(), 2000u);
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectExactlyEqual(serial, DetectWith(rel, cfds, threads), rel);
    EXPECT_EQ(CountWith(rel, cfds, threads), serial.Summary());
  }
}

TEST(ShardedDetectTest, CountMatchesDetectOnEdgeCases) {
  // The counting sinks on the inputs that stress them: tombstones, NULL
  // LHS and RHS cells, a wide (hashed) key, constant-only Sigma, LHS
  // constants no tuple carries, and one tuple flagged by several rows of
  // one CFD (vio counts it once per CFD).
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 6000;
  opts.noise_rate = 0.10;
  opts.seed = 24;
  auto wl = workload::CustomerGenerator::Generate(opts);
  Relation& rel = wl.dirty;
  const size_t city = 2, zip = 3;
  for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
    if (tid % 9 == 4) {
      ASSERT_OK(rel.Delete(tid));
    } else if (tid % 13 == 6) {
      ASSERT_OK(rel.SetCell(tid, zip, Value::Null()));
    } else if (tid % 17 == 8) {
      ASSERT_OK(rel.SetCell(tid, city, Value::Null()));
    }
  }
  const std::string sigmas[] = {
      workload::CustomerGenerator::PaperCfds(),
      "customer: [CNT, CITY, ZIP] -> [STR]\n"
      "customer: [NAME, CNT, ZIP] -> [CITY]",
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }\n"
      "customer: [CNT=UK] -> [AC=131]",
      "customer: [CNT, ZIP] -> [CITY] { (Atlantis, _ | _), (UK, _ | _) }\n"
      "customer: [CC] -> [CNT] { (999 | UK), (44 | UK) }",
      "customer: [CC, CNT] -> [AC] { (44, _ | 1), (_, UK | 2) }\n"
      "customer: [CNT] -> [AC] { (UK | 3) }",
  };
  for (const std::string& text : sigmas) {
    SCOPED_TRACE(text);
    const auto cfds = Parse(text);
    const ViolationTable serial = DetectWith(rel, cfds, 1);
    EXPECT_GT(serial.TotalVio(), 0);
    for (const size_t threads : kCountThreads) {
      EXPECT_EQ(CountWith(rel, cfds, threads), serial.Summary())
          << "Count at num_threads=" << threads;
    }
  }

  // Thousands of small violating buckets over a wide RHS domain.
  Relation wide("w", relational::Schema::AllStrings({"K", "V"}));
  for (int i = 0; i < 6000; ++i) {
    wide.MustInsert({Value::String("k" + std::to_string(i / 3)),
                     Value::String(i % 3 == 0 ? "shared" : std::to_string(i))});
  }
  const auto fd = Parse("w: [K] -> [V]");
  const ViolationTable serial = DetectWith(wide, fd, 1);
  EXPECT_EQ(serial.groups().size(), 2000u);
  for (const size_t threads : kCountThreads) {
    EXPECT_EQ(CountWith(wide, fd, threads), serial.Summary())
        << "Count at num_threads=" << threads;
  }
}

TEST(ShardedDetectTest, PlannerNarrowsTinyRelations) {
  // Below the per-shard floor the plan collapses to the serial scan; the
  // knob is still honored API-wise (result identical, no worker overhead).
  EXPECT_EQ(PlanShards(1, 1'000'000).num_shards, 1u);
  EXPECT_EQ(PlanShards(4, 100).num_shards, 1u);
  EXPECT_EQ(PlanShards(4, 4 * kMinTuplesPerShard).num_shards, 4u);
  EXPECT_EQ(PlanShards(7, 2 * kMinTuplesPerShard + 1).num_shards, 2u);
  EXPECT_EQ(PlanShards(2, 0).num_shards, 1u);
  EXPECT_GE(PlanShards(0, 1'000'000).num_shards, 1u);  // hardware-resolved
  // An absurd explicit count must not translate into thousands of threads.
  EXPECT_LE(PlanShards(999'999, 100'000'000).num_shards, kMaxShards);

  const Relation rel = semandaq::testing::PaperCustomerRelation();
  const auto cfds = Parse(semandaq::testing::PaperCfdText());
  ExpectExactlyEqual(DetectWith(rel, cfds, 1), DetectWith(rel, cfds, 7), rel);
}

}  // namespace
}  // namespace semandaq::detect
