// The server's concurrency contract under real thread interleaving: N
// reader sessions hammer detect/mine/SQL detect against epochs they pin
// while one writer keeps appending batches — and EVERY reader result must
// be byte-identical to a serial recomputation against a standalone
// rebuild of exactly the epoch it pinned. Readers compute through
// core::EpochRead, the one body the service's read verbs run. This is the
// end-to-end composition of the determinism invariant (same bytes across
// thread counts and SIMD tiers) with snapshot immutability (pins never
// observe later writes).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "core/epoch.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "discovery/cfd_miner.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "relational/value.h"
#include "server/service.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

constexpr size_t kReaders = 6;
constexpr size_t kReadsPerReader = 6;
constexpr size_t kWriterBatches = 40;

std::vector<cfd::Cfd> TestCfds() {
  auto r = cfd::ParseCfdSet(
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }\n");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

/// Canonical detect output: the summary line plus every violating tuple
/// id with its violation count — enough to pin down the full table.
std::string CanonicalDetect(const detect::ViolationTable& table) {
  std::string out = table.Summary();
  for (TupleId tid : table.ViolatingTuples()) {
    out += " " + std::to_string(tid) + ":" + std::to_string(table.vio(tid));
  }
  return out;
}

std::string CanonicalMine(const std::vector<cfd::Cfd>& mined) {
  std::string out;
  for (const auto& c : mined) out += c.ToString() + "\n";
  return out;
}

/// What a reader computed: a mine, a native detect or a SQL detect.
enum class ReadKind { kMine, kDetect, kDetectSql };

/// One observation: the pinned snapshot and what a reader computed on it.
struct Observation {
  core::SnapshotPtr snap;
  ReadKind kind = ReadKind::kDetect;
  std::string result;
};

/// Serial ground truth: rebuild a standalone relation from the pinned
/// snapshot's rows (append-only writer, so tuple ids are dense and
/// preserved), and rerun the engine on it directly with one lane: the
/// miner, the SQL detector in a database of its own, or the native
/// detector over an encoding built from scratch on this thread.
std::string SerialRecompute(const Observation& obs,
                            const std::vector<cfd::Cfd>& cfds) {
  Relation rebuilt{obs.snap->relation.name(), obs.snap->relation.schema()};
  const TupleId bound = obs.snap->relation.IdBound();
  for (TupleId tid = 0; tid < bound; ++tid) {
    EXPECT_TRUE(obs.snap->relation.IsLive(tid));
    rebuilt.MustInsert(obs.snap->relation.row(tid));
  }
  if (obs.kind == ReadKind::kMine) {
    discovery::CfdMiner miner(&rebuilt, {});
    auto mined = miner.Mine();
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? CanonicalMine(*mined) : std::string();
  }
  if (obs.kind == ReadKind::kDetectSql) {
    relational::Database db;
    EXPECT_OK(db.AddRelation(std::move(rebuilt)));
    detect::SqlDetector det(&db, obs.snap->relation.name(), cfds);
    auto table = det.Detect();
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return table.ok() ? CanonicalDetect(*table) : std::string();
  }
  EncodedRelation enc(&rebuilt);
  detect::DetectorOptions options;  // num_threads = 1: the serial scan
  detect::NativeDetector det(&rebuilt, cfds, options);
  det.set_encoded(&enc);
  auto table = det.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? CanonicalDetect(*table) : std::string();
}

Row CustomerRow(size_t seq) {
  // Cycle through a small value pool so appended rows join existing
  // violation groups (the interesting case) instead of being inert.
  static const char* kCnt[] = {"UK", "NL", "US"};
  static const char* kCc[] = {"44", "31", "1"};
  const size_t k = seq % 3;
  Row row;
  row.push_back(Value::String("writer_" + std::to_string(seq)));  // NAME
  row.push_back(Value::String(kCnt[(k + seq / 7) % 3]));          // CNT
  row.push_back(Value::String("Springfield"));                    // CITY
  row.push_back(Value::String("Z" + std::to_string(seq % 5)));    // ZIP
  row.push_back(Value::String("Main St " + std::to_string(seq % 4)));
  row.push_back(Value::String(kCc[k]));                           // CC
  row.push_back(Value::String("131"));                            // AC
  return row;
}

TEST(ServerConcurrencyTest, ReadersAreByteIdenticalToSerialRunsOnTheirEpoch) {
  SemandaqService service;
  SemandaqService::SessionState boot;
  {
    auto r = service.Execute(&boot, "gen customer 400 10");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::vector<cfd::Cfd> cfds = TestCfds();
  for (const auto& c : cfds) {
    ASSERT_OK(service.system_unsynchronized().constraints().AddCfd(c));
  }

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observed(kReaders);

  std::thread writer([&] {
    for (size_t b = 0; b < kWriterBatches; ++b) {
      std::vector<Row> batch;
      for (size_t i = 0; i < 3; ++i) batch.push_back(CustomerRow(b * 3 + i));
      auto appended = service.AppendBatch("customer", std::move(batch));
      EXPECT_TRUE(appended.ok()) << appended.status().ToString();
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        Observation obs;
        obs.snap = service.Pin("customer");
        ASSERT_NE(obs.snap, nullptr);
        // Lease worker lanes the way the command layer does: contended
        // requests degrade toward serial, output unchanged.
        ThreadLease lease = service.scheduler().Acquire((r % 4) + 1);
        detect::DetectorOptions options;
        options.num_threads = lease.lanes();
        const core::EpochRead read{obs.snap, cfds, options, lease.pool()};
        obs.kind = static_cast<ReadKind>((r + i) % 3);
        if (obs.kind == ReadKind::kMine) {
          auto mined = read.Mine();
          ASSERT_TRUE(mined.ok()) << mined.status().ToString();
          obs.result = CanonicalMine(*mined);
        } else {
          auto table = obs.kind == ReadKind::kDetectSql
                           ? read.DetectSql()
                           : read.Detector().Detect();
          ASSERT_TRUE(table.ok()) << table.status().ToString();
          obs.result = CanonicalDetect(*table);
        }
        observed[r].push_back(std::move(obs));
      }
    });
  }
  for (auto& t : readers) t.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());

  // Epochs only ever grow, and a pinned epoch's size is frozen: relation
  // size must be monotone in epoch across every observation.
  for (const auto& per_reader : observed) {
    for (size_t i = 1; i < per_reader.size(); ++i) {
      ASSERT_GE(per_reader[i].snap->epoch, per_reader[i - 1].snap->epoch);
      ASSERT_GE(per_reader[i].snap->relation.size(),
                per_reader[i - 1].snap->relation.size());
    }
  }

  // The core assertion: every concurrent result is byte-identical to the
  // serial recomputation against its own pinned epoch.
  size_t checked = 0;
  for (const auto& per_reader : observed) {
    for (const Observation& obs : per_reader) {
      ASSERT_EQ(obs.result, SerialRecompute(obs, cfds))
          << "epoch " << obs.snap->epoch << " size "
          << obs.snap->relation.size();
      ++checked;
    }
  }
  EXPECT_EQ(checked, kReaders * kReadsPerReader);

  // The final epoch contains every appended row.
  core::SnapshotPtr last = service.Pin("customer");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->relation.size(), 400u + kWriterBatches * 3);

  // All leases returned: the full lane budget is free again.
  EXPECT_EQ(service.scheduler().available(), service.scheduler().total_lanes());
}

}  // namespace
}  // namespace semandaq::server
