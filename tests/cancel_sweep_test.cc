// Cancellation determinism sweep (common/cancel): the contract a
// CancelToken buys is "byte-identical or never happened". For each
// cancellable operation — detect, SQL detect, mine, clean, opendb — we
// first run a census pass that counts every checkpoint the operation
// crosses, then replay the operation once per checkpoint with the token
// armed to trip exactly there. Every replay must either produce the
// baseline result bit-for-bit (the cancel arrived after the last
// checkpoint that mattered) or fail with Cancelled/DeadlineExceeded while
// leaving all observable state — the master relation, the facade
// catalog — exactly as it was.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "discovery/cfd_miner.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "test_util.h"

namespace semandaq {
namespace {

using common::CancelToken;
using common::StatusCode;
using core::Semandaq;
using relational::Relation;
using relational::RowToString;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

// ------------------------------------------------------- token unit tests

TEST(CancelTokenTest, UnarmedCheckIsOkAndUncounted) {
  CancelToken token;
  for (int i = 0; i < 3; ++i) EXPECT_OK(token.Check());
  // The unarmed fast path is one relaxed load; it must not even count.
  EXPECT_EQ(token.CheckCount(), 0u);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, CancelIsSticky) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  for (int i = 0; i < 3; ++i) {
    const common::Status st = token.Check();
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
  }
}

TEST(CancelTokenTest, ExpiredDeadlineLatchesDeadlineExceeded) {
  CancelToken token;
  token.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  // Latched: every later checkpoint reports the same cause, so one
  // operation never tears down half-Cancelled and half-DeadlineExceeded.
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ZeroDeadlineMeansNone) {
  CancelToken token;
  token.set_deadline_after_ms(0);
  EXPECT_OK(token.Check());
  EXPECT_EQ(token.CheckCount(), 0u);  // still unarmed
}

TEST(CancelTokenTest, CancelAfterChecksCountsDown) {
  CancelToken token;
  token.CancelAfterChecks(3);
  EXPECT_OK(token.Check());
  EXPECT_OK(token.Check());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);  // sticky
  EXPECT_GE(token.CheckCount(), 3u);
}

TEST(CancelTokenTest, FutureDeadlinePassesChecksUntilItExpires) {
  CancelToken token;
  token.set_deadline_after_ms(60000);
  EXPECT_OK(token.Check());
  EXPECT_EQ(token.CheckCount(), 1u);  // armed checks are counted
}

// ------------------------------------------------------ sweep scaffolding

/// Canonical rendering of a ViolationTable: everything the detector
/// publishes, in emission order. Two tables with equal fingerprints are
/// interchangeable for every consumer in the repo.
std::string Fingerprint(const detect::ViolationTable& table) {
  std::ostringstream out;
  out << table.Summary() << '\n';
  for (const auto& s : table.singles()) {
    out << "single " << s.tid << ' ' << s.cfd_index << ' ' << s.pattern_index
        << '\n';
  }
  for (const auto& g : table.groups()) {
    out << "group " << g.fd_group << ' ' << g.cfd_index << ' '
        << RowToString(g.lhs_key) << " members";
    for (auto tid : g.members) out << ' ' << tid;
    out << " partners";
    for (auto p : g.member_partners) out << ' ' << p;
    out << '\n';
  }
  return out.str();
}

/// Canonical rendering of a relation's live contents.
std::string Fingerprint(const Relation& rel) {
  std::ostringstream out;
  out << rel.name() << '/' << rel.size() << '\n';
  for (auto tid : rel.LiveIds()) out << tid << ' ' << RowToString(rel.row(tid)) << '\n';
  return out.str();
}

std::string Fingerprint(const std::vector<cfd::Cfd>& cfds) {
  std::ostringstream out;
  for (const auto& c : cfds) out << c.ToString() << '\n';
  return out.str();
}

/// The sweep driver. `op` runs the operation under a token and returns a
/// fingerprint of its published result; it must also verify, on failure,
/// that nothing observable changed (the no-partial-state half of the
/// contract). The census pass arms the token with an unreachable
/// countdown so every checkpoint is counted without tripping.
template <typename Op>
void SweepCheckpoints(const char* label, Op op) {
  CancelToken census;
  census.CancelAfterChecks(UINT64_MAX);
  auto baseline = op(&census);
  ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().ToString();
  const uint64_t checkpoints = census.CheckCount();
  ASSERT_GT(checkpoints, 0u)
      << label << " crossed no cancellation checkpoints — the loop is "
      << "uncancellable and the sweep is vacuous";

  // Injecting at every checkpoint is O(n^2) work; past a few hundred the
  // marginal coverage is runtime, not confidence. Stride but always hit
  // the first and last checkpoint.
  const uint64_t stride = checkpoints > 256 ? checkpoints / 256 : 1;
  uint64_t injected = 0;
  for (uint64_t k = 1; k <= checkpoints; k = (k == checkpoints ? k + 1 : std::min(k + stride, checkpoints))) {
    SCOPED_TRACE(std::string(label) + " cancel@" + std::to_string(k) + "/" +
                 std::to_string(checkpoints));
    CancelToken token;
    token.CancelAfterChecks(k);
    auto replay = op(&token);
    if (replay.ok()) {
      // The cancel landed after the operation's last checkpoint: the
      // result must be byte-identical to the uncancelled baseline.
      EXPECT_EQ(*replay, *baseline);
    } else {
      EXPECT_EQ(replay.status().code(), StatusCode::kCancelled)
          << replay.status().ToString();
    }
    ++injected;
  }
  ASSERT_GE(injected, std::min<uint64_t>(checkpoints, 2u));
}

// -------------------------------------------------------------- the sweeps

TEST(CancelSweepTest, DetectIsAllOrNothing) {
  const Relation rel = testing::PaperCustomerRelation();
  const std::string before = Fingerprint(rel);
  SweepCheckpoints("detect", [&](CancelToken* token)
                                 -> common::Result<std::string> {
    detect::DetectorOptions options;
    options.cancel = token;
    detect::NativeDetector detector(&rel, Parse(testing::PaperCfdText()),
                                    options);
    auto table = detector.Detect();
    EXPECT_EQ(Fingerprint(rel), before);  // detection never writes
    if (!table.ok()) return table.status();
    return Fingerprint(*table);
  });
}

TEST(CancelSweepTest, DetectShardedIsAllOrNothing) {
  const Relation rel = testing::PaperCustomerRelation();
  SweepCheckpoints("detect-sharded", [&](CancelToken* token)
                                         -> common::Result<std::string> {
    detect::DetectorOptions options;
    options.cancel = token;
    options.num_threads = 4;
    detect::NativeDetector detector(&rel, Parse(testing::PaperCfdText()),
                                    options);
    auto table = detector.Detect();
    if (!table.ok()) return table.status();
    return Fingerprint(*table);
  });
}

TEST(CancelSweepTest, CountIsAllOrNothing) {
  const Relation rel = testing::PaperCustomerRelation();
  const std::string before = Fingerprint(rel);
  SweepCheckpoints("count", [&](CancelToken* token)
                                -> common::Result<std::string> {
    detect::DetectorOptions options;
    options.cancel = token;
    detect::NativeDetector detector(&rel, Parse(testing::PaperCfdText()),
                                    options);
    auto counts = detector.Count();
    EXPECT_EQ(Fingerprint(rel), before);  // counting never writes
    if (!counts.ok()) return counts.status();
    return counts->ToString();
  });
}

TEST(CancelSweepTest, DetectSqlIsAllOrNothing) {
  Semandaq sys;
  ASSERT_OK(sys.Connect(testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(testing::PaperCfdText()));
  const std::vector<std::string> names = sys.database().RelationNames();
  const Relation& master = *sys.database().FindRelation("customer");
  const std::string before = Fingerprint(master);
  SweepCheckpoints("detect-sql", [&](CancelToken* token)
                                     -> common::Result<std::string> {
    detect::DetectorOptions options;
    options.cancel = token;
    auto table = sys.DetectErrors("customer", Semandaq::DetectorKind::kSql,
                                  options);
    // The generated SQL's tableau and key relations live in a scratch
    // catalog: finished or cancelled, the facade's catalog is untouched.
    EXPECT_EQ(sys.database().RelationNames(), names);
    EXPECT_EQ(Fingerprint(master), before);
    if (!table.ok()) return table.status();
    return Fingerprint(*table);
  });
}

TEST(CancelSweepTest, SqlDetectorLeavesItsDatabaseAsItWas) {
  // A caller-owned database: the tableaux Detect materializes must be gone
  // again whether it finishes, fails or is cancelled mid-query.
  relational::Database db;
  ASSERT_OK(db.AddRelation(testing::PaperCustomerRelation()));
  const std::vector<std::string> names = db.RelationNames();
  SweepCheckpoints("sql-detector", [&](CancelToken* token)
                                       -> common::Result<std::string> {
    detect::SqlDetector detector(&db, "customer",
                                 Parse(testing::PaperCfdText()));
    detector.set_cancel(token);
    auto table = detector.Detect();
    EXPECT_EQ(db.RelationNames(), names);
    if (!table.ok()) return table.status();
    return Fingerprint(*table);
  });
}

TEST(CancelSweepTest, MineIsAllOrNothing) {
  const Relation rel = testing::PaperCustomerRelation();
  const std::string before = Fingerprint(rel);
  SweepCheckpoints("mine", [&](CancelToken* token)
                               -> common::Result<std::string> {
    discovery::CfdMinerOptions options;
    options.max_lhs = 2;
    options.min_support = 2;
    options.cancel = token;
    discovery::CfdMiner miner(&rel, options);
    auto mined = miner.Mine();
    EXPECT_EQ(Fingerprint(rel), before);  // mining never writes
    if (!mined.ok()) return mined.status();
    return Fingerprint(*mined);
  });
}

TEST(CancelSweepTest, CleanLeavesTheMasterUntouched) {
  const Relation master = testing::PaperCustomerRelation();
  const std::string before = Fingerprint(master);
  SweepCheckpoints("clean", [&](CancelToken* token)
                                -> common::Result<std::string> {
    repair::RepairOptions options;
    options.cancel = token;
    repair::BatchRepair cleaner(
        &master, Parse(testing::PaperCfdText()),
        repair::CostModel(master.schema()), options);
    auto result = cleaner.Run();
    // The engine repairs a private clone; the master must be untouched
    // whether the run finished or was cancelled mid-round.
    EXPECT_EQ(Fingerprint(master), before);
    if (!result.ok()) return result.status();
    std::ostringstream out;
    out << Fingerprint(result->repaired) << "cost " << result->total_cost
        << " iters " << result->iterations << " escapes "
        << result->null_escapes << '\n';
    for (const auto& c : result->changes) {
      out << "change " << c.tid << ' ' << c.col << ' '
          << RowToString({c.original}) << " -> " << RowToString({c.repaired})
          << '\n';
    }
    return out.str();
  });
}

TEST(CancelSweepTest, OpenDatabaseUnwindsOnCancel) {
  // Build a one-relation database on disk, then sweep cancelling opendb.
  const std::string dir = ::testing::TempDir() + "cancel_sweep_db";
  {
    Semandaq sys;
    ASSERT_OK(sys.Connect(testing::PaperCustomerRelation()));
    ASSERT_TRUE(sys.SaveDatabase(dir).ok());
  }
  SweepCheckpoints("opendb", [&](CancelToken* token)
                                 -> common::Result<std::string> {
    Semandaq sys;
    auto opened = sys.OpenDatabase(dir, token);
    if (!opened.ok()) {
      // A cancelled open must not leave a half-replayed relation behind.
      EXPECT_EQ(sys.database().FindRelation("customer"), nullptr);
      return opened.status();
    }
    const Relation* rel = sys.database().FindRelation("customer");
    EXPECT_NE(rel, nullptr);
    return rel != nullptr ? Fingerprint(*rel) : std::string();
  });
  std::remove((dir + "/customer.sdq").c_str());
  std::remove((dir + "/customer.sdq.wal").c_str());
  std::remove((dir + "/catalog.sdqc").c_str());
}

TEST(CancelSweepTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  // Same checkpoints, different cause: a token whose deadline already
  // passed turns the first checkpoint into DeadlineExceeded, and the
  // detector reports that — not a generic Cancelled — to the caller.
  const Relation rel = testing::PaperCustomerRelation();
  CancelToken token;
  token.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  detect::DetectorOptions options;
  options.cancel = &token;
  detect::NativeDetector detector(&rel, Parse(testing::PaperCfdText()),
                                  options);
  auto table = detector.Detect();
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDeadlineExceeded);
  auto counts = detector.Count();
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace semandaq
