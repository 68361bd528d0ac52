// The concurrent service (src/server/service): the one command grammar,
// whose pinned-epoch reads match the same computation on the master
// byte for byte; it publishes a new epoch per write, serves reads from
// pinned immutable snapshots, and round-trips a whole database through the
// catalog manifest — including snapshot compaction and crash recovery
// across a compaction boundary.

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/render.h"
#include "common/csv.h"
#include "relational/value.h"
#include "server/service.h"
#include "sql/engine.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using relational::Row;
using relational::Value;

std::string Exec(SemandaqService* svc, SemandaqService::SessionState* session,
                 const std::string& cmd) {
  auto r = svc->Execute(session, cmd);
  EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  return r.ok() ? *r : std::string();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A row for the generated customer schema (7 string attributes).
Row CustomerRow(const std::string& tag) {
  Row row;
  for (int c = 0; c < 7; ++c) {
    row.push_back(Value::String(tag + "_" + std::to_string(c)));
  }
  return row;
}

// ------------------------------------------------------------ grammar parity

/// `clean`'s response for a candidate repair, spelled out independently.
std::string RenderCandidate(const repair::RepairResult& r) {
  std::ostringstream out;
  out << "candidate repair: " << r.changes.size() << " cell(s), cost "
      << r.total_cost << ", " << r.iterations << " round(s), "
      << r.null_escapes << " NULL escape(s), remaining "
      << r.remaining_violations
      << "\nuse 'diff' to review, 'apply' to commit\n";
  return out.str();
}

template <typename T>
T ValueOrEmpty(common::Result<T> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : T();
}

// The load-bearing contract: every read verb computes on a pinned epoch,
// and its bytes must equal the same computation run directly on the
// master (through the facade) right after it. Equality proves snapshot
// fidelity: the pinned epoch is the master.
TEST(ServerServiceTest, GrammarParityWithCoreSession) {
  SemandaqService service;
  SemandaqService::SessionState state;
  core::Semandaq& sys = service.system_unsynchronized();
  using Kind = core::Semandaq::DetectorKind;
  auto summary = [&](Kind kind) {
    auto table = sys.DetectErrors("customer", kind);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return table.ok() ? table->Summary() + "\n" : std::string();
  };
  auto report = [&] {
    auto r = sys.Report("customer");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::string();
    return audit::AsciiRender::BarChart(*r) + "\n" +
           audit::AsciiRender::PieChart(*r) + "\n" +
           audit::AsciiRender::Statistics(*r);
  };
  auto show = [&](size_t n) {
    return sys.database().FindRelation("customer")->ToAsciiTable(n);
  };
  const std::string query =
      "SELECT CNT, COUNT(*) AS n FROM customer GROUP BY CNT ORDER BY CNT";
  auto sql = [&] {
    sql::Engine engine(&sys.database());
    return ValueOrEmpty(engine.Query(query)).ToAsciiTable(50);
  };

  struct Step {
    std::string cmd;
    std::function<std::string()> master;  // empty: no read to compare
  };
  const std::vector<Step> script = {
      {"gen customer 150 8", {}},
      {"ls", {}},
      {"show customer 5", [&] { return show(5); }},
      {"cfd customer: [CNT=UK, ZIP=_] -> [STR=_]", {}},
      {"cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }", {}},
      {"cfds", {}},
      {"validate customer", {}},
      {"detect customer", [&] { return summary(Kind::kNative); }},
      {"detect customer sql", [&] { return summary(Kind::kSql); }},
      {"detect customer threads=3", [&] { return summary(Kind::kNative); }},
      {"map customer 5",
       [&] { return ValueOrEmpty(sys.QualityMap("customer", 5)); }},
      {"report customer", report},
      {"explore customer 0 0", {}},
      {"mine customer", {}},
      {"clean customer",
       [&] { return RenderCandidate(ValueOrEmpty(sys.Clean("customer"))); }},
      {"diff", {}},
      {"apply", {}},
      {"detect customer", [&] { return summary(Kind::kNative); }},
      {"show customer 5", [&] { return show(5); }},
      {"sql " + query, sql},
  };
  for (const Step& step : script) {
    const std::string got = Exec(&service, &state, step.cmd);
    if (step.master) {
      EXPECT_EQ(got, step.master()) << "command: " << step.cmd;
    }
  }
}

// Failure statuses are part of the grammar: pinned as literals so that
// changing any of them is a deliberate edit here.
TEST(ServerServiceTest, ErrorParityWithCoreSession) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"frobnicate",
       "InvalidArgument: unknown command 'frobnicate' (try: help)"},
      {"show nosuch", "NotFound: no relation named nosuch"},
      {"detect nosuch", "NotFound: no relation named nosuch"},
      {"clean nosuch", "NotFound: no relation named nosuch"},
      {"diff",
       "FailedPrecondition: no pending repair (run 'clean REL' first)"},
      {"apply",
       "FailedPrecondition: no pending repair (run 'clean REL' first)"},
      {"gen widgets 10 5", "InvalidArgument: unknown workload: widgets"},
      {"detect customer threads=zero", "InvalidArgument: not a count: zero"},
  };
  SemandaqService service;
  SemandaqService::SessionState state;
  for (const auto& [cmd, expected] : bad) {
    auto actual = service.Execute(&state, cmd);
    ASSERT_FALSE(actual.ok()) << cmd;
    EXPECT_EQ(actual.status().ToString(), expected) << "command: " << cmd;
  }
}

TEST(ServerServiceTest, HelpMentionsEpoch) {
  EXPECT_NE(SemandaqService::Help().find("epoch REL"), std::string::npos);
}

// ------------------------------------------------------------------- epochs

TEST(ServerServiceTest, EpochAdvancesPerWriteBatch) {
  SemandaqService service;
  SemandaqService::SessionState state;
  EXPECT_FALSE(service.Execute(&state, "epoch customer").ok());

  Exec(&service, &state, "gen customer 40 10");
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 1\n");

  ASSERT_OK_AND_ASSIGN(size_t appended,
                       service.AppendBatch("customer", {CustomerRow("a"),
                                                        CustomerRow("b")}));
  EXPECT_EQ(appended, 2u);
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 2\n");

  // A batch is one epoch regardless of row count; an independent relation
  // keeps its own counter.
  ASSERT_OK_AND_ASSIGN(appended,
                       service.AppendBatch("customer", {CustomerRow("c")}));
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 3\n");
  EXPECT_EQ(Exec(&service, &state, "epoch customer_gold"), "epoch 1\n");
}

TEST(ServerServiceTest, PinnedSnapshotIsImmutableAcrossWrites) {
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 30 10");

  SnapshotPtr pinned = service.Pin("customer");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  const size_t pinned_size = pinned->relation.size();

  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("x")}).status());

  // The pin still sees the old world; a fresh pin sees the new one.
  EXPECT_EQ(pinned->relation.size(), pinned_size);
  SnapshotPtr fresh = service.Pin("customer");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->epoch, 2u);
  EXPECT_EQ(fresh->relation.size(), pinned_size + 1);
  EXPECT_EQ(service.Pin("nosuch"), nullptr);
}

TEST(ServerServiceTest, CleanPinsItsEpochAcrossConcurrentWrites) {
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 80 10");
  Exec(&service, &state, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL) }");
  const std::string plan = Exec(&service, &state, "clean customer");
  EXPECT_NE(plan.find("candidate repair"), std::string::npos);

  // A write between clean and diff/apply must not corrupt the pending
  // plan: diff renders against the pinned world, apply still lands on the
  // master (append-only writes keep the repaired tuple ids valid).
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("w")}).status());
  EXPECT_NE(Exec(&service, &state, "diff").find("pending repair"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &state, "apply").find("applied"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &state, "detect customer").find("total vio 0"),
            std::string::npos);
}

// -------------------------------------------------------- whole-DB catalog

TEST(ServerServiceTest, SaveDbOpenDbRoundTrip) {
  const std::string dir = TempPath("svc_dbdir");
  SemandaqService source;
  SemandaqService::SessionState state;
  Exec(&source, &state, "gen customer 60 10");
  Exec(&source, &state, "gen hospital 50 5");
  const std::string saved = Exec(&source, &state, "savedb " + dir);
  EXPECT_NE(saved.find("saved 4 relation(s)"), std::string::npos);

  SemandaqService target;
  SemandaqService::SessionState tstate;
  const std::string opened = Exec(&target, &tstate, "opendb " + dir);
  EXPECT_NE(opened.find("opened 4 relation(s)"), std::string::npos);
  EXPECT_EQ(Exec(&target, &tstate, "ls"), Exec(&source, &state, "ls"));
  EXPECT_EQ(Exec(&target, &tstate, "show customer 10"),
            Exec(&source, &state, "show customer 10"));
  EXPECT_EQ(Exec(&target, &tstate, "sql SELECT COUNT(*) FROM hospital"),
            Exec(&source, &state, "sql SELECT COUNT(*) FROM hospital"));

  // Opening into a database that already has one of the names must fail
  // without clobbering existing state.
  SemandaqService occupied;
  SemandaqService::SessionState ostate;
  Exec(&occupied, &ostate, "gen customer 10 5");
  EXPECT_FALSE(occupied.Execute(&ostate, "opendb " + dir).ok());
  EXPECT_EQ(Exec(&occupied, &ostate, "epoch customer"), "epoch 1\n");

  // A directory with no manifest is NotFound, not corruption.
  auto missing = target.Execute(&tstate, "opendb " + TempPath("no_such_db"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
}

// ------------------------------------------------- compaction + crash tail

TEST(ServerServiceTest, CompactionRewritesSnapshotAndSurvivesTornTail) {
  const std::string path = TempPath("svc_compact.sdq");
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 25 10");

  // Arm compaction at 2 WAL records.
  const std::string saved =
      Exec(&service, &state, "save customer " + path + " compact=2");
  EXPECT_NE(saved.find("compaction armed at 2 WAL record(s)"),
            std::string::npos);

  // One mutation: below the threshold, so the WAL carries it.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal1")}).status());
  // Second mutation crosses the threshold: the snapshot is rewritten with
  // all 27 rows and the sidecar resets to empty.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal2")}).status());

  {
    ASSERT_OK_AND_ASSIGN(storage::LoadedSnapshot compacted,
                         storage::SnapshotReader::Read(path));
    EXPECT_EQ(compacted.relation.size(), 27u);  // WAL rows folded in
  }

  // Third mutation lands in the fresh (post-compaction) WAL; then tear the
  // tail the way a crash mid-append would.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal3")}).status());
  const std::string wal_path = storage::WalPathFor(path);
  ASSERT_OK_AND_ASSIGN(std::string wal_bytes,
                       common::ReadFileToString(wal_path));
  ASSERT_OK(common::WriteStringToFile(wal_path, wal_bytes + "\x07\x01"));

  // Recovery across the compaction boundary: the compacted snapshot plus
  // the surviving WAL record, torn tail dropped silently.
  SemandaqService recovered;
  SemandaqService::SessionState rstate;
  const std::string opened =
      Exec(&recovered, &rstate, "open customer " + path);
  EXPECT_NE(opened.find("+1 wal record(s)"), std::string::npos);
  SnapshotPtr snap = recovered.Pin("customer");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->relation.size(), 28u);
  EXPECT_EQ(Exec(&recovered, &rstate, "show customer 100"),
            Exec(&service, &state, "show customer 100"));
}

}  // namespace
}  // namespace semandaq::server
