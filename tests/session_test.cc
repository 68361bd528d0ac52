#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/session.h"
#include "test_util.h"

namespace semandaq::core {
namespace {

std::string Exec(Session* s, const std::string& cmd) {
  auto r = s->Execute(cmd);
  EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  return r.ok() ? *r : std::string();
}

TEST(SessionTest, HelpAndEmptyAndComments) {
  Session s;
  EXPECT_NE(Exec(&s, "help").find("commands:"), std::string::npos);
  EXPECT_EQ(Exec(&s, ""), "");
  EXPECT_EQ(Exec(&s, "   "), "");
  EXPECT_EQ(Exec(&s, "# a comment"), "");
}

TEST(SessionTest, UnknownCommandFails) {
  Session s;
  EXPECT_FALSE(s.Execute("frobnicate").ok());
}

TEST(SessionTest, GenLsShow) {
  Session s;
  EXPECT_NE(Exec(&s, "gen customer 50 10").find("generated customer"),
            std::string::npos);
  const std::string ls = Exec(&s, "ls");
  EXPECT_NE(ls.find("customer"), std::string::npos);
  EXPECT_NE(ls.find("customer_gold"), std::string::npos);
  EXPECT_NE(Exec(&s, "show customer 3").find("NAME"), std::string::npos);
  EXPECT_FALSE(s.Execute("show missing").ok());
}

TEST(SessionTest, FullPipeline) {
  Session s;
  Exec(&s, "gen customer 150 8");
  Exec(&s, "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]");
  Exec(&s, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  EXPECT_NE(Exec(&s, "cfds").find("[CC] -> [CNT]"), std::string::npos);
  EXPECT_NE(Exec(&s, "validate customer").find("SATISFIABLE"), std::string::npos);

  const std::string native = Exec(&s, "detect customer");
  const std::string sql = Exec(&s, "detect customer sql");
  EXPECT_EQ(native, sql);  // the two code paths agree verbatim

  EXPECT_NE(Exec(&s, "map customer 5").find("shade:"), std::string::npos);
  EXPECT_NE(Exec(&s, "report customer").find("Violation composition"),
            std::string::npos);
  EXPECT_NE(Exec(&s, "explore customer 0 0").find("-- CFDs --"), std::string::npos);

  // Clean is pending until applied.
  EXPECT_NE(Exec(&s, "clean customer").find("candidate repair"), std::string::npos);
  EXPECT_NE(Exec(&s, "diff").find("pending repair"), std::string::npos);
  EXPECT_NE(Exec(&s, "apply").find("applied"), std::string::npos);
  EXPECT_NE(Exec(&s, "detect customer").find("total vio 0"), std::string::npos);
}

TEST(SessionTest, DetectCountsMatchTheFullTableWithDeletedRows) {
  // `detect REL` prints counts from the count-only pass; they must equal
  // the full table's summary, serial and sharded, after deletions.
  Session s;
  Exec(&s, "gen customer 3000 10");
  Exec(&s, "cfd customer: [CNT, ZIP] -> [CITY]");
  Exec(&s, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  Exec(&s, "detect customer");  // warms the encoded snapshot
  relational::Relation* rel =
      s.system().database().FindMutableRelation("customer");
  ASSERT_NE(rel, nullptr);
  for (relational::TupleId tid = 0; tid < rel->IdBound(); tid += 3) {
    ASSERT_OK(rel->Delete(tid));
  }
  auto table = s.system().DetectErrors("customer");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::string expected = table->Summary() + "\n";
  EXPECT_EQ(Exec(&s, "detect customer"), expected);
  EXPECT_EQ(Exec(&s, "detect customer threads=4"), expected);
}

TEST(SessionTest, DiffApplyRequirePendingRepair) {
  Session s;
  EXPECT_FALSE(s.Execute("diff").ok());
  EXPECT_FALSE(s.Execute("apply").ok());
}

TEST(SessionTest, SqlCommand) {
  Session s;
  Exec(&s, "gen hospital 80 5");
  const std::string out =
      Exec(&s, "sql SELECT STATE, COUNT(*) AS n FROM hospital GROUP BY STATE "
              "ORDER BY STATE");
  EXPECT_NE(out.find("STATE"), std::string::npos);
  EXPECT_NE(out.find("AL"), std::string::npos);
  EXPECT_FALSE(s.Execute("sql SELECT broken FROM nowhere").ok());
}

TEST(SessionTest, LoadCsvRoundTrip) {
  Session s;
  const std::string path = ::testing::TempDir() + "/session_load.csv";
  ASSERT_OK(common::WriteStringToFile(path, "A,B\nx,1\ny,2\n"));
  EXPECT_NE(Exec(&s, "load t " + path).find("loaded t"), std::string::npos);
  EXPECT_NE(Exec(&s, "show t").find("x"), std::string::npos);
  EXPECT_FALSE(s.Execute("load u /does/not/exist.csv").ok());
}

TEST(SessionTest, SaveOpenRoundTrip) {
  Session s;
  const std::string path = ::testing::TempDir() + "/session_snapshot.sdq";
  Exec(&s, "gen customer 200 8");
  Exec(&s, "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]");
  Exec(&s, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  const std::string before = Exec(&s, "detect customer");

  EXPECT_NE(Exec(&s, "save customer " + path).find("saved customer"),
            std::string::npos);
  EXPECT_NE(Exec(&s, "open customer2 " + path).find("opened customer2"),
            std::string::npos);
  Exec(&s, "cfd customer2: [CNT=UK, ZIP=_] -> [STR=_]");
  Exec(&s, "cfd customer2: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  // Detection over the reloaded snapshot renders identically.
  EXPECT_EQ(Exec(&s, "detect customer2"), before);

  EXPECT_FALSE(s.Execute("save customer").ok());
  EXPECT_FALSE(s.Execute("save missing " + path).ok());
  EXPECT_FALSE(s.Execute("open customer " + path).ok());  // name taken
  EXPECT_FALSE(s.Execute("open x /does/not/exist.sdq").ok());
}

TEST(SessionTest, BadArgumentsAreRejected) {
  Session s;
  EXPECT_FALSE(s.Execute("gen customer abc 5").ok());
  EXPECT_FALSE(s.Execute("gen martian 10 5").ok());
  EXPECT_FALSE(s.Execute("load onlyname").ok());
  EXPECT_FALSE(s.Execute("validate").ok());
  EXPECT_FALSE(s.Execute("cfd not a cfd").ok());
}

}  // namespace
}  // namespace semandaq::core
