#include <gtest/gtest.h>

#include "core/constraint_engine.h"
#include "core/semandaq.h"
#include "test_util.h"
#include "workload/customer_gen.h"

namespace semandaq::core {
namespace {

using relational::Database;

class ConstraintEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.AddRelation(semandaq::testing::PaperCustomerRelation()));
  }

  Database db_;
};

TEST_F(ConstraintEngineTest, AddCfdsFromText) {
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText(semandaq::testing::PaperCfdText()));
  EXPECT_EQ(engine.size(), 2u);
  // They come back resolved.
  EXPECT_TRUE(engine.cfds()[0].resolved());
}

TEST_F(ConstraintEngineTest, RejectsCfdOverMissingRelation) {
  ConstraintEngine engine(&db_);
  EXPECT_FALSE(engine.AddCfdsFromText("nope: [A] -> [B]").ok());
  EXPECT_EQ(engine.size(), 0u);
}

TEST_F(ConstraintEngineTest, RejectsCfdWithUnknownAttribute) {
  ConstraintEngine engine(&db_);
  EXPECT_FALSE(engine.AddCfdsFromText("customer: [NOT_AN_ATTR] -> [CNT]").ok());
}

TEST_F(ConstraintEngineTest, ValidateSatisfiableSet) {
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto report, engine.Validate("customer"));
  EXPECT_TRUE(report.satisfiable);
}

TEST_F(ConstraintEngineTest, ValidateFlagsNonsenseSet) {
  // "Does not make sense" (paper §2): conflicting constants on CNT.
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText("customer: [CC=_] -> [CNT=UK]\n"
                                   "customer: [CC=_] -> [CNT=US]\n"));
  ASSERT_OK_AND_ASSIGN(auto report, engine.Validate("customer"));
  EXPECT_FALSE(report.satisfiable);
  EXPECT_FALSE(report.conflicting_pairs.empty());
}

TEST_F(ConstraintEngineTest, CfdsForFiltersByRelation) {
  ASSERT_OK(db_.AddRelation(
      semandaq::testing::MakeStringRelation("other", {"A", "B"}, {})));
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK(engine.AddCfdsFromText("other: [A] -> [B]"));
  EXPECT_EQ(engine.CfdsFor("customer").size(), 2u);
  EXPECT_EQ(engine.CfdsFor("OTHER").size(), 1u);
  EXPECT_EQ(engine.CfdsFor("missing").size(), 0u);
}

TEST_F(ConstraintEngineTest, PersistAndLoadRoundTrip) {
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK(engine.Persist());

  ConstraintEngine fresh(&db_);
  ASSERT_OK(fresh.LoadPersisted());
  // phi2 and phi4 live in different embedded-FD groups, so two CFDs return.
  EXPECT_EQ(fresh.size(), 2u);
  size_t rows = 0;
  for (const auto& c : fresh.cfds()) rows += c.tableau().size();
  EXPECT_EQ(rows, 2u);
}

TEST_F(ConstraintEngineTest, MineFromReferenceData) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 200;
  opts.noise_rate = 0.0;
  opts.seed = 31;
  auto wl = workload::CustomerGenerator::Generate(opts);
  // Discovery runs on the facade's epoch and lands in its constraint engine.
  Semandaq sys;
  ASSERT_OK(sys.Connect(std::move(wl.clean)));

  discovery::CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  ASSERT_OK_AND_ASSIGN(size_t added, sys.Mine("customer_gold", mopts));
  EXPECT_GT(added, 0u);
  EXPECT_EQ(sys.constraints().size(), added);
  // Discovered constraints over clean data are consistent with each other.
  ASSERT_OK_AND_ASSIGN(auto report,
                       sys.constraints().Validate("customer_gold"));
  EXPECT_TRUE(report.satisfiable);
}

TEST_F(ConstraintEngineTest, ClearEmptiesTheSet) {
  ConstraintEngine engine(&db_);
  ASSERT_OK(engine.AddCfdsFromText(semandaq::testing::PaperCfdText()));
  engine.Clear();
  EXPECT_EQ(engine.size(), 0u);
}

}  // namespace
}  // namespace semandaq::core
