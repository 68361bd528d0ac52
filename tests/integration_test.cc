// End-to-end tests driving the Semandaq facade through the full
// demonstration flow of the paper's Section 3: connect -> specify CFDs ->
// validate -> detect -> audit -> explore -> clean -> review -> monitor.

#include <gtest/gtest.h>

#include "core/semandaq.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::core {
namespace {

using relational::Row;
using relational::Update;
using relational::Value;

TEST(IntegrationTest, PaperWalkthrough) {
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));

  // Specify constraints; the engine validates they "make sense".
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto sat, sys.constraints().Validate("customer"));
  EXPECT_TRUE(sat.satisfiable);

  // Detect (both code paths agree).
  ASSERT_OK_AND_ASSIGN(auto native, sys.DetectErrors("customer"));
  ASSERT_OK_AND_ASSIGN(auto sql, sys.DetectErrors("customer",
                                                  Semandaq::DetectorKind::kSql));
  EXPECT_EQ(native.TotalVio(), sql.TotalVio());
  EXPECT_EQ(native.TotalVio(), 5);

  // Audit and report (Fig. 4).
  ASSERT_OK_AND_ASSIGN(auto report, sys.Report("customer"));
  EXPECT_EQ(report.num_tuples, 7u);
  EXPECT_EQ(report.total_vio, 5);

  // Quality map (Fig. 3).
  ASSERT_OK_AND_ASSIGN(auto map, sys.QualityMap("customer"));
  EXPECT_NE(map.find("vio="), std::string::npos);

  // Explore (Fig. 2).
  ASSERT_OK_AND_ASSIGN(auto explorer, sys.Explore("customer"));
  ASSERT_OK_AND_ASSIGN(auto entries, explorer.ListCfds());
  EXPECT_EQ(entries.size(), 2u);

  // Clean (Fig. 5), review, apply.
  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  EXPECT_EQ(repair.remaining_violations, 0u);
  ASSERT_OK_AND_ASSIGN(auto review, sys.Review("customer", repair));
  EXPECT_NE(review->RenderDiff().find("->"), std::string::npos);
  ASSERT_OK(sys.ApplyRepair("customer", repair));

  // After applying, the database is consistent.
  ASSERT_OK_AND_ASSIGN(auto after, sys.DetectErrors("customer"));
  EXPECT_EQ(after.TotalVio(), 0);

  // Monitor in incremental-repair mode keeps it that way.
  ASSERT_OK_AND_ASSIGN(auto monitor, sys.StartMonitor("customer",
                                                      /*cleansed=*/true));
  Row bad = {Value::String("Zed"), Value::String("US"), Value::String("NY"),
             Value::String("10011"), Value::String("Broadway"),
             Value::String("44"), Value::String("212")};
  ASSERT_OK_AND_ASSIGN(auto mreport, monitor->OnUpdate({Update::Insert(bad)}));
  EXPECT_EQ(mreport.total_vio, 0);
  EXPECT_FALSE(mreport.repairs_applied.empty());
}

TEST(IntegrationTest, GeneratedCustomerPipeline) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 800;
  opts.noise_rate = 0.05;
  opts.seed = 101;
  auto wl = workload::CustomerGenerator::Generate(opts);

  Semandaq sys;
  ASSERT_OK(sys.Connect(std::move(wl.dirty)));
  ASSERT_OK(sys.constraints().AddCfdsFromText(
      workload::CustomerGenerator::PaperCfds()));

  ASSERT_OK_AND_ASSIGN(auto before, sys.DetectErrors("customer"));
  EXPECT_GT(before.TotalVio(), 0);

  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  ASSERT_OK(sys.ApplyRepair("customer", repair));

  ASSERT_OK_AND_ASSIGN(auto after, sys.DetectErrors("customer"));
  EXPECT_EQ(after.TotalVio(), 0);
}

TEST(IntegrationTest, HospitalPipelineWithSqlDetector) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 400;
  opts.noise_rate = 0.05;
  opts.seed = 102;
  auto wl = workload::HospitalGenerator::Generate(opts);

  Semandaq sys;
  ASSERT_OK(sys.Connect(std::move(wl.dirty)));
  ASSERT_OK(sys.constraints().AddCfdsFromText(
      workload::HospitalGenerator::HospitalCfds()));

  ASSERT_OK_AND_ASSIGN(auto native, sys.DetectErrors("hospital"));
  ASSERT_OK_AND_ASSIGN(auto sql, sys.DetectErrors("hospital",
                                                  Semandaq::DetectorKind::kSql));
  EXPECT_EQ(native.TotalVio(), sql.TotalVio());

  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("hospital"));
  EXPECT_EQ(repair.remaining_violations, 0u);
}

TEST(IntegrationTest, DiscoveryToDetectionPipeline) {
  // Mine CFDs from clean reference data, then use them to find errors in a
  // dirty copy of the same domain.
  workload::CustomerWorkloadOptions clean_opts;
  clean_opts.num_tuples = 300;
  clean_opts.noise_rate = 0.0;
  clean_opts.seed = 103;
  auto reference = workload::CustomerGenerator::Generate(clean_opts);

  workload::CustomerWorkloadOptions dirty_opts;
  dirty_opts.num_tuples = 300;
  dirty_opts.noise_rate = 0.08;
  dirty_opts.seed = 104;
  auto target = workload::CustomerGenerator::Generate(dirty_opts);

  Semandaq sys;
  reference.clean.set_name("customer");  // mine under the target's name
  ASSERT_OK(sys.Connect(std::move(reference.clean)));
  discovery::CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 4;
  ASSERT_OK_AND_ASSIGN(size_t added, sys.constraints().DiscoverFrom("customer", mopts));
  EXPECT_GT(added, 0u);

  // Swap in the dirty data and detect with the mined constraints.
  sys.database().PutRelation(std::move(target.dirty));
  ASSERT_OK_AND_ASSIGN(auto table, sys.DetectErrors("customer"));
  EXPECT_GT(table.TotalVio(), 0) << "mined CFDs should catch injected noise";
}

TEST(IntegrationTest, PersistedCfdsSurviveReload) {
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK(sys.constraints().Persist());
  sys.constraints().Clear();
  ASSERT_OK(sys.constraints().LoadPersisted());
  ASSERT_OK_AND_ASSIGN(auto table, sys.DetectErrors("customer"));
  EXPECT_EQ(table.TotalVio(), 5);
}

// The explorer keeps the epoch it explores alive: an insert, a repair and
// finally dropping the relation from the master leave its drill-down
// byte-identical.
TEST(IntegrationTest, ExplorerOwnsItsEpoch) {
  Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(DataExplorer explorer, sys.Explore("customer"));
  ASSERT_OK_AND_ASSIGN(auto matches, explorer.LhsMatches(0, 0));
  ASSERT_FALSE(matches.empty());
  const Row lhs = matches.front().lhs;
  const std::string before = explorer.RenderDrilldown(0, 0, lhs);

  Row more = {Value::String("Liz"), Value::String("UK"),
              Value::String("Edinburgh"), Value::String("EH2 4SD"),
              Value::String("Lothian Rd"), Value::String("44"),
              Value::String("131")};
  relational::Relation* master = sys.database().FindMutableRelation("customer");
  ASSERT_OK(master->Insert(more).status());
  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  ASSERT_OK(sys.ApplyRepair("customer", repair));
  ASSERT_OK(sys.database().DropRelation("customer"));

  EXPECT_EQ(explorer.RenderDrilldown(0, 0, lhs), before);
}

TEST(IntegrationTest, ErrorsSurfaceCleanly) {
  Semandaq sys;
  EXPECT_FALSE(sys.DetectErrors("missing").ok());
  EXPECT_FALSE(sys.Report("missing").ok());
  EXPECT_FALSE(sys.Clean("missing").ok());
  EXPECT_FALSE(sys.StartMonitor("missing").ok());
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  EXPECT_FALSE(sys.Connect(semandaq::testing::PaperCustomerRelation()).ok());
}

}  // namespace
}  // namespace semandaq::core
