#include "core/epoch.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/metrics.h"
#include "audit/render.h"
#include "detect/sql_detector.h"

namespace semandaq::core {

common::Result<PinnedCatalog> PinCatalog(const std::vector<SnapshotPtr>& pins) {
  PinnedCatalog catalog;
  // Keyed by the clones, which the catalog owns at stable addresses.
  auto encoded_of = std::make_shared<std::unordered_map<
      const relational::Relation*, relational::EncodedRelation>>();
  for (const SnapshotPtr& snap : pins) {
    SEMANDAQ_RETURN_IF_ERROR(catalog.db.AddRelation(snap->relation.Clone()));
    const relational::Relation* rel =
        catalog.db.FindRelation(snap->relation.name());
    encoded_of->emplace(rel, snap->encoded->Freeze(rel));
  }
  catalog.encoded = [encoded_of](const relational::Relation* rel)
      -> const relational::EncodedRelation* {
    auto it = encoded_of->find(rel);
    return it == encoded_of->end() ? nullptr : &it->second;
  };
  return catalog;
}

detect::NativeDetector EpochRead::Detector() const {
  detect::NativeDetector detector(&snap->relation, cfds, options);
  detector.set_thread_pool(pool);
  detector.set_encoded(&*snap->encoded);
  return detector;
}

common::Result<detect::ViolationTable> EpochRead::DetectSql() const {
  SEMANDAQ_ASSIGN_OR_RETURN(PinnedCatalog catalog, PinCatalog({snap}));
  detect::SqlDetector detector(&catalog.db, snap->relation.name(), cfds);
  detector.set_cancel(options.cancel);
  return detector.Detect();
}

common::Result<audit::QualityReport> EpochRead::Report() const {
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, Detector().Detect());
  audit::DataAuditor auditor(&snap->relation, cfds);
  SEMANDAQ_ASSIGN_OR_RETURN(audit::AuditOutcome outcome, auditor.Audit(table));
  return audit::BuildQualityReport(outcome, snap->relation.schema());
}

common::Result<std::string> EpochRead::QualityMap(size_t max_rows) const {
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, Detector().Detect());
  return audit::AsciiRender::QualityMap(snap->relation, table, max_rows);
}

common::Result<DataExplorer> EpochRead::Explore() const {
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, Detector().Detect());
  // Aliasing constructor: the explorer's relation pointer shares ownership
  // of the whole epoch, so later writes or a drop of the master never
  // reach it.
  return DataExplorer(
      std::shared_ptr<const relational::Relation>(snap, &snap->relation), cfds,
      std::move(table));
}

common::Result<repair::RepairResult> EpochRead::Clean(
    repair::RepairOptions options, repair::CostModelOptions cost) const {
  repair::CostModel model(snap->relation.schema(), std::move(cost));
  repair::BatchRepair cleaner(&snap->relation, cfds, std::move(model),
                              std::move(options));
  return cleaner.Run();
}

common::Result<std::vector<cfd::Cfd>> EpochRead::Mine(
    discovery::CfdMinerOptions miner) const {
  miner.num_threads = options.num_threads;
  miner.pool = pool;
  miner.simd_level = options.simd_level;
  miner.cancel = options.cancel;
  return discovery::CfdMiner(&snap->relation, std::move(miner)).Mine();
}

}  // namespace semandaq::core
