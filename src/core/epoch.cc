#include "core/epoch.h"

#include <utility>
#include <vector>

#include "audit/metrics.h"
#include "audit/render.h"

namespace semandaq::core {

detect::NativeDetector EpochRead::Detector() const {
  detect::NativeDetector detector(&snap->relation, cfds, options);
  detector.set_thread_pool(pool);
  detector.set_encoded(&*snap->encoded);
  return detector;
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

}  // namespace semandaq::core
