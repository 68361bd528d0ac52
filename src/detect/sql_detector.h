#ifndef SEMANDAQ_DETECT_SQL_DETECTOR_H_
#define SEMANDAQ_DETECT_SQL_DETECTOR_H_

#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "common/cancel.h"
#include "common/status.h"
#include "detect/sql_generator.h"
#include "detect/violation.h"
#include "relational/database.h"

namespace semandaq::detect {

/// SQL-based CFD violation detection, the technique the paper demonstrates
/// (§2, Error Detector: "efficient SQL-based detection techniques developed
/// in [3]").
///
/// Pipeline per embedded-FD group: encode the pattern tableau as a relation
/// (wildcard = NULL), run the generated Q_C for single-tuple violations, run
/// Q_V (GROUP BY / HAVING COUNT(DISTINCT) > 1) for the violating keys,
/// materialize them, and join back for the member tuples. All SQL runs
/// through sql::Engine — the code path a DBMS would execute.
class SqlDetector {
 public:
  /// `db` must contain `relation`; tableau and key relations are
  /// materialized into it during Detect and removed on every exit, replacing
  /// and dropping any tableaux `db` already held (e.g. a persisted Σ).
  SqlDetector(relational::Database* db, std::string relation,
              std::vector<cfd::Cfd> cfds)
      : db_(db), relation_(std::move(relation)), cfds_(std::move(cfds)) {}

  /// Cancel token for every generated query's engine; nullptr = none.
  void set_cancel(common::CancelToken* cancel) { cancel_ = cancel; }

  common::Result<ViolationTable> Detect();

  /// The generated SQL of the last Detect() call, for inspection and tests.
  const std::vector<DetectionQueries>& queries() const { return queries_; }

  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

 private:
  relational::Database* db_;
  std::string relation_;
  std::vector<cfd::Cfd> cfds_;
  std::vector<DetectionQueries> queries_;
  common::CancelToken* cancel_ = nullptr;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_SQL_DETECTOR_H_
