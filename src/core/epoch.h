#ifndef SEMANDAQ_CORE_EPOCH_H_
#define SEMANDAQ_CORE_EPOCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/report.h"
#include "cfd/cfd.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "sql/executor.h"

namespace semandaq::core {

/// One published epoch of a relation: an immutable replica that computations
/// pin and read without ever blocking the writer — the one form a relation
/// is held in ready to compute (Semandaq::Publish makes it; every read
/// workload runs on it through EpochRead). Nothing in it is a second copy
/// of the data: `relation` hydrates its rows on first access (thread-safe)
/// from the same refcounted chunks and dictionaries the encoded form scans
/// (relational::RelationOverColumns), and `encoded` is an
/// EncodedRelation::Freeze view sharing the master's chunks. The master's
/// later appends land past it and its overwrites detach copy-on-write, so
/// the bytes never change; holders (a computation, a DataExplorer) keep an
/// epoch alive by refcount.
struct RelationSnapshot {
  uint64_t epoch = 0;
  relational::Relation relation;
  std::optional<relational::EncodedRelation> encoded;
};

using SnapshotPtr = std::shared_ptr<const RelationSnapshot>;

/// A scratch catalog of pinned epochs: a clone of each relation, plus its
/// frozen encoding. SQL runs on it without the master catalog or the
/// writer lock, and what a query materializes there (the SQL detector's
/// tableaux) dies with it.
struct PinnedCatalog {
  relational::Database db;
  sql::EncodedProvider encoded;  ///< the executor's code fast paths
};

/// Builds the scratch catalog of `pins` (one epoch per relation name).
common::Result<PinnedCatalog> PinCatalog(const std::vector<SnapshotPtr>& pins);

/// One computation on a pinned epoch: the snapshot, Σ for its relation, and
/// the lanes and cancel token detection runs with. The single body of every
/// read workload: the facade's by-name reads and the service's read verbs
/// (on leased lanes, with the request's cancel token) both run it.
struct EpochRead {
  SnapshotPtr snap;
  std::vector<cfd::Cfd> cfds;
  /// Native-detector knobs (threads, SIMD tier, cancel token).
  detect::DetectorOptions options;
  /// Lanes for the sharded scan; nullptr = serial.
  common::ThreadPool* pool = nullptr;

  /// A native detector over the epoch's frozen encoding.
  detect::NativeDetector Detector() const;
  /// The paper's generated-SQL detector (Q_C / Q_V) on a PinnedCatalog of
  /// the epoch, with its frozen encoding as the executor's code provider,
  /// under `options.cancel`: the native kernels' oracle.
  common::Result<detect::ViolationTable> DetectSql() const;
  /// Error detector + data auditor: the data quality report (Fig. 4).
  common::Result<audit::QualityReport> Report() const;
  /// The tuple-level data quality map (Fig. 3 content).
  common::Result<std::string> QualityMap(size_t max_rows) const;
  /// Drill-down explorer over a fresh detection; it keeps the epoch alive.
  common::Result<DataExplorer> Explore() const;
  /// The data cleanser. Repair runs with its own `options` (lanes and
  /// cancel token included), not with the detector knobs above.
  common::Result<repair::RepairResult> Clean(
      repair::RepairOptions options, repair::CostModelOptions cost = {}) const;
  /// CFD discovery with `miner`'s search knobs; lanes, SIMD tier and cancel
  /// token are this read's (its `miner` copies are ignored), as Detector().
  common::Result<std::vector<cfd::Cfd>> Mine(
      discovery::CfdMinerOptions miner = {}) const;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_EPOCH_H_
