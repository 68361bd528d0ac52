#ifndef SEMANDAQ_CORE_SEMANDAQ_H_
#define SEMANDAQ_CORE_SEMANDAQ_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/report.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/constraint_engine.h"
#include "core/epoch.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "detect/violation.h"
#include "discovery/cfd_miner.h"
#include "monitor/data_monitor.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "repair/repair_review.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace semandaq::core {

/// The system facade, wiring the six components of the paper's architecture
/// (Fig. 1): constraint engine, error detector, data auditor, data cleanser,
/// data monitor, and the (programmatic) data explorer, over the relational
/// substrate standing in for the database servers. The data flow between
/// the components is diagrammed in docs/architecture.md; the text-command
/// grammar over this facade is server::SemandaqService (server/service.h),
/// which the CLI and the TCP server both run.
///
/// State model: a relation is held ready to compute only as published
/// epochs (core/epoch.h). The by-name reads below republish only when the
/// master moved since the last capture, then run the same EpochRead
/// functions the server's read verbs run on their pinned epochs.
///
/// Typical session, mirroring the demonstration flow of §3:
///
/// \code
///   Semandaq sys;
///   sys.Connect(std::move(customer_relation));
///   sys.constraints().AddCfdsFromText("customer: [CC=44] -> [CNT=UK]");
///   auto sat = sys.constraints().Validate("customer");     // "makes sense"?
///   auto vio = sys.DetectErrors("customer");               // error detector
///   auto report = sys.Report("customer");                  // data auditor
///   auto repair = sys.Clean("customer");                   // data cleanser
///   sys.ApplyRepair("customer", repair.value());
///   auto monitor = sys.StartMonitor("customer");           // data monitor
/// \endcode
class Semandaq {
 public:
  Semandaq() : engine_(&db_) {}

  // Not copyable/movable: components hold pointers into db_.
  Semandaq(const Semandaq&) = delete;
  Semandaq& operator=(const Semandaq&) = delete;

  /// Which detection code path to use.
  enum class DetectorKind {
    kNative,  ///< in-process hash detection
    kSql,     ///< generated Q_C/Q_V SQL through the sql:: engine
  };

  relational::Database& database() { return db_; }
  const relational::Database& database() const { return db_; }
  ConstraintEngine& constraints() { return engine_; }
  const ConstraintEngine& constraints() const { return engine_; }

  /// Registers a relation to clean ("connect the system to a database").
  common::Status Connect(relational::Relation data) {
    return db_.AddRelation(std::move(data));
  }

  /// Persists `relation` as a binary columnar snapshot at `path` (plus a
  /// fresh WAL sidecar at `path + ".wal"`), written from the master's
  /// encoded form after bringing the published epoch up to date, so a save
  /// also primes subsequent reads. See docs/storage.md for the format.
  ///
  /// `compact_after` arms the relation's compaction policy: once more than
  /// that many mutation records have accumulated in the WAL sidecar,
  /// CompactIfDue() folds them into a fresh snapshot at the same path
  /// (0 = disarmed, the default). The policy sticks to the relation name
  /// until the next save of it overwrites it.
  ///
  /// `sync` selects when WAL appends reach stable storage for this
  /// relation's sidecar (storage::SyncPolicy; docs/robustness.md);
  /// std::nullopt inherits the facade-wide default (wal_sync_policy()).
  /// Like the compaction threshold, it sticks to the relation name:
  /// CompactIfDue re-saves keep it.
  common::Result<storage::SnapshotStats> SaveRelation(
      const std::string& relation, const std::string& path,
      size_t compact_after = 0,
      std::optional<storage::SyncPolicy> sync = std::nullopt);

  /// Rewrites `relation`'s snapshot in place (same path, same policy) when
  /// its armed compaction policy is due — the WAL sidecar holds at least
  /// `compact_after` records. Returns whether a compaction ran. A relation
  /// without an armed policy (or without a live WAL attachment) is never
  /// due. Mutating callers (apply paths, the server's write commands) call
  /// this after committing a batch so snapshots stay one short replay away
  /// from the live state instead of accreting unbounded WAL tails.
  common::Result<bool> CompactIfDue(const std::string& relation);

  /// What SaveDatabase reports back.
  struct SaveDbStats {
    size_t relations = 0;
    std::string manifest_path;
  };

  /// Persists every connected relation into `dir` (created if missing):
  /// one snapshot file + WAL sidecar per relation, named by a sanitized
  /// form of the relation name, plus the checksummed catalog manifest
  /// (storage/catalog.h) that OpenDatabase restores from. Per-relation
  /// compaction policies already armed keep their thresholds; the save
  /// path they compact to moves into `dir`.
  common::Result<SaveDbStats> SaveDatabase(const std::string& dir);

  /// What OpenDatabase reports back.
  struct OpenDbStats {
    size_t relations = 0;
    uint64_t live_rows = 0;
    size_t wal_records = 0;  ///< total mutations replayed across relations
  };

  /// Restores a database saved by SaveDatabase: reads the catalog manifest
  /// in `dir` and opens every listed relation (snapshot + WAL replay, warm
  /// encoded snapshots adopted — the server restart path). Fails without
  /// side effects when any listed name is already connected or any file is
  /// corrupt: relations opened earlier in the same call are dropped again.
  /// A tripped `cancel` token (common/cancel.h, checked per replayed WAL
  /// record) unwinds the same way — no relation stays half-open.
  common::Result<OpenDbStats> OpenDatabase(
      const std::string& dir, common::CancelToken* cancel = nullptr);

  /// What OpenRelation reports back.
  struct OpenStats {
    uint64_t live_rows = 0;
    uint32_t num_columns = 0;
    size_t wal_records = 0;  ///< mutations replayed from the WAL sidecar
  };

  /// Loads a snapshot (replaying any WAL tail through the relation and the
  /// encoded append path) and registers it as `name`. The loaded code
  /// columns are adopted as the master's encoded form and published as the
  /// next epoch — the first read after an open pays no re-encode. Fails
  /// without side effects if `name` is taken or the files are corrupt — and
  /// likewise when `cancel` (common/cancel.h) trips mid-replay: the
  /// half-replayed relation is dropped before the status escapes.
  common::Result<OpenStats> OpenRelation(const std::string& name,
                                         const std::string& path,
                                         common::CancelToken* cancel = nullptr);

  /// The latest published epoch of `relation` (nullptr if none), safe to
  /// call while another thread runs Publish; never republishes.
  SnapshotPtr Pin(const std::string& relation) const;
  std::vector<SnapshotPtr> PinAll() const;  ///< every published relation

  /// Writer side: syncs `relation`'s master encoding (encoding afresh when
  /// the relation is new or was replaced) and publishes the next epoch.
  /// Callers serialize it with every mutation (the server's writer lock).
  common::Result<SnapshotPtr> Publish(const std::string& relation);

  /// The live WAL attachment journaling `relation`'s mutations into its
  /// snapshot sidecar; nullptr when the relation has no attached snapshot
  /// (never saved/opened, or replaced since). Armed by SaveRelation and
  /// OpenRelation: from then on every mutation that commits through the
  /// relation's mutators — monitor update batches, ApplyRepair, direct
  /// Insert/Delete/SetCell — appends its record immediately, so a later
  /// OpenRelation of the same path replays the relation to its exact
  /// current state. Check status() on it for append failures (sticky).
  storage::WalAttachment* AttachedWal(const std::string& relation);

  /// Facade-wide default WAL durability, used when SaveRelation (and hence
  /// SaveDatabase/OpenRelation/OpenDatabase) gets no explicit policy. The
  /// server and CLI set this once from their --sync flag.
  void set_wal_sync_policy(storage::SyncPolicy policy) {
    wal_sync_policy_ = policy;
  }
  const storage::SyncPolicy& wal_sync_policy() const {
    return wal_sync_policy_;
  }

  /// Runs the error detector over one relation with the CFDs registered for
  /// it. `options` tunes the native detector (SQL honours only `cancel`):
  /// DetectorOptions::num_threads >= 2 (or 0 = all hardware threads) turns
  /// on the sharded parallel scan, whose output is identical to the serial
  /// one (see docs/architecture.md). Omitted, the serial defaults apply.
  common::Result<detect::ViolationTable> DetectErrors(
      const std::string& relation, DetectorKind kind = DetectorKind::kNative,
      std::optional<detect::DetectorOptions> options = std::nullopt);

  /// Error detector + data auditor: the data quality report (Fig. 4).
  common::Result<audit::QualityReport> Report(const std::string& relation);

  /// The tuple-level data quality map (Fig. 3 content).
  common::Result<std::string> QualityMap(const std::string& relation,
                                         size_t max_rows = 40);

  /// Runs the data cleanser; the database is not modified (review first,
  /// then ApplyRepair). RepairOptions::num_threads selects the parallel
  /// candidate-evaluation and sharded re-detection path: 1 (the default)
  /// repairs serially, 0 borrows the shared hardware-width facade pool,
  /// and N >= 2 runs exactly N private lanes — the RepairResult is
  /// byte-identical for every thread count and SIMD tier (docs/repair.md).
  common::Result<repair::RepairResult> Clean(const std::string& relation,
                                             repair::RepairOptions options = {},
                                             repair::CostModelOptions cost = {});

  /// Mines CFDs from a (reference) relation's epoch into the CFD set and
  /// returns how many were added. Lanes as for Clean(); the mined set is
  /// byte-identical for every lane count (docs/discovery.md).
  common::Result<size_t> Mine(const std::string& relation,
                              discovery::CfdMinerOptions options = {});

  /// Builds an interactive review for a Clean() result (Fig. 5 content).
  common::Result<std::unique_ptr<repair::RepairReview>> Review(
      const std::string& relation, repair::RepairResult result);

  /// Writes a candidate repair back into the connected database, all or
  /// nothing: if any change names a dead tuple or a bad column, no cell is
  /// written (and nothing is journaled).
  common::Status ApplyRepair(const std::string& relation,
                             const repair::RepairResult& result);

  /// Arms the data monitor over the live relation. `cleansed` selects the
  /// paper's mode (2), incremental repair, instead of mode (1), incremental
  /// detection.
  common::Result<std::unique_ptr<monitor::DataMonitor>> StartMonitor(
      const std::string& relation, bool cleansed = false,
      repair::RepairOptions options = {}, repair::CostModelOptions cost = {});

  /// Drill-down explorer over a fresh detection of `relation`. The explorer
  /// owns its CFD copy and violation table and keeps the epoch it explores
  /// alive, so later writes to (or a drop of) the master never reach it.
  common::Result<DataExplorer> Explore(const std::string& relation);

 private:
  /// The shared worker pool for sharded scans and parallel encodes, built
  /// once (at hardware width) the first time options ask for parallelism
  /// and reused across Detect/Save/Open calls. nullptr result = stay
  /// serial. The shard plan still decides task counts; the pool is only
  /// the lanes they run on.
  common::ThreadPool* PoolFor(size_t num_threads);

  /// The latest epoch, republished first when the master moved since its
  /// capture (version counters advanced, or the relation was replaced).
  common::Result<SnapshotPtr> Current(const std::string& relation);

  /// A read of Current(relation) with its CFDs, detecting with `options`.
  common::Result<EpochRead> Read(const std::string& relation,
                                 const detect::DetectorOptions& options = {});

  /// Opens the sidecar at WalPathFor(path) and installs it as `rel`'s
  /// mutation observer, replacing any previous attachment for the name.
  common::Status AttachWal(const std::string& relation,
                           relational::Relation* rel, const std::string& path,
                           uint64_t snapshot_checksum,
                           storage::SyncPolicy sync);

  relational::Database db_;
  ConstraintEngine engine_;
  std::unique_ptr<common::ThreadPool> pool_;

  /// One relation's publication state; only `snap` is shared with readers
  /// (under pubs_mu_). Only Publish syncs `encoded`, so `snap` is current
  /// exactly when `identity` matches the master and `encoded` is in sync.
  struct Publication {
    std::unique_ptr<relational::EncodedRelation> encoded;
    uint64_t identity = 0;  ///< Relation::identity() `encoded` describes
    uint64_t next_epoch = 1;
    SnapshotPtr snap;
  };

  /// By lowercase relation name; pubs_mu_ guards the map and every `snap`.
  mutable std::mutex pubs_mu_;
  std::unordered_map<std::string, Publication> pubs_;

  /// Snapshot path + compaction threshold + WAL durability armed by the
  /// last SaveRelation of each (lowercase) relation name; consulted by
  /// CompactIfDue (which re-saves under the same policy) and SaveDatabase.
  struct SavePolicy {
    std::string path;
    size_t compact_after = 0;  ///< 0 = never compact automatically
    storage::SyncPolicy sync;
  };
  std::unordered_map<std::string, SavePolicy> save_policies_;

  /// Default for SaveRelation calls without an explicit sync policy.
  storage::SyncPolicy wal_sync_policy_;

  /// Live WAL attachments by lowercase relation name (see AttachedWal).
  /// Declared after db_ so teardown destroys attachments while their
  /// relations still exist; a dropped/replaced relation never fires its
  /// observer again (copies don't inherit it), so a stale entry is inert
  /// until the next save/open of that name overwrites it.
  std::unordered_map<std::string, std::unique_ptr<storage::WalAttachment>>
      wals_;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_SEMANDAQ_H_
