#include "core/semandaq.h"

#include "audit/render.h"
#include "common/string_util.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace semandaq::core {

using common::Status;

common::ThreadPool* Semandaq::PoolFor(size_t num_threads) {
  if (num_threads == 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(common::ResolveThreadCount(0));
    // Discovery can share the facade pool: once it exists, DiscoverFrom
    // calls with num_threads == 0 fan their levelwise sweep out over it
    // (explicit N >= 2 runs a private N-lane pool instead, and the default
    // of 1 mines serially).
    engine_.set_thread_pool(pool_.get());
  }
  return pool_.get();
}

relational::EncodedRelation* Semandaq::FindWarm(
    const std::string& relation, const relational::Relation* rel) {
  auto it = warm_.find(common::ToLower(relation));
  if (it == warm_.end()) return nullptr;
  if (&it->second->relation() != rel) {
    // The relation was replaced out from under the snapshot (PutRelation /
    // Drop + Add); the entry is garbage, not merely stale.
    warm_.erase(it);
    return nullptr;
  }
  return it->second.get();
}

relational::EncodedRelation* Semandaq::WarmSnapshot(
    const std::string& relation) {
  const relational::Relation* rel = db_.FindRelation(relation);
  if (rel == nullptr) return nullptr;
  return FindWarm(relation, rel);
}

relational::EncodedRelation* Semandaq::WarmOrEncode(const std::string& relation) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return nullptr;
  relational::EncodedRelation* warm = FindWarm(relation, rel);
  if (warm == nullptr) {
    auto enc = std::make_unique<relational::EncodedRelation>(rel);
    warm = enc.get();
    warm_[common::ToLower(relation)] = std::move(enc);
  } else {
    warm->set_thread_pool(nullptr);
    warm->Sync();
  }
  return warm;
}

storage::WalAttachment* Semandaq::AttachedWal(const std::string& relation) {
  const relational::Relation* rel = db_.FindRelation(relation);
  if (rel == nullptr) return nullptr;
  auto it = wals_.find(common::ToLower(relation));
  if (it == wals_.end()) return nullptr;
  // A replaced relation never fires the old attachment (copies drop the
  // observer); report it gone rather than returning a zombie.
  if (rel->observer() != it->second.get()) return nullptr;
  return it->second.get();
}

common::Status Semandaq::AttachWal(const std::string& relation,
                                   relational::Relation* rel,
                                   const std::string& path,
                                   uint64_t snapshot_checksum,
                                   storage::SyncPolicy sync) {
  auto att = storage::WalAttachment::Open(storage::WalPathFor(path),
                                          snapshot_checksum, sync);
  if (!att.ok()) {
    // Disarm any previous attachment rather than leaving it in place: the
    // snapshot write just replaced the sidecar it was appending to, so
    // further appends would land in the unlinked old file and vanish —
    // a silent journal gap, the one failure mode the sticky-error
    // discipline exists to prevent. With the observer detached and the
    // entry gone, AttachedWal() truthfully reports "no live journal".
    rel->set_observer(nullptr);
    wals_.erase(common::ToLower(relation));
    return att.status();
  }
  rel->set_observer(att->get());
  wals_[common::ToLower(relation)] = std::move(*att);  // replaces any stale one
  return Status::OK();
}

common::Result<detect::NativeDetector> Semandaq::NativeDetectorFor(
    const std::string& relation,
    std::optional<detect::DetectorOptions> options) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  const detect::DetectorOptions opts =
      options.value_or(detect::DetectorOptions{});
  detect::NativeDetector detector(rel, engine_.CfdsFor(relation), opts);
  common::ThreadPool* pool = PoolFor(opts.num_threads);
  detector.set_thread_pool(pool);
  if (relational::EncodedRelation* warm = FindWarm(relation, rel)) {
    warm->set_thread_pool(pool);
    warm->Sync();
    detector.set_encoded(warm);
  }
  return detector;
}

common::Result<detect::ViolationTable> Semandaq::DetectErrors(
    const std::string& relation, DetectorKind kind,
    std::optional<detect::DetectorOptions> options) {
  if (kind == DetectorKind::kNative) {
    SEMANDAQ_ASSIGN_OR_RETURN(detect::NativeDetector detector,
                              NativeDetectorFor(relation, options));
    return detector.Detect();
  }
  SEMANDAQ_RETURN_IF_ERROR(db_.GetRelation(relation).status());
  detect::SqlDetector detector(&db_, relation, engine_.CfdsFor(relation));
  return detector.Detect();
}

common::Result<storage::SnapshotStats> Semandaq::SaveRelation(
    const std::string& relation, const std::string& path, size_t compact_after,
    std::optional<storage::SyncPolicy> sync) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  const storage::SyncPolicy policy = sync.value_or(wal_sync_policy_);
  relational::EncodedRelation* warm = WarmOrEncode(relation);
  SEMANDAQ_ASSIGN_OR_RETURN(storage::SnapshotStats stats,
                            storage::SnapshotWriter::Write(*rel, *warm, path));
  // Arm the live journal: the write left a fresh, empty sidecar stamped
  // with this snapshot; from here on every committed mutation appends to
  // it, keeping the on-disk state one replay away from the live one.
  SEMANDAQ_RETURN_IF_ERROR(
      AttachWal(relation, rel, path, stats.manifest_checksum, policy));
  save_policies_[common::ToLower(relation)] =
      SavePolicy{path, compact_after, policy};
  return stats;
}

common::Result<bool> Semandaq::CompactIfDue(const std::string& relation) {
  auto it = save_policies_.find(common::ToLower(relation));
  if (it == save_policies_.end() || it->second.compact_after == 0) {
    return false;
  }
  storage::WalAttachment* wal = AttachedWal(relation);
  if (wal == nullptr || wal->records_appended() < it->second.compact_after) {
    return false;
  }
  // Re-saving rewrites the snapshot with the journaled mutations folded in
  // and re-arms a fresh, empty sidecar — the attachment's record count
  // restarts at zero, so the policy naturally re-triggers every
  // `compact_after` further mutations.
  const SavePolicy policy = it->second;
  SEMANDAQ_RETURN_IF_ERROR(
      SaveRelation(relation, policy.path, policy.compact_after, policy.sync)
          .status());
  return true;
}

common::Result<Semandaq::SaveDbStats> Semandaq::SaveDatabase(
    const std::string& dir) {
  SEMANDAQ_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  std::vector<storage::CatalogEntry> entries;
  for (const std::string& key : db_.RelationNames()) {
    const relational::Relation* rel = db_.FindRelation(key);
    storage::CatalogEntry entry;
    entry.name = rel->name();
    entry.file = storage::SanitizeFileStem(rel->name()) + ".sdq";
    // Keep a previously armed compaction threshold and sync policy; the
    // policy's path moves with the database directory.
    size_t compact_after = 0;
    std::optional<storage::SyncPolicy> sync;
    auto pit = save_policies_.find(common::ToLower(entry.name));
    if (pit != save_policies_.end()) {
      compact_after = pit->second.compact_after;
      sync = pit->second.sync;
    }
    SEMANDAQ_ASSIGN_OR_RETURN(
        storage::SnapshotStats stats,
        SaveRelation(entry.name, dir + "/" + entry.file, compact_after, sync));
    entry.snapshot_checksum = stats.manifest_checksum;
    entries.push_back(std::move(entry));
  }
  SEMANDAQ_RETURN_IF_ERROR(storage::WriteCatalog(dir, entries));
  SaveDbStats stats;
  stats.relations = entries.size();
  stats.manifest_path = dir + "/" + storage::kCatalogFileName;
  return stats;
}

common::Result<Semandaq::OpenDbStats> Semandaq::OpenDatabase(
    const std::string& dir, common::CancelToken* cancel) {
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<storage::CatalogEntry> entries,
                            storage::ReadCatalog(dir));
  for (const storage::CatalogEntry& e : entries) {
    if (db_.HasRelation(e.name)) {
      return Status::AlreadyExists("relation already connected: " + e.name);
    }
  }
  OpenDbStats stats;
  std::vector<std::string> opened;
  for (const storage::CatalogEntry& e : entries) {
    auto one = OpenRelation(e.name, dir + "/" + e.file, cancel);
    if (!one.ok()) {
      for (const std::string& name : opened) (void)db_.DropRelation(name);
      return one.status();
    }
    opened.push_back(e.name);
    stats.live_rows += one->live_rows;
    stats.wal_records += one->wal_records;
  }
  stats.relations = entries.size();
  return stats;
}

common::Result<Semandaq::OpenStats> Semandaq::OpenRelation(
    const std::string& name, const std::string& path,
    common::CancelToken* cancel) {
  if (db_.HasRelation(name)) {
    return Status::AlreadyExists("relation already connected: " + name);
  }
  SEMANDAQ_ASSIGN_OR_RETURN(storage::LoadedSnapshot snap,
                            storage::SnapshotReader::Read(path));
  snap.relation.set_name(name);
  SEMANDAQ_RETURN_IF_ERROR(db_.AddRelation(std::move(snap.relation)));
  relational::Relation* rel = db_.FindMutableRelation(name);
  auto enc = std::make_unique<relational::EncodedRelation>(
      relational::EncodedRelation::FromStorage(rel, std::move(snap.dicts),
                                               std::move(snap.columns)));
  // The WAL tail replays through the relation's ordinary mutators; Sync()
  // then absorbs it along the encoded append path (or a rebuild after an
  // in-place overwrite record). A bad WAL unwinds the registration.
  auto wal = storage::ReplayWal(storage::WalPathFor(path),
                                snap.manifest_checksum, rel, cancel);
  if (!wal.ok()) {
    (void)db_.DropRelation(name);
    return wal.status();
  }
  enc->set_cancel(cancel);
  enc->Sync();
  enc->set_cancel(nullptr);  // the token's life ends with this request
  if (cancel != nullptr && !cancel->Check().ok()) {
    (void)db_.DropRelation(name);
    return cancel->Check();
  }

  // Arm the live journal AFTER the replay above — the replayed records are
  // already in the sidecar; the attachment appends only new mutations.
  const common::Status attached =
      AttachWal(name, rel, path, snap.manifest_checksum, wal_sync_policy_);
  if (!attached.ok()) {
    (void)db_.DropRelation(name);
    return attached;
  }

  OpenStats stats;
  stats.live_rows = rel->size();
  stats.num_columns = static_cast<uint32_t>(rel->schema().size());
  stats.wal_records = *wal;
  warm_[common::ToLower(name)] = std::move(enc);
  return stats;
}

common::Result<audit::AuditOutcome> Semandaq::Audit(const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  audit::DataAuditor auditor(rel, engine_.CfdsFor(relation));
  return auditor.Audit(table);
}

common::Result<audit::QualityReport> Semandaq::Report(const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(audit::AuditOutcome outcome, Audit(relation));
  return audit::BuildQualityReport(outcome, rel->schema());
}

common::Result<std::string> Semandaq::QualityMap(const std::string& relation,
                                                 size_t max_rows) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  return audit::AsciiRender::QualityMap(*rel, table, max_rows);
}

common::Result<repair::RepairResult> Semandaq::Clean(const std::string& relation,
                                                     repair::RepairOptions options,
                                                     repair::CostModelOptions cost) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  // Same lane policy as DiscoverFrom: only num_threads == 0 borrows the
  // shared hardware-width pool; an explicit N >= 2 gets a private N-lane
  // pool from the repair engine itself, and 1 repairs serially. The
  // RepairResult is byte-identical for every lane count.
  if (options.pool == nullptr && options.num_threads == 0) {
    options.pool = PoolFor(options.num_threads);
  }
  repair::CostModel model(rel->schema(), std::move(cost));
  repair::BatchRepair cleaner(rel, engine_.CfdsFor(relation), std::move(model),
                              std::move(options));
  return cleaner.Run();
}

common::Result<std::unique_ptr<repair::RepairReview>> Semandaq::Review(
    const std::string& relation, repair::RepairResult result) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  auto review = std::make_unique<repair::RepairReview>(rel, std::move(result),
                                                       engine_.CfdsFor(relation));
  SEMANDAQ_RETURN_IF_ERROR(review->Start());
  return review;
}

common::Status Semandaq::ApplyRepair(const std::string& relation,
                                     const repair::RepairResult& result) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  // Validate every change before writing any: a repair whose tuple was
  // deleted since `clean` must leave the relation (and its WAL) untouched,
  // not half-applied.
  for (const repair::CellChange& ch : result.changes) {
    SEMANDAQ_RETURN_IF_ERROR(rel->CheckLive(ch.tid, "update"));
    SEMANDAQ_RETURN_IF_ERROR(rel->CheckColumn(ch.col));
  }
  for (const repair::CellChange& ch : result.changes) {
    SEMANDAQ_RETURN_IF_ERROR(rel->SetCell(ch.tid, ch.col, ch.repaired));
  }
  return Status::OK();
}

common::Result<std::unique_ptr<monitor::DataMonitor>> Semandaq::StartMonitor(
    const std::string& relation, bool cleansed, repair::RepairOptions options,
    repair::CostModelOptions cost) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  repair::CostModel model(rel->schema(), std::move(cost));
  auto mon = std::make_unique<monitor::DataMonitor>(
      rel, engine_.CfdsFor(relation), std::move(model), std::move(options));
  SEMANDAQ_RETURN_IF_ERROR(mon->Start());
  if (cleansed) mon->MarkCleansed();
  return mon;
}

common::Result<std::unique_ptr<DataExplorer>> Semandaq::Explore(
    const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  explorer_cfds_.push_back(
      std::make_unique<std::vector<cfd::Cfd>>(engine_.CfdsFor(relation)));
  explorer_tables_.push_back(
      std::make_unique<detect::ViolationTable>(std::move(table)));
  return std::make_unique<DataExplorer>(rel, explorer_cfds_.back().get(),
                                        explorer_tables_.back().get());
}

}  // namespace semandaq::core
