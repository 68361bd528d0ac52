#include "server/service.h"

#include <sstream>
#include <utility>

#include "audit/render.h"
#include "audit/report.h"
#include "common/string_util.h"
#include "core/command_words.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "relational/csv_io.h"
#include "sql/engine.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::server {

using common::Result;
using common::Status;
using core::SnapshotPtr;

namespace {

/// Parses `VERB REL [threads=N] [simd=LEVEL]` into the slots; `want_sql`
/// (detect) also takes the word `sql`, which excludes the other two.
Status ParseSweepArgs(const std::string& verb,
                      const std::vector<std::string>& args, size_t* num_threads,
                      common::simd::Level* simd_level,
                      bool* want_sql = nullptr) {
  const std::string usage = verb + " REL " + (want_sql ? "[sql] " : "") +
                            "[threads=N] [simd=LEVEL]";
  if (args.empty()) return Status::InvalidArgument("usage: " + usage);
  bool sweep_given = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (want_sql != nullptr && common::EqualsIgnoreCase(args[i], "sql")) {
      *want_sql = true;
      continue;
    }
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(
        core::ParseSweepOption(args[i], num_threads, simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument("unknown " + verb + " option '" +
                                     args[i] + "' (usage: " + usage + ")");
    }
    sweep_given = true;
  }
  if (want_sql != nullptr && *want_sql && sweep_given) {
    return Status::InvalidArgument(
        "threads=/simd= apply to the native detector only");
  }
  return Status::OK();
}

}  // namespace

SemandaqService::SemandaqService(ServiceOptions options)
    : scheduler_(options.scheduler_lanes),
      admission_(options.admission, scheduler_.total_lanes()) {
  sys_.set_wal_sync_policy(options.wal_sync);
}

std::string SemandaqService::Help() {
  return
      "commands:\n"
      "  help | ls\n"
      "  load NAME PATH            import CSV as relation NAME\n"
      "  save REL PATH [compact=N] [sync=MODE]\n"
      "                            persist REL as a binary columnar snapshot\n"
      "                            (WAL sidecar at PATH.wal); compact=N folds\n"
      "                            the sidecar back into the snapshot once it\n"
      "                            holds N mutation records; sync=MODE picks\n"
      "                            WAL durability: always (fdatasync every\n"
      "                            record), batch(N), or none\n"
      "  open NAME PATH            load a snapshot (+ WAL tail) as NAME;\n"
      "                            detect/mine need no re-encode afterwards\n"
      "  savedb DIR                persist every relation into DIR plus a\n"
      "                            catalog manifest (whole-database save)\n"
      "  opendb DIR                reopen a savedb directory (snapshots +\n"
      "                            WAL tails; warm restart)\n"
      "  gen customer|hospital N NOISE%   generate a workload (dirty + gold)\n"
      "  show REL [N]              print up to N tuples (default 10)\n"
      "  cfd DEFINITION            e.g. cfd customer: [CC=44] -> [CNT=UK]\n"
      "  cfds                      list registered CFDs\n"
      "  validate REL              satisfiability analysis of Sigma(REL)\n"
      "  mine REL [threads=N] [simd=LEVEL]\n"
      "                            discover CFDs from REL into Sigma\n"
      "                            (threads=N fans the levelwise sweep out,\n"
      "                            0 = all hardware threads; mined output is\n"
      "                            identical for every thread count and tier)\n"
      "  detect REL [sql] [threads=N] [simd=scalar|sse2|avx2]\n"
      "                            run the error detector (native or SQL\n"
      "                            path; threads=N shards the native scan,\n"
      "                            0 = all hardware threads; simd= forces a\n"
      "                            kernel tier, default = best supported)\n"
      "  map REL [N]               tuple-level data quality map\n"
      "  report REL                data quality report\n"
      "  explore REL CFD# PAT#     drill-down tables for a pattern\n"
      "  clean REL [threads=N] [simd=LEVEL]\n"
      "                            compute a candidate repair (pending);\n"
      "                            threads=N fans the per-round candidate\n"
      "                            evaluation and re-detection out, 0 = all\n"
      "                            hardware threads; the repair is identical\n"
      "                            for every thread count and tier\n"
      "  diff                      show the pending repair\n"
      "  apply                     write the pending repair back\n"
      "  sql QUERY                 run a SELECT statement\n"
      "  epoch REL                 latest published snapshot epoch of REL\n"
      "  stats                     server counters (lanes, queues, sheds, "
      "timeouts, cancels)\n";
}

std::string SemandaqService::RenderStats() const {
  std::ostringstream out;
  out << "lanes.total=" << scheduler_.total_lanes() << "\n"
      << "lanes.free=" << scheduler_.available() << "\n"
      << "admission.enabled=" << (admission_.enabled() ? 1 : 0) << "\n"
      << "cheap.active=" << admission_.active(RequestClass::kCheap) << "\n"
      << "cheap.queued=" << admission_.queued(RequestClass::kCheap) << "\n"
      << "expensive.active=" << admission_.active(RequestClass::kExpensive)
      << "\n"
      << "expensive.queued=" << admission_.queued(RequestClass::kExpensive)
      << "\n"
      << "sheds=" << stats_.sheds.load(std::memory_order_relaxed) << "\n"
      << "timeouts=" << stats_.timeouts.load(std::memory_order_relaxed) << "\n"
      << "cancels=" << stats_.cancels.load(std::memory_order_relaxed) << "\n"
      << "epochs_served="
      << stats_.epochs_served.load(std::memory_order_relaxed) << "\n";
  return out.str();
}

SnapshotPtr SemandaqService::Pin(const std::string& relation) {
  SnapshotPtr snap = sys_.Pin(relation);
  if (snap == nullptr) {
    // Nothing published yet (a relation connected through the facade
    // directly): publish the first epoch under the writer lock, or stay
    // empty for an unknown relation.
    std::lock_guard<std::mutex> lock(sys_mu_);
    snap = sys_.Publish(relation).ValueOr(nullptr);
  }
  if (snap != nullptr) {
    stats_.epochs_served.fetch_add(1, std::memory_order_relaxed);
  }
  return snap;
}

std::vector<cfd::Cfd> SemandaqService::CfdsFor(const std::string& relation) {
  std::lock_guard<std::mutex> lock(sys_mu_);
  return sys_.constraints().CfdsFor(relation);
}

common::Result<size_t> SemandaqService::AppendBatch(
    const std::string& relation, std::vector<relational::Row> rows) {
  std::lock_guard<std::mutex> lock(sys_mu_);
  relational::Relation* rel = sys_.database().FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  for (relational::Row& row : rows) {
    SEMANDAQ_RETURN_IF_ERROR(rel->Insert(std::move(row)).status());
  }
  // Publish first: a due compaction then re-saves from the fresh epoch's
  // encoding instead of publishing one of its own.
  SEMANDAQ_RETURN_IF_ERROR(sys_.Publish(relation).status());
  SEMANDAQ_RETURN_IF_ERROR(sys_.CompactIfDue(relation).status());
  return rows.size();
}

common::Result<std::string> SemandaqService::Execute(
    SessionState* session, std::string_view command_line, RequestContext* ctx) {
  const std::string_view line = common::Trim(command_line);
  if (line.empty() || line.front() == '#') return std::string();
  const std::vector<std::string> words = core::Words(line);
  const std::string verb = common::ToLower(words[0]);
  const std::vector<std::string> args(words.begin() + 1, words.end());

  // Cost-aware admission: classify, then run under a per-class slot (or
  // shed with a retry hint when the class's queue is full). Cancellation
  // covers the queue wait too — a deadline-expired request must not
  // consume the slot it queued for.
  const RequestClass cls = ClassifyVerb(verb);
  const AdmissionController::Decision d =
      admission_.Admit(cls, ctx->cancel);
  if (d.cancelled) return ctx->cancel->Check();
  if (!d.admitted) {
    stats_.sheds.fetch_add(1, std::memory_order_relaxed);
    ctx->retry_after_ms = d.retry_after_ms;
    return Status::Unavailable(
        "server busy (" +
        std::string(cls == RequestClass::kExpensive ? "expensive" : "cheap") +
        " queue full), retry in " + std::to_string(d.retry_after_ms) + "ms");
  }
  struct SlotGuard {
    AdmissionController* admission;
    RequestClass cls;
    ~SlotGuard() { admission->Release(cls); }
  } guard{&admission_, cls};
  return ExecuteAdmitted(session, line, verb, args, ctx->cancel);
}

common::Result<std::string> SemandaqService::ExecuteAdmitted(
    SessionState* session, std::string_view line, const std::string& verb,
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (verb == "help") return Help();
  if (verb == "stats") return RenderStats();

  // Read commands: pin an epoch and compute on it lock-free.
  if (verb == "show") return CmdShow(args);
  if (verb == "epoch") return CmdEpoch(args);
  if (verb == "detect") return CmdDetect(args, cancel);
  if (verb == "mine") return CmdMine(args, cancel);
  if (verb == "clean") return CmdClean(session, args, cancel);
  if (verb == "map") return CmdMap(args, cancel);
  if (verb == "report") return CmdReport(args, cancel);
  if (verb == "explore") return CmdExplore(args, cancel);
  if (verb == "sql") return CmdSql(line.substr(verb.size()), cancel);
  if (verb == "diff") return CmdDiff(session);
  if (verb == "apply") return CmdApply(session);

  // Everything else mutates the master or walks the shared catalog:
  // serialized behind the writer lock, publishing what it touched.
  std::lock_guard<std::mutex> lock(sys_mu_);

  if (verb == "ls") {
    std::string out;
    for (const auto& name : sys_.database().RelationNames()) {
      const auto* rel = sys_.database().FindRelation(name);
      out += name + " (" + std::to_string(rel->size()) + " tuples: " +
             rel->schema().ToString() + ")\n";
    }
    return out.empty() ? std::string("(no relations)\n") : out;
  }

  if (verb == "load") {
    if (args.size() != 2) {
      return Status::InvalidArgument("usage: load NAME PATH");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation rel,
                              relational::LoadRelationCsv(args[0], args[1]));
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(rel)));
    SEMANDAQ_RETURN_IF_ERROR(sys_.Publish(args[0]).status());
    return "loaded " + args[0] + "\n";
  }

  if (verb == "save") {
    if (args.size() < 2) {
      return Status::InvalidArgument(
          "usage: save REL PATH [compact=N] [sync=always|batch(N)|none]");
    }
    size_t compact_after = 0;
    std::optional<storage::SyncPolicy> sync;
    SEMANDAQ_RETURN_IF_ERROR(
        core::ParseSaveOptions(args, 2, &compact_after, &sync));
    SEMANDAQ_ASSIGN_OR_RETURN(
        auto stats, sys_.SaveRelation(args[0], args[1], compact_after, sync));
    std::string out = "saved " + args[0] + " to " + args[1] + " (" +
                      std::to_string(stats.live_rows) + " tuples, " +
                      std::to_string(stats.num_columns) + " columns, " +
                      std::to_string(stats.file_bytes) + " bytes)";
    if (compact_after > 0) {
      out += "; compaction armed at " + std::to_string(compact_after) +
             " WAL record(s)";
    }
    if (sync.has_value()) out += "; wal sync=" + sync->ToString();
    return out + "\n";
  }

  if (verb == "open") {
    if (args.size() != 2) {
      return Status::InvalidArgument("usage: open NAME PATH");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats,
                              sys_.OpenRelation(args[0], args[1], cancel));
    return "opened " + args[0] + " from " + args[1] + " (" +
           std::to_string(stats.live_rows) + " tuples, " +
           std::to_string(stats.num_columns) + " columns, +" +
           std::to_string(stats.wal_records) + " wal record(s))\n";
  }

  if (verb == "savedb") {
    if (args.size() != 1) return Status::InvalidArgument("usage: savedb DIR");
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.SaveDatabase(args[0]));
    return "saved " + std::to_string(stats.relations) + " relation(s) to " +
           args[0] + " (manifest " + stats.manifest_path + ")\n";
  }

  if (verb == "opendb") {
    if (args.size() != 1) return Status::InvalidArgument("usage: opendb DIR");
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.OpenDatabase(args[0], cancel));
    return "opened " + std::to_string(stats.relations) + " relation(s) from " +
           args[0] + " (" + std::to_string(stats.live_rows) + " tuples, +" +
           std::to_string(stats.wal_records) + " wal record(s))\n";
  }

  if (verb == "gen") {
    if (args.size() != 3) {
      return Status::InvalidArgument("usage: gen customer|hospital N NOISE%");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(size_t n, core::ParseCount(args[1]));
    SEMANDAQ_ASSIGN_OR_RETURN(size_t noise_pct, core::ParseCount(args[2]));
    const double noise = static_cast<double>(noise_pct) / 100.0;
    // Connects a generated workload's (dirty, gold) pair, publishing both.
    auto connect = [&](auto wl) -> Result<std::string> {
      const std::string name = wl.dirty.name();
      const std::string gold = wl.clean.name();
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.dirty)));
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.clean)));
      SEMANDAQ_RETURN_IF_ERROR(sys_.Publish(name).status());
      SEMANDAQ_RETURN_IF_ERROR(sys_.Publish(gold).status());
      return "generated " + name + " (+ " + gold + "), " + std::to_string(n) +
             " tuples at " + args[2] + "% noise\n";
    };
    if (common::EqualsIgnoreCase(args[0], "customer")) {
      workload::CustomerWorkloadOptions opts;
      opts.num_tuples = n;
      opts.noise_rate = noise;
      return connect(workload::CustomerGenerator::Generate(opts));
    }
    if (common::EqualsIgnoreCase(args[0], "hospital")) {
      workload::HospitalWorkloadOptions opts;
      opts.num_tuples = n;
      opts.noise_rate = noise;
      return connect(workload::HospitalGenerator::Generate(opts));
    }
    return Status::InvalidArgument("unknown workload: " + args[0]);
  }

  if (verb == "cfd") {
    SEMANDAQ_RETURN_IF_ERROR(
        sys_.constraints().AddCfdsFromText(common::Trim(line.substr(verb.size()))));
    return "added; Sigma now has " + std::to_string(sys_.constraints().size()) +
           " CFD(s)\n";
  }

  if (verb == "cfds") {
    std::string out;
    for (const auto& c : sys_.constraints().cfds()) out += c.ToString() + "\n";
    return out.empty() ? std::string("(no CFDs)\n") : out;
  }

  if (verb == "validate") {
    if (args.size() != 1) return Status::InvalidArgument("usage: validate REL");
    SEMANDAQ_ASSIGN_OR_RETURN(auto report, sys_.constraints().Validate(args[0]));
    std::string out = report.satisfiable ? "SATISFIABLE" : "UNSATISFIABLE";
    out += ": " + report.explanation + "\n";
    if (report.satisfiable && !report.witness.empty()) {
      out += "witness:";
      for (size_t i = 0; i < report.witness.size(); ++i) {
        out += " " + report.witness_attrs[i] + "=" +
               report.witness[i].ToDisplayString();
      }
      out += "\n";
    }
    return out;
  }

  return Status::InvalidArgument("unknown command '" + verb + "' (try: help)");
}

common::Result<std::string> SemandaqService::CmdShow(
    const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("usage: show REL [N]");
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  size_t n = 10;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  return snap->relation.ToAsciiTable(n);
}

common::Result<std::string> SemandaqService::CmdEpoch(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: epoch REL");
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  return "epoch " + std::to_string(snap->epoch) + "\n";
}

common::Result<std::string> SemandaqService::CmdDetect(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  bool want_sql = false;
  detect::DetectorOptions options;
  SEMANDAQ_RETURN_IF_ERROR(ParseSweepArgs("detect", args, &options.num_threads,
                                          &options.simd_level, &want_sql));
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  options.cancel = cancel;
  const core::EpochRead read{std::move(snap), CfdsFor(args[0]), options};
  // Both paths scan serially, so no worker lanes are leased.
  if (want_sql) {
    SEMANDAQ_ASSIGN_OR_RETURN(auto table, read.DetectSql());
    return table.Summary() + "\n";
  }
  // `detect` reports only the summary: the count path builds no table.
  SEMANDAQ_ASSIGN_OR_RETURN(auto counts, read.Detector().Count());
  return counts.ToString() + "\n";
}

common::Result<std::string> SemandaqService::CmdMine(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  detect::DetectorOptions options;
  SEMANDAQ_RETURN_IF_ERROR(ParseSweepArgs("mine", args, &options.num_threads,
                                          &options.simd_level));
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  ThreadLease lease = scheduler_.Acquire(options.num_threads);
  options.num_threads = lease.lanes();
  options.cancel = cancel;
  // Mining reads no Sigma: unlike PinnedRead, take no writer lock to copy it.
  const core::EpochRead read{std::move(snap), {}, options, lease.pool()};
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<cfd::Cfd> mined, read.Mine());
  // The sweep ran on the pinned epoch; only the Sigma append takes the
  // writer lock.
  std::lock_guard<std::mutex> lock(sys_mu_);
  for (cfd::Cfd& c : mined) {
    SEMANDAQ_RETURN_IF_ERROR(sys_.constraints().AddCfd(std::move(c)));
  }
  return "mined " + std::to_string(mined.size()) + " CFD(s) from " + args[0] +
         "; Sigma now has " + std::to_string(sys_.constraints().size()) +
         " CFD(s)\n";
}

common::Result<std::string> SemandaqService::CmdClean(
    SessionState* session, const std::vector<std::string>& args,
    common::CancelToken* cancel) {
  repair::RepairOptions options;
  SEMANDAQ_RETURN_IF_ERROR(ParseSweepArgs("clean", args, &options.num_threads,
                                          &options.simd_level));
  SEMANDAQ_ASSIGN_OR_RETURN(
      LeasedRead pinned, PinnedRead(args[0], options.num_threads, cancel));
  options.num_threads = pinned.lease.lanes();
  options.pool = pinned.lease.pool();
  options.cancel = cancel;
  SEMANDAQ_ASSIGN_OR_RETURN(auto repair,
                            pinned.read.Clean(std::move(options)));
  std::ostringstream out;
  out << "candidate repair: " << repair.changes.size() << " cell(s), cost "
      << repair.total_cost << ", " << repair.iterations << " round(s), "
      << repair.null_escapes << " NULL escape(s), remaining "
      << repair.remaining_violations
      << "\nuse 'diff' to review, 'apply' to commit\n";
  session->pending_repair = std::move(repair);
  session->pending_relation = args[0];
  return out.str();
}

common::Result<std::string> SemandaqService::CmdDiff(SessionState* session) {
  if (!session->pending_repair.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  SnapshotPtr snap = Pin(session->pending_relation);
  if (snap == nullptr) {
    return Status::NotFound("no relation named " + session->pending_relation);
  }
  std::ostringstream out;
  out << "pending repair for '" << session->pending_relation << "':\n";
  for (const auto& ch : session->pending_repair->changes) {
    out << "  #" << ch.tid << " " << snap->relation.schema().attr(ch.col).name
        << ": " << ch.original.ToDisplayString() << " -> "
        << ch.repaired.ToDisplayString();
    if (!ch.alternatives.empty()) {
      out << "   (alternatives:";
      for (const auto& [v, cost] : ch.alternatives) {
        out << " " << v.ToDisplayString();
      }
      out << ")";
    }
    out << "\n";
  }
  return out.str();
}

common::Result<std::string> SemandaqService::CmdApply(SessionState* session) {
  if (!session->pending_repair.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  std::lock_guard<std::mutex> lock(sys_mu_);
  SEMANDAQ_RETURN_IF_ERROR(
      sys_.ApplyRepair(session->pending_relation, *session->pending_repair));
  const size_t n = session->pending_repair->changes.size();
  session->pending_repair.reset();
  std::string out = "applied " + std::to_string(n) + " change(s) to " +
                    session->pending_relation;
  SEMANDAQ_RETURN_IF_ERROR(sys_.Publish(session->pending_relation).status());
  SEMANDAQ_ASSIGN_OR_RETURN(bool compacted,
                            sys_.CompactIfDue(session->pending_relation));
  if (compacted) out += " (snapshot compacted)";
  return out + "\n";
}

common::Result<std::string> SemandaqService::CmdMap(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.empty()) return Status::InvalidArgument("usage: map REL [N]");
  size_t n = 20;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(LeasedRead pinned, PinnedRead(args[0], 0, cancel));
  return pinned.read.QualityMap(n);
}

common::Result<std::string> SemandaqService::CmdReport(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.size() != 1) return Status::InvalidArgument("usage: report REL");
  SEMANDAQ_ASSIGN_OR_RETURN(LeasedRead pinned, PinnedRead(args[0], 0, cancel));
  SEMANDAQ_ASSIGN_OR_RETURN(audit::QualityReport report, pinned.read.Report());
  return audit::AsciiRender::BarChart(report) + "\n" +
         audit::AsciiRender::PieChart(report) + "\n" +
         audit::AsciiRender::Statistics(report);
}

common::Result<std::string> SemandaqService::CmdExplore(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.size() < 3) {
    return Status::InvalidArgument("usage: explore REL CFD# PAT#");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(size_t ci, core::ParseCount(args[1]));
  SEMANDAQ_ASSIGN_OR_RETURN(size_t pi, core::ParseCount(args[2]));
  SEMANDAQ_ASSIGN_OR_RETURN(LeasedRead pinned, PinnedRead(args[0], 0, cancel));
  SEMANDAQ_ASSIGN_OR_RETURN(core::DataExplorer explorer, pinned.read.Explore());
  SEMANDAQ_ASSIGN_OR_RETURN(auto matches,
                            explorer.LhsMatches(static_cast<int>(ci),
                                                static_cast<int>(pi)));
  if (matches.empty()) return std::string("(no tuples match this pattern)\n");
  return explorer.RenderDrilldown(static_cast<int>(ci), static_cast<int>(pi),
                                  matches.front().lhs);
}

common::Result<SemandaqService::LeasedRead> SemandaqService::PinnedRead(
    const std::string& relation, size_t lanes, common::CancelToken* cancel) {
  SnapshotPtr snap = Pin(relation);
  if (snap == nullptr) return Status::NotFound("no relation named " + relation);
  std::vector<cfd::Cfd> cfds = CfdsFor(relation);
  ThreadLease lease = scheduler_.Acquire(lanes);
  detect::DetectorOptions options;
  options.num_threads = lease.lanes();
  options.cancel = cancel;
  common::ThreadPool* pool = lease.pool();
  return LeasedRead{std::move(lease),
                    core::EpochRead{std::move(snap), std::move(cfds), options,
                                    pool}};
}

common::Result<std::string> SemandaqService::CmdSql(
    std::string_view query, common::CancelToken* cancel) {
  // Pin one consistent set: the latest epoch of every published relation.
  // The scratch catalog is built from those pins alone, so the query never
  // touches the live master (and holds no lock while it runs).
  SEMANDAQ_ASSIGN_OR_RETURN(core::PinnedCatalog catalog,
                            core::PinCatalog(sys_.PinAll()));
  sql::Engine engine(&catalog.db);
  engine.set_cancel(cancel);
  engine.set_encoded_provider(catalog.encoded);
  SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation result,
                            engine.Query(common::Trim(query)));
  return result.ToAsciiTable(50);
}

}  // namespace semandaq::server
