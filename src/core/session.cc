#include "core/session.h"

#include <sstream>

#include "audit/render.h"
#include "common/string_util.h"
#include "core/command_words.h"
#include "relational/csv_io.h"
#include "sql/engine.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::core {

using common::Result;
using common::Status;

std::string Session::Help() {
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
      "  sql QUERY                 run a SELECT statement\n";
}

common::Result<std::string> Session::Execute(std::string_view command_line) {
  const std::string_view line = common::Trim(command_line);
  if (line.empty() || line.front() == '#') return std::string();
  const std::vector<std::string> words = Words(line);
  const std::string verb = common::ToLower(words[0]);
  const std::vector<std::string> args(words.begin() + 1, words.end());

  if (verb == "help") return Help();
  if (verb == "ls") {
    std::string out;
    for (const auto& name : sys_.database().RelationNames()) {
      const auto* rel = sys_.database().FindRelation(name);
      out += name + " (" + std::to_string(rel->size()) + " tuples: " +
             rel->schema().ToString() + ")\n";
    }
    return out.empty() ? std::string("(no relations)\n") : out;
  }
  if (verb == "load") return CmdLoad(args);
  if (verb == "save") return CmdSave(args);
  if (verb == "open") return CmdOpen(args);
  if (verb == "savedb") return CmdSaveDb(args);
  if (verb == "opendb") return CmdOpenDb(args);
  if (verb == "gen") return CmdGen(args);
  if (verb == "show") return CmdShow(args);
  if (verb == "cfd") return CmdCfd(line.substr(verb.size()));
  if (verb == "cfds") {
    std::string out;
    for (const auto& c : sys_.constraints().cfds()) out += c.ToString() + "\n";
    return out.empty() ? std::string("(no CFDs)\n") : out;
  }
  if (verb == "validate") return CmdValidate(args);
  if (verb == "mine") return CmdMine(args);
  if (verb == "detect") return CmdDetect(args);
  if (verb == "map") return CmdMap(args);
  if (verb == "report") return CmdReport(args);
  if (verb == "explore") return CmdExplore(args);
  if (verb == "clean") return CmdClean(args);
  if (verb == "diff") return CmdDiff();
  if (verb == "apply") return CmdApply();
  if (verb == "sql") return CmdSql(line.substr(verb.size()));
  return Status::InvalidArgument("unknown command '" + verb + "' (try: help)");
}

common::Result<std::string> Session::CmdLoad(const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: load NAME PATH");
  SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation rel,
                            relational::LoadRelationCsv(args[0], args[1]));
  SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(rel)));
  return "loaded " + args[0] + "\n";
}

common::Result<std::string> Session::CmdSave(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Status::InvalidArgument(
        "usage: save REL PATH [compact=N] [sync=always|batch(N)|none]");
  }
  size_t compact_after = 0;
  std::optional<storage::SyncPolicy> sync;
  SEMANDAQ_RETURN_IF_ERROR(ParseSaveOptions(args, 2, &compact_after, &sync));
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

common::Result<std::string> Session::CmdSaveDb(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: savedb DIR");
  SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.SaveDatabase(args[0]));
  return "saved " + std::to_string(stats.relations) + " relation(s) to " +
         args[0] + " (manifest " + stats.manifest_path + ")\n";
}

common::Result<std::string> Session::CmdOpenDb(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: opendb DIR");
  SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.OpenDatabase(args[0]));
  return "opened " + std::to_string(stats.relations) + " relation(s) from " +
         args[0] + " (" + std::to_string(stats.live_rows) + " tuples, +" +
         std::to_string(stats.wal_records) + " wal record(s))\n";
}

common::Result<std::string> Session::CmdOpen(const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: open NAME PATH");
  SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.OpenRelation(args[0], args[1]));
  return "opened " + args[0] + " from " + args[1] + " (" +
         std::to_string(stats.live_rows) + " tuples, " +
         std::to_string(stats.num_columns) + " columns, +" +
         std::to_string(stats.wal_records) + " wal record(s))\n";
}

common::Result<std::string> Session::CmdGen(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    return Status::InvalidArgument("usage: gen customer|hospital N NOISE%");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(size_t n, ParseCount(args[1]));
  SEMANDAQ_ASSIGN_OR_RETURN(size_t noise_pct, ParseCount(args[2]));
  const double noise = static_cast<double>(noise_pct) / 100.0;
  if (common::EqualsIgnoreCase(args[0], "customer")) {
    workload::CustomerWorkloadOptions opts;
    opts.num_tuples = n;
    opts.noise_rate = noise;
    auto wl = workload::CustomerGenerator::Generate(opts);
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.dirty)));
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.clean)));
    return "generated customer (+ customer_gold), " + std::to_string(n) +
           " tuples at " + args[2] + "% noise\n";
  }
  if (common::EqualsIgnoreCase(args[0], "hospital")) {
    workload::HospitalWorkloadOptions opts;
    opts.num_tuples = n;
    opts.noise_rate = noise;
    auto wl = workload::HospitalGenerator::Generate(opts);
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.dirty)));
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.clean)));
    return "generated hospital (+ hospital_gold), " + std::to_string(n) +
           " tuples at " + args[2] + "% noise\n";
  }
  return Status::InvalidArgument("unknown workload: " + args[0]);
}

common::Result<std::string> Session::CmdShow(const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("usage: show REL [N]");
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            sys_.database().GetRelation(args[0]));
  size_t n = 10;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, ParseCount(args[1]));
  }
  return rel->ToAsciiTable(n);
}

common::Result<std::string> Session::CmdCfd(std::string_view rest) {
  SEMANDAQ_RETURN_IF_ERROR(sys_.constraints().AddCfdsFromText(common::Trim(rest)));
  return "added; Sigma now has " + std::to_string(sys_.constraints().size()) +
         " CFD(s)\n";
}

common::Result<std::string> Session::CmdValidate(
    const std::vector<std::string>& args) {
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

common::Result<std::string> Session::CmdMine(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("usage: mine REL [threads=N] [simd=LEVEL]");
  }
  discovery::CfdMinerOptions options;
  for (size_t i = 1; i < args.size(); ++i) {
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(ParseSweepOption(
        args[i], &options.num_threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown mine option '" + args[i] +
          "' (usage: mine REL [threads=N] [simd=LEVEL])");
    }
  }
  SEMANDAQ_ASSIGN_OR_RETURN(size_t added, sys_.Discover(args[0], options));
  return "mined " + std::to_string(added) + " CFD(s) from " + args[0] +
         "; Sigma now has " + std::to_string(sys_.constraints().size()) +
         " CFD(s)\n";
}

common::Result<std::string> Session::CmdDetect(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: detect REL [sql] [threads=N] [simd=LEVEL]");
  }
  auto kind = Semandaq::DetectorKind::kNative;
  detect::DetectorOptions options = sys_.detector_options();
  bool native_opts_given = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (common::EqualsIgnoreCase(args[i], "sql")) {
      kind = Semandaq::DetectorKind::kSql;
      continue;
    }
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(ParseSweepOption(
        args[i], &options.num_threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown detect option '" + args[i] +
          "' (usage: detect REL [sql] [threads=N] [simd=LEVEL])");
    }
    native_opts_given = true;
  }
  if (kind == Semandaq::DetectorKind::kSql && native_opts_given) {
    return Status::InvalidArgument(
        "threads=/simd= apply to the native detector only");
  }
  if (kind == Semandaq::DetectorKind::kSql) {
    SEMANDAQ_ASSIGN_OR_RETURN(auto table, sys_.DetectErrors(args[0], kind));
    return table.Summary() + "\n";
  }
  // Only the summary is printed: count it, never build the table.
  SEMANDAQ_ASSIGN_OR_RETURN(auto counts, sys_.CountErrors(args[0], options));
  return counts.ToString() + "\n";
}

common::Result<std::string> Session::CmdMap(const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("usage: map REL [N]");
  size_t n = 20;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, ParseCount(args[1]));
  }
  return sys_.QualityMap(args[0], n);
}

common::Result<std::string> Session::CmdReport(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: report REL");
  SEMANDAQ_ASSIGN_OR_RETURN(auto report, sys_.Report(args[0]));
  return audit::AsciiRender::BarChart(report) + "\n" +
         audit::AsciiRender::PieChart(report) + "\n" +
         audit::AsciiRender::Statistics(report);
}

common::Result<std::string> Session::CmdExplore(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Status::InvalidArgument("usage: explore REL CFD# PAT#");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(size_t ci, ParseCount(args[1]));
  SEMANDAQ_ASSIGN_OR_RETURN(size_t pi, ParseCount(args[2]));
  SEMANDAQ_ASSIGN_OR_RETURN(auto explorer, sys_.Explore(args[0]));
  // Pick the dirtiest LHS automatically for the drill-down rendering.
  SEMANDAQ_ASSIGN_OR_RETURN(auto matches,
                            explorer->LhsMatches(static_cast<int>(ci),
                                                 static_cast<int>(pi)));
  if (matches.empty()) return std::string("(no tuples match this pattern)\n");
  return explorer->RenderDrilldown(static_cast<int>(ci), static_cast<int>(pi),
                                   matches.front().lhs);
}

common::Result<std::string> Session::CmdClean(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("usage: clean REL [threads=N] [simd=LEVEL]");
  }
  repair::RepairOptions options;
  for (size_t i = 1; i < args.size(); ++i) {
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(ParseSweepOption(
        args[i], &options.num_threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown clean option '" + args[i] +
          "' (usage: clean REL [threads=N] [simd=LEVEL])");
    }
  }
  SEMANDAQ_ASSIGN_OR_RETURN(auto repair, sys_.Clean(args[0], options));
  std::ostringstream out;
  out << "candidate repair: " << repair.changes.size() << " cell(s), cost "
      << repair.total_cost << ", " << repair.iterations << " round(s), "
      << repair.null_escapes << " NULL escape(s), remaining "
      << repair.remaining_violations << "\nuse 'diff' to review, 'apply' to commit\n";
  pending_repair_ = std::move(repair);
  pending_relation_ = args[0];
  return out.str();
}

common::Result<std::string> Session::CmdDiff() {
  if (!pending_repair_.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            sys_.database().GetRelation(pending_relation_));
  std::ostringstream out;
  out << "pending repair for '" << pending_relation_ << "':\n";
  for (const auto& ch : pending_repair_->changes) {
    out << "  #" << ch.tid << " " << rel->schema().attr(ch.col).name << ": "
        << ch.original.ToDisplayString() << " -> "
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

common::Result<std::string> Session::CmdApply() {
  if (!pending_repair_.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  SEMANDAQ_RETURN_IF_ERROR(sys_.ApplyRepair(pending_relation_, *pending_repair_));
  const size_t n = pending_repair_->changes.size();
  pending_repair_.reset();
  std::string out =
      "applied " + std::to_string(n) + " change(s) to " + pending_relation_;
  SEMANDAQ_ASSIGN_OR_RETURN(bool compacted, sys_.CompactIfDue(pending_relation_));
  if (compacted) out += " (snapshot compacted)";
  return out + "\n";
}

common::Result<std::string> Session::CmdSql(std::string_view query) {
  sql::Engine engine(&sys_.database());
  // Queries over relations with a warm encoded snapshot (saved/opened ones)
  // get the code-compiled scan/join/group fast paths; the executor
  // re-validates freshness itself, so a stale snapshot just falls back.
  engine.set_encoded_provider(
      [this](const relational::Relation* rel)
          -> const relational::EncodedRelation* {
        return sys_.WarmSnapshot(rel->name());
      });
  SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation result,
                            engine.Query(common::Trim(query)));
  return result.ToAsciiTable(50);
}

}  // namespace semandaq::core
