// The traced run: each layer's public functions, called from outside the
// program on the same seeded inputs the workloads use, timed one by one.
// Every metric names the end-to-end metric (and workload) it should move.
// Outputs are checked like the workloads' are.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "cfd/tableau_store.h"
#include "common/thread_pool.h"
#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "sql/engine.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "workloads.h"

namespace perfbench {

namespace rel = semandaq::relational;
namespace srv = semandaq::server;
namespace disc = semandaq::discovery;
namespace det = semandaq::detect;
namespace st = semandaq::storage;
using semandaq::common::Result;
using semandaq::common::Status;

namespace {

constexpr char kDetectServe[] = "detect_serve";
constexpr char kBatch[] = "batch_quality";
constexpr char kIngest[] = "ingest";

std::string Moves(const std::string& metric, const std::string& workload) {
  return metric + " (" + workload + ")";
}

template <typename T>
T MustOk(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

/// Median per-call microseconds of `fn`, timed over batches of `per_batch`
/// calls (single calls are too short for the clock).
double MedianUsPerCall(int batches, int per_batch, const std::function<void()>& fn) {
  return MedianMs(batches, [&] {
           for (int i = 0; i < per_batch; ++i) fn();
         }) * 1e3 / per_batch;
}

/// Counts fsyncs and WAL bytes: a pass-through over the default Env.
class CountingEnv : public st::Env {
 public:
  class File : public st::WritableFile {
   public:
    File(std::unique_ptr<st::WritableFile> base, CountingEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(std::string_view data) override {
      env_->bytes += data.size();
      return base_->Append(data);
    }
    Status Sync() override {
      ++env_->syncs;
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<st::WritableFile> base_;
    CountingEnv* env_;
  };

  Result<std::unique_ptr<st::WritableFile>> NewWritableFile(
      const std::string& path, OpenMode mode) override {
    auto f = base_->NewWritableFile(path, mode);
    if (!f.ok()) return f.status();
    return std::unique_ptr<st::WritableFile>(
        std::make_unique<File>(std::move(f).value(), this));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDirOf(const std::string& path) override {
    return base_->SyncDirOf(path);
  }

  uint64_t bytes = 0;
  uint64_t syncs = 0;

 private:
  st::Env* base_ = st::Env::Default();
};

size_t Lines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

// ------------------------------------------------------------------ relational

void TraceRelational(const Options& options, const Sizes& sizes,
                     const Inputs& in, RunResult* out) {
  const int reps = sizes.trace_reps;
  out->Add("relational.csv_load_ms", MedianMs(reps, [&] {
             (void)LoadCsvOrDie("hospital", in.hospital_csv);
           }), "ms", Moves("setup_s", "all"));
  rel::Relation hospital = LoadCsvOrDie("hospital", in.hospital_csv);
  out->Add("relational.encode_ms", MedianMs(reps, [&] {
             rel::EncodedRelation enc(&hospital);
           }), "ms", Moves("setup_s", "all"));

  // Sync after one appended batch, as each ingest append does.
  const auto batches = HospitalBatches(options, reps, sizes.batch_rows);
  rel::EncodedRelation enc(&hospital);
  std::vector<double> sync_ms;
  for (const auto& batch : batches) {
    for (const rel::Row& row : batch) hospital.MustInsert(row);
    const auto t0 = Clock::now();
    enc.Sync();
    sync_ms.push_back(MsBetween(t0, Clock::now()));
  }
  out->Add("relational.sync_ms", Median(sync_ms), "ms", Moves("p50_ms", kIngest));
}

// ---------------------------------------------------------------------- detect

void TraceDetect(const Sizes& sizes, const Inputs& in,
                 semandaq::common::ThreadPool* pool4, Checker* checker,
                 RunResult* out) {
  const int reps = 3 * sizes.trace_reps;
  const rel::Relation hospital = LoadCsvOrDie("hospital", in.hospital_csv);
  const auto cfds = ParseCfdsOrDie(in.hospital_cfds, hospital);
  const rel::EncodedRelation enc(&hospital);
  std::vector<semandaq::cfd::Cfd> constant, variable;
  for (const auto& c : cfds) {
    const bool all_const = std::all_of(
        c.tableau().begin(), c.tableau().end(),
        [](const auto& row) { return row.is_constant_rhs(); });
    (all_const ? constant : variable).push_back(c);
  }

  auto detect = [&](const std::vector<semandaq::cfd::Cfd>& sigma,
                    semandaq::common::ThreadPool* pool) {
    det::DetectorOptions o;
    o.num_threads = pool == nullptr ? 1 : pool->num_threads();
    det::NativeDetector d(&hospital, sigma, o);
    d.set_encoded(&enc);
    d.set_thread_pool(pool);
    return MustOk(d.Detect(), "detect");
  };
  const det::ViolationTable table = detect(cfds, nullptr);
  const std::string expected = table.Summary();

  const std::string to = Moves("p50_ms", kDetectServe) + ", " +
                         Moves("qps", kIngest);
  out->Add("detect.native_ms", MedianMs(reps, [&] {
             checker->Expect("detect.native", detect(cfds, nullptr).Summary(),
                             expected);
           }), "ms", to);
  out->Add("detect.const_ms", MedianMs(reps, [&] {
             (void)detect(constant, nullptr);
           }), "ms", to);
  out->Add("detect.variable_ms", MedianMs(reps, [&] {
             (void)detect(variable, nullptr);
           }), "ms", to);
  out->Add("detect.sharded4_ms", MedianMs(reps, [&] {
             checker->Expect("detect.sharded4", detect(cfds, pool4).Summary(),
                             expected);
           }), "ms", to);
  std::string summary;
  out->Add("detect.summary_us",
           MedianUsPerCall(reps, 100, [&] { summary = table.Summary(); }), "us",
           to);
  out->Add("detect.vio_pairs", static_cast<double>(table.TotalVio()), "count");
  out->Add("detect.groups", static_cast<double>(table.groups().size()), "count");
  out->Add("detect.singles", static_cast<double>(table.singles().size()),
           "count");
}

// ---------------------------------------------------------------------- server

void TraceServer(const Options& options, const Sizes& sizes, const Inputs& in,
                 Checker* checker, RunResult* out) {
  const int reps = 3 * sizes.trace_reps;
  Served served;
  served.service = std::make_unique<srv::SemandaqService>();
  served.MustExecute("load hospital " + in.hospital_csv);
  served.MustExecute("cfd " + in.hospital_cfds);
  StartTcp(&served);
  std::string expected;
  {
    const rel::Relation reference = LoadCsvOrDie("hospital", in.hospital_csv);
    expected = SerialDetectSummary(
        reference, ParseCfdsOrDie(in.hospital_cfds, reference));
  }

  out->Add("server.execute_detect_ms", MedianMs(reps, [&] {
             auto r = served.service->Execute(&served.session, kDetectCommand);
             checker->Expect(std::string("Execute(") + kDetectCommand + ")",
                             r.ok() ? *r : r.status().ToString(), expected);
           }), "ms", Moves("p50_ms", kDetectServe));
  out->Add("server.pin_us", MedianUsPerCall(reps, 10000, [&] {
             if (served.service->Pin("hospital") == nullptr) Die("Pin failed");
           }), "us", Moves("qps", kIngest));
  // The lane-leasing path; the workloads' threads=1 requests skip it.
  out->Add("server.lease_us", MedianUsPerCall(reps, 10000, [&] {
             srv::ThreadLease lease = served.service->scheduler().Acquire(0);
           }), "us", Moves("p50_ms", kBatch));
  {
    Conn conn(served.tcp->port());
    const std::string epoch = served.MustExecute("epoch hospital");
    std::string text;
    out->Add("server.rtt_epoch_us", MedianUsPerCall(reps, 200, [&] {
               if (!conn.Call("epoch hospital", &text)) Die("epoch: " + text);
             }), "us", Moves("qps", kDetectServe));
    checker->Expect("epoch hospital", text, epoch);
  }
  served.Stop();

  // AppendBatch on a relation that was never saved: publish cost alone.
  const auto batches = HospitalBatches(options, reps, sizes.batch_rows);
  std::vector<double> append_ms;
  for (const auto& batch : batches) {
    const auto t0 = Clock::now();
    auto appended = served.service->AppendBatch("hospital", batch);
    append_ms.push_back(MsBetween(t0, Clock::now()));
    checker->Record(appended.ok() && *appended == batch.size(),
                    "AppendBatch (unsaved)");
  }
  out->Add("server.append_publish_ms", Median(append_ms), "ms",
           Moves("p50_ms", kIngest));
}

// --------------------------------------------------------------------- storage

void TraceStorage(const Options& options, const Sizes& sizes, const Inputs& in,
                  Checker* checker, RunResult* out) {
  const int reps = sizes.trace_reps;
  const auto batches = HospitalBatches(options, 1, sizes.batch_rows);
  const std::vector<rel::Row>& rows = batches.front();
  uint64_t user_bytes = 0;
  for (const rel::Row& row : rows) {
    for (const rel::Value& v : row) user_bytes += v.ToDisplayString().size();
  }

  // Per-record WAL append cost under both ends of the sync policy.
  CountingEnv counting;
  st::Env::Set(&counting);
  auto per_record_us = [&](st::SyncPolicy::Mode mode, const std::string& name,
                           uint64_t* wal_bytes) {
    st::SyncPolicy policy;
    policy.mode = mode;
    const std::string path = options.work_dir + "/" + name + ".wal";
    st::WalWriter wal = MustOk(st::WalWriter::Create(path, 1, policy), "WAL");
    const uint64_t bytes0 = counting.bytes;
    std::vector<double> us;
    for (const rel::Row& row : rows) {
      const auto t0 = Clock::now();
      MustOk(wal.AppendInsert(row), "WAL append");
      us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    }
    *wal_bytes = counting.bytes - bytes0;
    return Median(us);
  };
  uint64_t always_bytes = 0, none_bytes = 0;
  const uint64_t syncs0 = counting.syncs;
  const double always_us =
      per_record_us(st::SyncPolicy::Mode::kAlways, "always", &always_bytes);
  const uint64_t fsyncs = counting.syncs - syncs0;
  const double none_us =
      per_record_us(st::SyncPolicy::Mode::kNone, "none", &none_bytes);
  st::Env::Set(nullptr);
  // sync=always: the header's fsync at Create, then one per record.
  checker->Record(always_bytes == none_bytes && fsyncs == rows.size() + 1,
                  "WAL: one fsync per record under sync=always");
  out->Add("storage.wal_append_always_us", always_us, "us",
           Moves("p50_ms", kIngest));
  out->Add("storage.wal_append_none_us", none_us, "us", Moves("p50_ms", kIngest));
  out->Add("storage.wal_bytes_per_user_byte",
           static_cast<double>(always_bytes) / static_cast<double>(user_bytes),
           "ratio", Moves("p50_ms", kIngest));
  out->Add("storage.fsyncs", static_cast<double>(fsyncs), "count",
           Moves("p50_ms", kIngest));

  // Snapshot save (the compaction path) and open.
  const std::string path = options.work_dir + "/trace.snap";
  std::string expected;
  {
    semandaq::core::Semandaq sys;
    MustOk(sys.Connect(LoadCsvOrDie("hospital", in.hospital_csv)), "connect");
    MustOk(sys.constraints().AddCfdsFromText(in.hospital_cfds), "cfds");
    expected = MustOk(sys.DetectErrors("hospital"), "detect").Summary();
    out->Add("storage.snapshot_save_ms", MedianMs(reps, [&] {
               MustOk(sys.SaveRelation("hospital", path), "save");
             }), "ms", Moves("p90_ms", kIngest) + ", " + Moves("setup_s", kIngest));
  }
  std::unique_ptr<semandaq::core::Semandaq> last;
  out->Add("storage.snapshot_open_ms", MedianMs(reps, [&] {
             last = std::make_unique<semandaq::core::Semandaq>();
             MustOk(last->OpenRelation("hospital", path), "open");
           }), "ms", Moves("setup_s", kIngest));
  MustOk(last->constraints().AddCfdsFromText(in.hospital_cfds), "cfds");
  checker->Expect("detect after snapshot open",
                  MustOk(last->DetectErrors("hospital"), "detect").Summary(),
                  expected);
}

// ------------------------------------------------------------------- discovery

void TraceDiscovery(const Sizes& sizes, const Inputs& in,
                    semandaq::common::ThreadPool* pool4, Checker* checker,
                    RunResult* out) {
  const int reps = std::max(1, sizes.trace_reps - 2);
  const rel::Relation gold = LoadCsvOrDie("customer_gold", in.customer_gold_csv);
  const rel::EncodedRelation enc(&gold);
  const size_t ncols = gold.schema().size();
  const std::string to = Moves("p50_ms", kBatch);

  // Bases, then the level-wise FD sweep timed through its after_level hook.
  std::vector<double> bases_ms;
  std::vector<std::vector<double>> level_ms(3);
  std::vector<size_t> intersects(3, 0);
  for (int r = 0; r < reps; ++r) {
    disc::PartitionCache cache(&gold, &enc);
    auto t = Clock::now();
    cache.BuildBases(ncols, pool4);
    auto now = Clock::now();
    bases_ms.push_back(MsBetween(t, now));
    t = now;
    size_t builds = cache.builds();
    disc::FdMinerOptions o;
    o.num_threads = pool4->num_threads();
    o.pool = pool4;
    disc::FdMiner miner(&gold, o);
    miner.Mine(&cache, pool4,
               [&](size_t level, const std::vector<disc::DiscoveredFd>&) {
                 now = Clock::now();
                 if (level >= 1 && level <= 3) {
                   level_ms[level - 1].push_back(MsBetween(t, now));
                   intersects[level - 1] = cache.builds() - builds;
                 }
                 builds = cache.builds();
                 t = now;
               });
  }
  out->Add("discovery.bases_ms", Median(bases_ms), "ms", to);
  for (size_t l = 0; l < 3; ++l) {
    const std::string n = std::to_string(l + 1);
    out->Add("discovery.level" + n + "_ms", Median(level_ms[l]), "ms", to);
  }
  for (size_t l = 0; l < 3; ++l) {
    out->Add("discovery.intersects.level" + std::to_string(l + 1),
             static_cast<double>(intersects[l]), "count", to);
  }

  std::vector<disc::DiscoveredFd> serial_fds;
  out->Add("discovery.fd_mine_serial_ms", MedianMs(reps, [&] {
             serial_fds = disc::FdMiner(&gold).Mine();
           }), "ms", to);
  out->Add("discovery.fd_mine_4_ms", MedianMs(reps, [&] {
             disc::FdMinerOptions o;
             o.num_threads = pool4->num_threads();
             o.pool = pool4;
             checker->Record(disc::FdMiner(&gold, o).Mine().size() ==
                                 serial_fds.size(),
                             "FdMiner at 4 lanes differs from serial");
           }), "ms", to);

  std::string serial_listing;
  size_t mined = 0;
  for (const auto& c : MustOk(disc::CfdMiner(&gold).Mine(), "mine")) {
    serial_listing += c.ToString() + "\n";
    ++mined;
  }
  out->Add("discovery.cfd_mine_ms", MedianMs(reps, [&] {
             disc::CfdMinerOptions o;
             o.num_threads = pool4->num_threads();
             o.pool = pool4;
             std::string listing;
             for (const auto& c : MustOk(disc::CfdMiner(&gold, o).Mine(), "mine")) {
               listing += c.ToString() + "\n";
             }
             checker->Expect("CfdMiner at 4 lanes", listing, serial_listing);
           }), "ms", to);
  out->Add("discovery.mined_cfds", static_cast<double>(mined), "count", to);
}

// ------------------------------------------------------------------ sql, repair

void TraceSqlAndRepair(const Sizes& sizes, const Inputs& in,
                       semandaq::common::ThreadPool* pool4, Checker* checker,
                       RunResult* out) {
  const int reps = std::max(1, sizes.trace_reps - 2);
  const std::string to = Moves("p50_ms", kBatch);
  rel::Database db;
  MustOk(db.AddRelation(LoadCsvOrDie("customer", in.customer_csv)), "add");
  const rel::Relation& customer = *db.FindRelation("customer");
  const auto cfds = ParseCfdsOrDie(in.customer_cfds, customer);
  const std::string native = SerialDetectSummary(customer, cfds);

  // The paper's detector end to end, checked against native detect.
  std::vector<det::DetectionQueries> queries;
  std::vector<semandaq::cfd::Cfd> resolved;
  out->Add("detect.sql_ms", MedianMs(reps, [&] {
             det::SqlDetector d(&db, "customer", cfds);
             checker->Expect("SqlDetector vs native",
                             MustOk(d.Detect(), "sql detect").Summary() + "\n",
                             native);
             queries = d.queries();
             resolved = d.cfds();
           }), "ms", to);

  // Its Q_C / Q_V queries one by one, against the same stored tableaux.
  std::vector<double> qc_ms, qv_ms;
  size_t query_calls = 0;
  for (int r = 0; r < reps; ++r) {
    MustOk(semandaq::cfd::TableauStore::Store(resolved, &db), "tableau store");
    semandaq::sql::Engine engine(&db);
    double qc = 0, qv = 0;
    query_calls = 0;
    for (const det::DetectionQueries& q : queries) {
      if (q.has_constant_rows) {
        const auto t0 = Clock::now();
        MustOk(engine.Query(q.qc, "qc"), "Q_C");
        qc += MsBetween(t0, Clock::now());
        ++query_calls;
      }
      if (q.has_variable_rows) {
        auto t0 = Clock::now();
        rel::Relation keys = MustOk(engine.Query(q.qv_keys, q.keys_relation),
                                    "Q_V keys");
        qv += MsBetween(t0, Clock::now());
        ++query_calls;
        if (keys.empty()) continue;
        db.PutRelation(std::move(keys));
        t0 = Clock::now();
        MustOk(engine.Query(q.qv_members, "qv_members"), "Q_V members");
        qv += MsBetween(t0, Clock::now());
        ++query_calls;
        MustOk(db.DropRelation(q.keys_relation), "drop keys");
      }
    }
    semandaq::cfd::TableauStore::Clear(&db);
    qc_ms.push_back(qc);
    qv_ms.push_back(qv);
  }
  out->Add("sql.qc_ms", Median(qc_ms), "ms", to);
  out->Add("sql.qv_ms", Median(qv_ms), "ms", to);
  out->Add("sql.queries", static_cast<double>(query_calls), "count", to);

  // Repair: 4 lanes on a reused pool, and one round alone.
  semandaq::repair::RepairResult serial = MustOk(
      semandaq::repair::BatchRepair(
          &customer, cfds, semandaq::repair::CostModel(customer.schema(), {}))
          .Run(),
      "repair");
  const std::string expected = CleanResponseText(serial);
  auto repair = [&](int max_iterations) {
    semandaq::repair::RepairOptions o;
    o.num_threads = pool4->num_threads();
    o.pool = pool4;
    o.max_iterations = max_iterations;
    return MustOk(semandaq::repair::BatchRepair(
                      &customer, cfds,
                      semandaq::repair::CostModel(customer.schema(), {}), o)
                      .Run(),
                  "repair");
  };
  out->Add("repair.batch_ms", MedianMs(reps, [&] {
             checker->Expect("BatchRepair at 4 lanes",
                             CleanResponseText(repair(16)), expected);
           }), "ms", to);
  out->Add("repair.round1_ms", MedianMs(reps, [&] { (void)repair(1); }), "ms", to);
  out->Add("repair.rounds", serial.iterations, "count", to);
  out->Add("repair.cells", static_cast<double>(serial.changes.size()), "count",
           to);
  // Zero on these inputs, so printed but kept out of the per-layer set.
  out->Info("repair.null_escapes", static_cast<double>(serial.null_escapes),
            "count", to);
}

// ------------------------------------------------------ service, batch requests

void TraceServiceBatch(const Sizes& sizes, const Inputs& in, Checker* checker,
                       RunResult* out) {
  const int reps = std::max(1, sizes.trace_reps - 2);
  const std::string to = Moves("p50_ms", kBatch);
  Served served;
  served.service = std::make_unique<srv::SemandaqService>();
  served.MustExecute("load customer " + in.customer_csv);
  served.MustExecute("load customer_gold " + in.customer_gold_csv);
  served.MustExecute("cfd " + in.customer_cfds);
  const size_t base = Lines(served.MustExecute("cfds"));
  size_t mined = 0;
  int mines = 0;
  auto exec = [&](const std::string& command) {
    auto r = served.service->Execute(&served.session, command);
    checker->Record(r.ok(), command + ": " + r.status().ToString());
    return r.ok() ? *r : std::string();
  };
  out->Add("server.execute_mine_ms", MedianMs(reps, [&] {
             const std::string text = exec("mine customer_gold threads=1");
             if (text.rfind("mined ", 0) == 0) {
               mined = std::strtoul(text.c_str() + 6, nullptr, 10);
               ++mines;
             }
           }), "ms", to);
  out->Add("server.execute_clean_ms", MedianMs(reps, [&] {
             (void)exec("clean customer threads=1");
           }), "ms", to);
  out->Add("server.execute_sql_detect_ms", MedianMs(reps, [&] {
             (void)exec("detect customer sql");
           }), "ms", to);
  // Repeated `mine` re-appends the same CFDs to Sigma; the count shows it.
  const size_t sigma = Lines(served.MustExecute("cfds"));
  checker->Record(sigma == base + static_cast<size_t>(mines) * mined,
                  "Sigma size after repeated mine");
  out->Add("discovery.sigma_size_end", static_cast<double>(sigma), "count", to);
}

// ------------------------------------------------- ingest generator validity

void TraceGenLate(const Options& options, const Sizes& sizes, const Inputs& in,
                  Checker* checker, RunResult* out) {
  // A short ingest schedule (writer + 2 readers): how late the open-loop
  // writer ran against its due times.
  const size_t n = static_cast<size_t>(sizes.batch_hz * 2);
  const auto batches = HospitalBatches(options, n, sizes.batch_rows);
  Served served;
  served.service = std::make_unique<srv::SemandaqService>();
  served.MustExecute("load hospital " + in.hospital_csv);
  served.MustExecute("cfd " + in.hospital_cfds);
  served.MustExecute("save hospital " + options.work_dir +
                     "/gen_late.snap sync=" + std::string(kIngestSync));
  StartTcp(&served);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < sizes.ingest_readers; ++r) {
    readers.emplace_back([&] {
      Conn conn(served.tcp->port());
      std::string text;
      while (!stop.load()) {
        checker->Record(conn.Call(kDetectCommand, &text),
                        std::string(kDetectCommand) + ": " + text);
      }
    });
  }
  std::vector<double> late_ms;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(i / sizes.batch_hz));
    std::this_thread::sleep_until(due);
    late_ms.push_back(MsBetween(due, Clock::now()));
    checker->Record(served.service->AppendBatch("hospital", batches[i]).ok(),
                    "AppendBatch");
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  served.Stop();
  out->Add("bench.gen_late_p99_ms", Percentile(late_ms, 0.99), "ms",
           "validity of p50_ms/p90_ms (ingest), not a target");
}

}  // namespace

RunResult RunTrace(const Options& options) {
  const Sizes sizes = Sizes::For(options);
  const Inputs in = WriteInputs(options, sizes, /*hospital=*/true,
                                /*customer=*/true);
  // One 4-lane pool, built once and reused by every parallel call.
  semandaq::common::ThreadPool pool4(4);
  Checker checker;
  RunResult result;
  TraceRelational(options, sizes, in, &result);
  TraceDetect(sizes, in, &pool4, &checker, &result);
  TraceServer(options, sizes, in, &checker, &result);
  TraceStorage(options, sizes, in, &checker, &result);
  TraceDiscovery(sizes, in, &pool4, &checker, &result);
  TraceSqlAndRepair(sizes, in, &pool4, &checker, &result);
  TraceServiceBatch(sizes, in, &checker, &result);
  TraceGenLate(options, sizes, in, &checker, &result);
  checker.MergeInto(&result);
  return result;
}

}  // namespace perfbench
