#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "cfd/cfd_parser.h"
#include "relational/csv_io.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace perfbench {

namespace rel = semandaq::relational;
namespace wl = semandaq::workload;
namespace srv = semandaq::server;

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Sizes Sizes::For(const Options& options) {
  Sizes s;
  if (options.tiny) {
    s.hospital_rows = 2000;
    s.customer_rows = 2000;
    s.batch_rows = 32;
    s.setup_reps = 1;
    s.warmup_s = 0.1;
    s.trace_reps = 1;
  }
  return s;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams never share a seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void RunResult::Add(std::string name, double value, std::string unit,
                    std::string moves) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(moves)});
}

void RunResult::Info(std::string name, double value, std::string unit,
                     std::string moves) {
  info.push_back({std::move(name), value, std::move(unit), std::move(moves)});
}

void Checker::Record(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (ok) return;
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_failure_.empty()) first_failure_ = what;
}

void Checker::Expect(const std::string& what, const std::string& got,
                     const std::string& expected) {
  const bool ok = got == expected;
  Record(ok, ok ? std::string()
                : what + ": got [" + got.substr(0, 300) + "] expected [" +
                      expected.substr(0, 300) + "]");
}

std::string Checker::first_failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failure_;
}

void Checker::MergeInto(RunResult* result) const {
  result->attempted += attempted();
  result->failed += failed();
  if (result->first_failure.empty()) result->first_failure = first_failure();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::vector<double> LatenciesIn(const std::vector<Sample>& samples,
                                Clock::time_point t0, Clock::time_point t_end) {
  std::vector<double> ms;
  for (const Sample& s : samples) {
    if (s.start >= t0 && s.start < t_end) ms.push_back(MsBetween(s.start, s.done));
  }
  return ms;
}

double SlicedRate(const std::vector<Sample>& samples, Clock::time_point t0,
                  Clock::time_point t_end, int parts) {
  std::vector<double> rates;
  for (int p = 0; p < parts; ++p) {
    const auto a = t0 + (t_end - t0) * p / parts;
    const auto b = t0 + (t_end - t0) * (p + 1) / parts;
    const auto n = std::count_if(samples.begin(), samples.end(),
                                 [&](const Sample& s) {
                                   return s.done >= a && s.done < b;
                                 });
    rates.push_back(static_cast<double>(n) / (MsBetween(a, b) / 1e3));
  }
  return Median(std::move(rates));
}

double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(std::move(ms));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0). Where that is not
  // permitted the peak simply includes set-up.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

namespace {

void WriteCsvOrDie(const rel::Relation& relation, const std::string& path) {
  const semandaq::common::Status st = rel::SaveRelationCsv(relation, path);
  if (!st.ok()) Die("writing " + path + ": " + st.ToString());
}

}  // namespace

Inputs WriteInputs(const Options& options, const Sizes& sizes, bool hospital,
                   bool customer) {
  Inputs in;
  in.hospital_cfds = wl::HospitalGenerator::HospitalCfds();
  in.customer_cfds = wl::CustomerGenerator::PaperCfds();
  if (hospital) {
    wl::HospitalWorkloadOptions o;
    o.num_tuples = sizes.hospital_rows;
    o.noise_rate = sizes.noise;
    o.seed = DeriveSeed(options.seed, 1);
    const wl::HospitalWorkload w = wl::HospitalGenerator::Generate(o);
    in.hospital_csv = options.work_dir + "/hospital.csv";
    WriteCsvOrDie(w.dirty, in.hospital_csv);
  }
  if (customer) {
    wl::CustomerWorkloadOptions o;
    o.num_tuples = sizes.customer_rows;
    o.noise_rate = sizes.noise;
    o.seed = DeriveSeed(options.seed, 2);
    const wl::CustomerWorkload w = wl::CustomerGenerator::Generate(o);
    in.customer_csv = options.work_dir + "/customer.csv";
    in.customer_gold_csv = options.work_dir + "/customer_gold.csv";
    WriteCsvOrDie(w.dirty, in.customer_csv);
    WriteCsvOrDie(w.clean, in.customer_gold_csv);
  }
  return in;
}

std::vector<std::vector<rel::Row>> HospitalBatches(const Options& options,
                                                   size_t count, size_t rows) {
  std::vector<std::vector<rel::Row>> batches;
  batches.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    wl::HospitalWorkloadOptions o;
    o.num_tuples = rows;
    o.noise_rate = Sizes::For(options).noise;
    o.seed = DeriveSeed(options.seed, 1000 + i);
    const wl::HospitalWorkload w = wl::HospitalGenerator::Generate(o);
    std::vector<rel::Row> batch;
    w.dirty.ForEach([&](rel::TupleId, const rel::Row& row) {
      batch.push_back(row);
    });
    batches.push_back(std::move(batch));
  }
  return batches;
}

rel::Relation LoadCsvOrDie(const std::string& name, const std::string& path) {
  auto loaded = rel::LoadRelationCsv(name, path);
  if (!loaded.ok()) Die("loading " + path + ": " + loaded.status().ToString());
  return std::move(loaded).value();
}

std::vector<semandaq::cfd::Cfd> ParseCfdsOrDie(const std::string& text,
                                               const rel::Relation& relation) {
  auto parsed = semandaq::cfd::ParseCfdSet(text);
  if (!parsed.ok()) Die("parsing CFDs: " + parsed.status().ToString());
  std::vector<semandaq::cfd::Cfd> cfds = std::move(parsed).value();
  const semandaq::common::Status st =
      semandaq::cfd::ResolveAll(&cfds, relation.schema());
  if (!st.ok()) Die("resolving CFDs: " + st.ToString());
  return cfds;
}

std::string Served::MustExecute(const std::string& command) {
  auto out = service->Execute(&session, command);
  if (!out.ok()) {
    Die("'" + command.substr(0, 80) + "' failed: " + out.status().ToString());
  }
  return std::move(out).value();
}

void Served::Stop() {
  if (tcp != nullptr) {
    tcp->Shutdown();
    tcp->Wait();
    tcp.reset();
  }
}

double TimedSetup(int reps, const std::function<Served()>& build, Served* out) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    // Tear the previous service down before timing the next one, so each
    // repetition starts from the same (empty) process state.
    out->Stop();
    *out = Served();
    const auto t0 = Clock::now();
    *out = build();
    secs.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return Median(std::move(secs));
}

void StartTcp(Served* served) {
  srv::TcpServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;
  served->tcp = std::make_unique<srv::TcpServer>(served->service.get(), opts);
  const semandaq::common::Status st = served->tcp->Start();
  if (!st.ok()) Die("starting the TCP server: " + st.ToString());
}

Conn::Conn(uint16_t port) {
  auto c = srv::Client::Connect("127.0.0.1", port);
  if (!c.ok()) Die("connecting: " + c.status().ToString());
  client_ = std::make_unique<srv::Client>(std::move(c).value());
}

bool Conn::Call(const std::string& command, std::string* text) {
  auto r = client_->Call(command);
  if (!r.ok()) {
    *text = "transport: " + r.status().ToString();
    return false;
  }
  *text = std::move(r->text);
  return r->ok;
}

}  // namespace perfbench
