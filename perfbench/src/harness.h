// Shared plumbing for the Semandaq end-to-end benchmark: options, seeded
// input generation, the in-process service under test, latency statistics,
// output checking and the result format.
#ifndef SEMANDAQ_PERFBENCH_HARNESS_H_
#define SEMANDAQ_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "relational/relation.h"
#include "server/client.h"
#include "server/service.h"
#include "server/tcp_server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options shared by every mode.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Smoke sizes: small relations and short windows, for the self-test.
  bool tiny = false;
  /// Negative self-test: perturb every reference so each check must fail.
  bool corrupt_reference = false;
  /// Scratch directory for CSV inputs, snapshots and WALs.
  std::string work_dir;
  /// Host stamp fields supplied by the launcher.
  std::string build_type = "unknown";
  std::string git_sha = "unknown";
};

/// Input sizes and rates; `Sizes::For` derives them from the options.
struct Sizes {
  size_t hospital_rows = 64000;
  size_t customer_rows = 64000;
  double noise = 0.05;
  size_t detect_clients = 4;
  size_t ingest_readers = 2;
  /// The ingest writer: `batch_rows` rows every 1/batch_hz seconds.
  size_t batch_rows = 128;
  double batch_hz = 10;
  /// Set-up repetitions per run; setup_s is their median.
  int setup_reps = 9;
  /// Closed-loop warm-up before the measured window.
  double warmup_s = 1.0;
  /// Repetitions of each timed call in the traced run.
  int trace_reps = 5;

  static Sizes For(const Options& options);
};

/// Derives an independent 64-bit seed for stream `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// One metric as printed: by name, with its unit, and (for the traced run)
/// the end-to-end metric and workload it is expected to move.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string moves;
};

/// A run's outcome. `metrics` go into the final JSON line (the metrics
/// BENCHMARK.json names); `info` lines are printed above it for people.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  void Add(std::string name, double value, std::string unit,
           std::string moves = "");
  void Info(std::string name, double value, std::string unit,
            std::string moves = "");
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Counts attempted and failed operations across threads and keeps the
/// first failure's description.
class Checker {
 public:
  /// Records one operation; `ok` false counts it as failed with `what`.
  void Record(bool ok, const std::string& what = "");
  /// Records an operation whose output must equal `expected`.
  void Expect(const std::string& what, const std::string& got,
              const std::string& expected);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::string first_failure() const;
  void MergeInto(RunResult* result) const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::string first_failure_;
};

/// Percentile by nearest rank (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// One closed-loop request: when it was sent and when its response arrived.
struct Sample {
  Clock::time_point start;
  Clock::time_point done;
};

/// Latencies (ms) of the samples sent inside [t0, t_end).
std::vector<double> LatenciesIn(const std::vector<Sample>& samples,
                                Clock::time_point t0, Clock::time_point t_end);

/// Completions per second, as the median over `parts` equal slices of
/// [t0, t_end]: a stall of the shared host in one slice moves one of the
/// values the median is taken over, not the result.
double SlicedRate(const std::vector<Sample>& samples, Clock::time_point t0,
                  Clock::time_point t_end, int parts);

/// Times `fn` `reps` times and returns the median in milliseconds.
double MedianMs(int reps, const std::function<void()>& fn);

/// Peak resident set size of this process in MiB, and a reset of that peak
/// (so set-up and reference work do not count toward the measured window).
double PeakRssMb();
void ResetPeakRss();

/// Seeded inputs. Relations come from the workload generators at derived
/// seeds and reach the service only as CSV files.
struct Inputs {
  std::string hospital_csv;
  std::string customer_csv;
  std::string customer_gold_csv;
  std::string hospital_cfds;
  std::string customer_cfds;
};
Inputs WriteInputs(const Options& options, const Sizes& sizes, bool hospital,
                   bool customer);

/// `count` dirty hospital batches of `rows` rows each, seeded per batch.
std::vector<std::vector<semandaq::relational::Row>> HospitalBatches(
    const Options& options, size_t count, size_t rows);

/// Reference loaders: the relation exactly as the service's `load` reads
/// it, and a CFD set parsed and resolved against it.
semandaq::relational::Relation LoadCsvOrDie(const std::string& name,
                                            const std::string& path);
std::vector<semandaq::cfd::Cfd> ParseCfdsOrDie(
    const std::string& text, const semandaq::relational::Relation& rel);

/// The service under test behind its TCP front end, as semandaq_server
/// runs it.
struct Served {
  std::unique_ptr<semandaq::server::SemandaqService> service;
  std::unique_ptr<semandaq::server::TcpServer> tcp;
  semandaq::server::SemandaqService::SessionState session;

  /// In-process command; aborts the run on error (set-up only).
  std::string MustExecute(const std::string& command);
  void Stop();
};

/// Runs `build` `reps` times, each on a fresh service, and returns the
/// median wall time in seconds; `*out` keeps the last service.
double TimedSetup(int reps, const std::function<Served()>& build, Served* out);

/// Starts a TCP front end on an ephemeral loopback port.
void StartTcp(Served* served);

/// Loopback client for `served`; aborts if it cannot connect.
class Conn {
 public:
  explicit Conn(uint16_t port);
  /// Sends one command; returns false (with the error in *text) on any
  /// transport failure or non-ok response.
  bool Call(const std::string& command, std::string* text);

 private:
  std::unique_ptr<semandaq::server::Client> client_;
};

[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // SEMANDAQ_PERFBENCH_HARNESS_H_
