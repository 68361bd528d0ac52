// semandaq_perfbench: the repository's end-to-end benchmark.
//
//   semandaq_perfbench --workload detect_serve|batch_quality|ingest
//                      --seed N --seconds S --trace 0|1 --work-dir DIR
//                      [--tiny] [--corrupt-reference]
//                      [--build-type T] [--git-sha SHA]
//
// --trace 0 runs the workload and reports the end-to-end metrics; --trace 1
// runs the traced per-layer mode instead. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the lines above it are the
// host stamp and every metric by name and unit. Exit code 0 only when every
// checked output matched its reference. Normally launched by run.py.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>

#include "common/simd/simd.h"
#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Die;
using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

std::string Number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  auto value = [&](int* i) -> std::string {
    if (*i + 1 >= argc) Die(std::string("missing value for ") + argv[*i]);
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      o.workload = value(&i);
    } else if (a == "--seed") {
      o.seed = std::strtoull(value(&i).c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(value(&i).c_str());
    } else if (a == "--trace") {
      o.trace = value(&i) == "1";
    } else if (a == "--work-dir") {
      o.work_dir = value(&i);
    } else if (a == "--build-type") {
      o.build_type = value(&i);
    } else if (a == "--git-sha") {
      o.git_sha = value(&i);
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      Die("unknown argument " + a);
    }
  }
  if (o.workload != "detect_serve" && o.workload != "batch_quality" &&
      o.workload != "ingest") {
    Die("--workload must be detect_serve, batch_quality or ingest");
  }
  if (o.seconds < 1) Die("--seconds must be >= 1");
  if (o.work_dir.empty()) Die("--work-dir is required");
  return o;
}

void PrintHostStamp(const Options& o) {
  namespace simd = semandaq::common::simd;
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  const bool release = o.build_type == "Release";
  std::printf(
      "# host {\"nproc\": %u, \"build_type\": \"%s\", \"release\": %s, "
      "\"git_sha\": \"%s\", \"simd\": \"%s\", \"wal_sync\": \"%s\", "
      "\"date\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %d, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonEscape(o.build_type).c_str(),
      release ? "true" : "false", JsonEscape(o.git_sha).c_str(),
      std::string(simd::LevelName(simd::ActiveLevel())).c_str(),
      o.trace ? "always and none (per layer)"
              : o.workload == "ingest" ? perfbench::kIngestSync : "n/a",
      date,
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0);
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: WARNING: build type is '%s', not Release; "
                 "timings are not comparable\n",
                 o.build_type.c_str());
  }
}

void PrintLine(const char* kind, const Metric& m) {
  std::printf("# %s %-36s %14s %-8s%s%s\n", kind, m.name.c_str(),
              Number(m.value).c_str(), m.unit.c_str(),
              m.moves.empty() ? "" : " -> ", m.moves.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  PrintHostStamp(options);
  std::fflush(stdout);

  RunResult result;
  if (options.trace) {
    result = perfbench::RunTrace(options);
  } else if (options.workload == "detect_serve") {
    result = perfbench::RunDetectServe(options);
  } else if (options.workload == "batch_quality") {
    result = perfbench::RunBatchQuality(options);
  } else {
    result = perfbench::RunIngest(options);
  }

  for (const Metric& m : result.info) PrintLine("info  ", m);
  for (const Metric& m : result.metrics) PrintLine("metric", m);
  if (!result.first_failure.empty()) {
    std::printf("# first failure: %s\n", result.first_failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
