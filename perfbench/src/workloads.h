// Entry points of the benchmark's modes: the three end-to-end workloads
// (untimed layers, tracing off) and the traced per-layer run.
#ifndef SEMANDAQ_PERFBENCH_WORKLOADS_H_
#define SEMANDAQ_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "harness.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"

namespace perfbench {

/// WAL flush policy of the ingest workload's relation: the server default.
constexpr char kIngestSync[] = "always";

/// The detect request of `detect_serve`, the `ingest` readers and the traced
/// `server.execute_detect_ms`. Serial: at the default threads=0 the first
/// concurrent request leases every free lane, so 4 connections ran up to 8
/// busy threads on 4 cores and each request's lanes depended on timing.
/// The sharded path is timed per layer (`detect.sharded4_ms`).
constexpr char kDetectCommand[] = "detect hospital threads=1";

/// 4 loopback connections send kDetectCommand back to back.
RunResult RunDetectServe(const Options& options);
/// One connection repeats serial mine / clean / detect sql on the customer
/// data.
RunResult RunBatchQuality(const Options& options);
/// An open-loop writer appends through AppendBatch to a WAL-backed
/// relation while 2 loopback readers send kDetectCommand. Not in BENCHMARK.json:
/// its figures follow the host's fsync latency and stalls (perfbench/README.md).
RunResult RunIngest(const Options& options);
/// Times each layer's public functions from outside, on the same inputs.
RunResult RunTrace(const Options& options);

/// The `detect` response a serial NativeDetector gives (optionally over an
/// already-encoded relation).
std::string SerialDetectSummary(const semandaq::relational::Relation& relation,
                                const std::vector<semandaq::cfd::Cfd>& cfds,
                                const semandaq::relational::EncodedRelation*
                                    encoded = nullptr);

/// The `clean` response text for a repair result.
std::string CleanResponseText(const semandaq::repair::RepairResult& result);

}  // namespace perfbench

#endif  // SEMANDAQ_PERFBENCH_WORKLOADS_H_
