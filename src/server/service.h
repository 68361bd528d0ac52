#ifndef SEMANDAQ_SERVER_SERVICE_H_
#define SEMANDAQ_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/epoch.h"
#include "core/semandaq.h"
#include "repair/batch_repair.h"
#include "server/scheduler.h"

namespace semandaq::server {

/// Service construction knobs.
struct ServiceOptions {
  /// Worker-lane budget shared by all concurrent requests (0 = hardware
  /// thread count). See RequestScheduler.
  size_t scheduler_lanes = 0;
  /// Default WAL durability for save/savedb (overridable per save command
  /// with sync=MODE). See storage::SyncPolicy and docs/robustness.md.
  storage::SyncPolicy wal_sync;
  /// Cost-aware admission control (docs/robustness.md): per-class
  /// concurrency caps and bounded queues, shedding with busy + retry
  /// hint past them. Disabled by default.
  AdmissionOptions admission;
};

/// Monotonic service counters, exposed by the `stats` command and bumped
/// by the service and its transport (the TcpServer watchdog owns the
/// timeout/cancel events). All relaxed atomics: ops data, not barriers.
struct ServiceStats {
  /// Requests shed by admission control with a busy response.
  std::atomic<uint64_t> sheds{0};
  /// Requests cancelled by the watchdog for running past their deadline.
  std::atomic<uint64_t> timeouts{0};
  /// Requests cancelled by a client CANCEL frame or a dead connection.
  std::atomic<uint64_t> cancels{0};
  /// Epoch pins handed to read requests (Pin calls that found a snapshot).
  std::atomic<uint64_t> epochs_served{0};
};

/// The concurrent multi-session service over one Semandaq system, and the
/// one text-command grammar over it (Help() lists the commands): the CLI
/// (examples/semandaq_cli.cpp) runs it with a single session, the TCP
/// server (tools/semandaq_server.cc) with one session per connection. Many
/// sessions execute commands against a shared database, with reads running
/// in parallel against pinned immutable epochs and writes serialized behind
/// one writer lock.
///
/// Concurrency model (docs/server.md):
///
///   * The facade publishes every relation's epochs (core::Semandaq::Pin /
///     Publish); the service holds no per-relation state of its own.
///     Read commands (detect [sql] / mine / clean / sql / show / map /
///     report / explore / epoch) pin the latest epoch and compute on it
///     lock-free (SQL on a core::PinnedCatalog), through the core::EpochRead
///     functions the facade's by-name reads use — they never block on
///     writers, and a writer never waits for readers (old epochs die by
///     refcount when the last pin drops).
///   * Write commands (load / open / gen / apply / savedb / opendb / the
///     programmatic AppendBatch) and constraint/catalog commands take
///     `sys_mu_`, mutate the master through the facade, and publish the
///     affected relations' next epochs before releasing it.
///   * Mining is read-compute + a brief write tail: the levelwise sweep
///     runs on the pinned epoch, only the final AddCfd batch takes the
///     writer lock.
///   * Worker lanes come from the RequestScheduler: each request leases
///     min(requested, free) lanes and degrades toward serial under load —
///     legal because every engine's output is byte-identical across
///     thread counts (the invariant the whole stack maintains).
///
/// A read computed on epoch k is byte-identical to a serial run against a
/// standalone copy of the relation as of epoch k — the property
/// tests/server_concurrency_test.cc stresses.
///
/// Sessions are represented by SessionState values owned by the transport
/// (one per connection); the service itself is stateless per request
/// beyond them, so it is safe to call Execute from any number of threads.
class SemandaqService {
 public:
  explicit SemandaqService(ServiceOptions options = {});

  SemandaqService(const SemandaqService&) = delete;
  SemandaqService& operator=(const SemandaqService&) = delete;

  /// Per-session command state: the pending candidate repair of the last
  /// `clean`, awaiting `diff`/`apply`.
  struct SessionState {
    std::optional<repair::RepairResult> pending_repair;
    std::string pending_relation;
  };

  /// Per-request execution context, owned by the transport. `cancel` is
  /// threaded into every engine loop the command runs (nullptr = not
  /// cancellable). On an Unavailable (admission-shed) result,
  /// `retry_after_ms` carries the busy response's machine-readable hint.
  struct RequestContext {
    common::CancelToken* cancel = nullptr;
    uint32_t retry_after_ms = 0;
  };

  /// Executes one command line for one session. Thread-safe; any number
  /// of sessions may execute concurrently. An empty or `#` comment line
  /// returns an empty string.
  common::Result<std::string> Execute(SessionState* session,
                                      std::string_view command_line) {
    RequestContext ctx;
    return Execute(session, command_line, &ctx);
  }

  /// Execute with a request context: cancellation/deadline checkpoints in
  /// every engine loop, and cost-aware admission (when enabled) that can
  /// shed the request with Unavailable + ctx->retry_after_ms.
  common::Result<std::string> Execute(SessionState* session,
                                      std::string_view command_line,
                                      RequestContext* ctx);

  /// The command reference text.
  static std::string Help();

  /// Pins the latest published epoch of `relation` (publishing one first
  /// if the relation exists but was never published). nullptr when the
  /// relation is unknown. The returned snapshot stays valid and immutable
  /// for as long as the pointer is held.
  core::SnapshotPtr Pin(const std::string& relation);

  /// Appends `rows` to `relation` as one write batch and publishes the new
  /// epoch (the programmatic writer the concurrency stress test and
  /// ingest-style embeddings use). Runs any due snapshot compaction.
  /// Returns the number of rows appended.
  common::Result<size_t> AppendBatch(const std::string& relation,
                                     std::vector<relational::Row> rows);

  RequestScheduler& scheduler() { return scheduler_; }
  AdmissionController& admission() { return admission_; }
  ServiceStats& stats() { return stats_; }

  /// The `stats` command's body: one `key=value` per line (lane budget and
  /// free lanes, per-class active/queued gauges, shed/timeout/cancel and
  /// epochs-served counters) — machine-parseable by design.
  std::string RenderStats() const;

  /// The underlying facade, NOT synchronized: callers must guarantee no
  /// concurrent Execute/Pin/AppendBatch while touching it (bootstrap and
  /// tests only).
  core::Semandaq& system_unsynchronized() { return sys_; }

 private:
  /// Copy of the CFDs registered for `relation` (brief sys_mu_ hold).
  std::vector<cfd::Cfd> CfdsFor(const std::string& relation);

  /// A read of `relation`'s pinned epoch with its CFDs, detecting under
  /// `cancel` on `lanes` requested lanes, leased after the pin. NotFound
  /// when the relation is unknown.
  struct LeasedRead {
    ThreadLease lease;
    core::EpochRead read;
  };
  common::Result<LeasedRead> PinnedRead(const std::string& relation,
                                        size_t lanes,
                                        common::CancelToken* cancel);

  /// The dispatch body Execute wraps with admission control.
  common::Result<std::string> ExecuteAdmitted(SessionState* session,
                                              std::string_view line,
                                              const std::string& verb,
                                              const std::vector<std::string>& args,
                                              common::CancelToken* cancel);

  common::Result<std::string> CmdWrite(const std::string& verb,
                                       const std::vector<std::string>& args);
  common::Result<std::string> CmdShow(const std::vector<std::string>& args);
  common::Result<std::string> CmdEpoch(const std::vector<std::string>& args);
  common::Result<std::string> CmdDetect(const std::vector<std::string>& args,
                                        common::CancelToken* cancel);
  common::Result<std::string> CmdMine(const std::vector<std::string>& args,
                                      common::CancelToken* cancel);
  common::Result<std::string> CmdClean(SessionState* session,
                                       const std::vector<std::string>& args,
                                       common::CancelToken* cancel);
  common::Result<std::string> CmdDiff(SessionState* session);
  common::Result<std::string> CmdApply(SessionState* session);
  common::Result<std::string> CmdMap(const std::vector<std::string>& args,
                                     common::CancelToken* cancel);
  common::Result<std::string> CmdReport(const std::vector<std::string>& args,
                                        common::CancelToken* cancel);
  common::Result<std::string> CmdExplore(const std::vector<std::string>& args,
                                         common::CancelToken* cancel);
  common::Result<std::string> CmdSql(std::string_view query,
                                     common::CancelToken* cancel);

  core::Semandaq sys_;
  /// The writer lock: serializes every master/catalog/constraint mutation
  /// and the facade-routed commands. Never held while a read command
  /// computes (only while it copies CFDs or pins).
  std::mutex sys_mu_;
  RequestScheduler scheduler_;
  AdmissionController admission_;
  ServiceStats stats_;
};

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SERVICE_H_
