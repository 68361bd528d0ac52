#ifndef SEMANDAQ_DISCOVERY_FD_MINER_H_
#define SEMANDAQ_DISCOVERY_FD_MINER_H_

#include <functional>
#include <vector>

#include "common/cancel.h"
#include "discovery/partition.h"
#include "relational/relation.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::discovery {

/// A functional dependency X -> A discovered from data, by column ordinals.
struct DiscoveredFd {
  std::vector<size_t> lhs_cols;  // sorted ascending
  size_t rhs_col = 0;
};

struct FdMinerOptions {
  /// Maximum LHS size to explore (levelwise lattice depth).
  size_t max_lhs = 3;
  /// Build base partitions from a dictionary-encoded snapshot (one encode
  /// pass, then pure integer grouping) instead of hashing projected Rows.
  bool use_encoded = true;
  /// Lanes for the per-level candidate fan-out: 1 = serial sweep (the
  /// default), 0 = one lane per hardware thread, N = N lanes. When no
  /// borrowed `pool` is attached, the miner spins up its own pool for the
  /// Mine() call. Mined output is byte-identical for every thread count —
  /// candidates are validated into per-candidate slots and emitted in the
  /// serial sweep's exact lexicographic order.
  size_t num_threads = 1;
  /// Borrowed worker pool (e.g. the Semandaq facade's). When attached with
  /// more than one lane it powers both the base-partition builds and the
  /// per-level candidate fan-out, overriding `num_threads`. nullptr =
  /// honor `num_threads`.
  common::ThreadPool* pool = nullptr;
  /// Kernel tier for the partition builds, intersect probe loops, and
  /// evidence scans (kAuto = the host's best; see docs/simd.md). Every
  /// tier mines the identical output.
  common::simd::Level simd_level = common::simd::Level::kAuto;
  /// Cooperative cancellation (common/cancel.h), checked at level and
  /// candidate boundaries. Mine() returns a vector, so a tripped token
  /// makes the sweep stop early with a *partial* result — callers that
  /// pass a token must re-check it after Mine() and discard the output
  /// (CfdMiner turns it into Status::Cancelled). nullptr = not cancellable.
  common::CancelToken* cancel = nullptr;
};

/// TANE-style levelwise FD discovery on stripped partitions: candidate
/// X -> A is valid iff Π_X refines Π_{X∪{A}}. Only minimal FDs are emitted
/// (no discovered FD's LHS contains another's for the same RHS).
///
/// The sweep fans each level's candidates out over a thread pool (one task
/// per candidate LHS; see FdMinerOptions::num_threads) and keeps partition
/// memory level-scoped through a two-generation PartitionCache. Mined
/// output is byte-identical to the serial sweep for every thread count and
/// kernel tier.
///
/// This is both a substrate of the CFD miner and the classical baseline the
/// constraint engine falls back to when no conditioning helps.
class FdMiner {
 public:
  explicit FdMiner(const relational::Relation* rel, FdMinerOptions options = {})
      : rel_(rel), options_(options) {}

  std::vector<DiscoveredFd> Mine();

  /// Invoked after each lattice level's minimal FDs are emitted and
  /// *before* the cache rotates past that level: `found` is every FD from
  /// levels 1..`level`. At that moment the level-k candidate partitions
  /// are still resident (level k in the previous generation, the freshly
  /// built level-(k+1) products in the current one, singleton bases
  /// pinned), so a caller piggybacking its own level-k pass — the CFD
  /// miner's conditional sweep — reads them out of the shared cache
  /// instead of rebuilding them after the FD run rotated them away.
  using LevelHook =
      std::function<void(size_t level, const std::vector<DiscoveredFd>& found)>;

  /// Mines through a caller-provided partition cache and lanes — the CFD
  /// miner shares its encode pass and PartitionCache with this embedded
  /// run instead of paying both twice. The cache is populated and
  /// Rotate()d by the sweep (call between your own levels only);
  /// `pool` may be null (serial sweep). Only `max_lhs` of the options
  /// applies — the cache already fixes the encode path and kernel tier.
  /// Output is identical to Mine().
  std::vector<DiscoveredFd> Mine(PartitionCache* cache,
                                 common::ThreadPool* pool,
                                 const LevelHook& after_level = {});

  /// Checks one FD directly (exposed for tests and the CFD miner). With
  /// `use_encoded` (the default) both partitions come off one dictionary
  /// encode pass — the same build path Mine() uses — instead of hashing
  /// projected Rows.
  static bool Holds(const relational::Relation& rel, const std::vector<size_t>& lhs,
                    size_t rhs, bool use_encoded = true);

 private:
  const relational::Relation* rel_;
  FdMinerOptions options_;
};

}  // namespace semandaq::discovery

#endif  // SEMANDAQ_DISCOVERY_FD_MINER_H_
