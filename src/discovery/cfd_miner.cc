#include "discovery/cfd_miner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"

namespace semandaq::discovery {

namespace {

namespace simd = common::simd;

using cfd::Cfd;
using cfd::PatternTuple;
using cfd::PatternValue;
using relational::Code;
using relational::kNullCode;
using relational::TupleId;
using relational::Value;

void ForEachSubset(size_t n, size_t k,
                   const std::function<void(const std::vector<size_t>&)>& fn) {
  if (k > n) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    fn(idx);
    size_t i = k;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return;
  }
}

/// Gather block size for the constant scans: big enough to amortize the
/// kernel dispatch, small enough that a class failing on its first tuples
/// stops after one block (a first-conflict early exit at block
/// granularity).
constexpr size_t kGatherBlock = 1024;

/// Is attribute `rhs` constant (and non-null) over the given tuples? When
/// yes, the shared value lands in *value. Runs in kernel blocks: the class
/// members' RHS codes gather blockwise into a dense scratch array and a
/// CountEq32 pass per block decides "all equal to the first code" (which
/// also rejects NULLs, since the first code must be non-NULL itself); the
/// first disagreeing block exits.
bool ConstantOn(const relational::EncodedRelation& enc, const simd::Kernels& kn,
                const std::vector<TupleId>& tids, size_t rhs, Value* value,
                std::vector<Code>* scratch) {
  const relational::CodeColumn& codes = enc.column(rhs);
  const size_t n = tids.size();
  if (n == 0) return false;
  const Code shared = codes[static_cast<size_t>(tids[0])];
  if (shared == kNullCode) return false;
  scratch->resize(std::min(n, kGatherBlock));
  Code* buf = scratch->data();
  for (size_t lo = 0; lo < n; lo += kGatherBlock) {
    const size_t m = std::min(kGatherBlock, n - lo);
    for (size_t i = 0; i < m; ++i) {
      buf[i] = codes[static_cast<size_t>(tids[lo + i])];
    }
    if (kn.CountEq32(buf, m, shared) != m) return false;
  }
  *value = enc.Decode(rhs, shared);
  return true;
}

}  // namespace

CfdMiner::CfdMiner(const relational::Relation* rel, CfdMinerOptions options)
    : owned_(std::make_unique<relational::EncodedRelation>(rel, nullptr,
                                                           options.cancel)),
      enc_(owned_.get()),
      options_(options) {}

common::Result<std::vector<Cfd>> CfdMiner::Mine() {
  // A cancel that tripped during the relation-only form's encode left the
  // codes incomplete: nothing below may read them.
  SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);
  const relational::EncodedRelation& encoded = *enc_;
  const relational::Relation& rel = encoded.relation();
  const auto& schema = rel.schema();
  const size_t ncols = schema.size();
  std::vector<Cfd> out;

  // Lane resolution is shared with the embedded FdMiner run below.
  std::unique_ptr<common::ThreadPool> local_pool;
  common::ThreadPool* pool =
      common::ResolvePool(options_.pool, options_.num_threads, &local_pool);
  const bool parallel = pool != nullptr && pool->num_threads() > 1 && ncols > 0;

  // Two-generation partition memory (bases pinned): at level k the
  // candidates fill the current generation from the previous one's
  // prefixes, and the left-reduction's (k-1)-subsets all sit in the
  // previous generation, so Rotate() after each level keeps residency
  // bounded without forcing rebuilds.
  PartitionCache cache(&rel, &encoded, options_.simd_level);
  if (parallel) cache.BuildBases(ncols, pool);
  const simd::Kernels& kn = simd::KernelsFor(options_.simd_level);

  // During the interleaved sweep below this holds every minimal FD from
  // levels <= the one being mined — exactly the set that can prune a
  // level-k conditional candidate, since a larger FD's LHS is never a
  // subset of a same-or-smaller candidate's. After the sweep it is the
  // complete list.
  std::vector<DiscoveredFd> global_fds;
  auto fd_holds_globally = [&](const std::vector<size_t>& lhs, size_t rhs) {
    for (const DiscoveredFd& fd : global_fds) {
      if (fd.rhs_col != rhs) continue;
      if (std::includes(lhs.begin(), lhs.end(), fd.lhs_cols.begin(),
                        fd.lhs_cols.end())) {
        return true;
      }
    }
    return false;
  };

  auto attr_names = [&](const std::vector<size_t>& cols) {
    std::vector<std::string> names;
    names.reserve(cols.size());
    for (size_t c : cols) names.push_back(schema.attr(c).name);
    return names;
  };

  // Mines every constant and variable CFD for one candidate LHS into
  // `local`, in the serial sweep's (rhs-ascending, constant-then-variable)
  // emission order. Pure function of the candidate plus read-only shared
  // state (partitions are deterministic, the cache is thread-safe), so
  // candidates fan out freely.
  auto mine_candidate = [&](const std::vector<size_t>& lhs,
                            std::vector<Cfd>* local) {
    if (options_.cancel != nullptr && !options_.cancel->Check().ok()) return;
    const Partition& px = cache.Get(lhs);
    const size_t nlhs = lhs.size();
    std::vector<Code> constant_scratch;

    // Variable-CFD bookkeeping. Every stripped class of Π_X sits inside
    // one class of each Π_C (C ∈ X), a stripped one: cond_class[i][k] is
    // that class's index in Π_{lhs[i]}.classes() for Π_X class k.
    // fails/evidence accumulate per conditioning class.
    const bool mine_variable = options_.mine_variable && nlhs >= 2;
    std::vector<const Partition*> pcs;
    std::vector<std::vector<int32_t>> cond_class;
    std::vector<std::vector<size_t>> fails(nlhs), evidence(nlhs);
    for (size_t i = 0; mine_variable && i < nlhs; ++i) {
      const Partition& pc = cache.Get({lhs[i]});
      pcs.push_back(&pc);
      std::vector<int32_t>& slots = cond_class.emplace_back();
      slots.reserve(px.classes().size());
      for (const auto& cls : px.classes()) {
        slots.push_back(pc.StrippedIndex(pc.ClassOf(cls.front())));
      }
    }

    for (size_t rhs = 0; rhs < ncols; ++rhs) {
      if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) continue;
      const bool global = fd_holds_globally(lhs, rhs);

      // ---- Constant CFDs: per class of Π_X with support, A constant.
      if (options_.mine_constant && !global) {
        std::vector<PatternTuple> rows;
        for (const auto& cls : px.classes()) {
          if (cls.size() < options_.min_support) continue;
          Value shared;
          if (!ConstantOn(encoded, kn, cls, rhs, &shared, &constant_scratch)) {
            continue;
          }
          // Left-reduction: skip when dropping any one LHS attribute
          // still yields a constant class with the same value.
          bool reducible = false;
          if (nlhs > 1) {
            for (size_t drop = 0; drop < nlhs && !reducible; ++drop) {
              std::vector<size_t> sub;
              for (size_t i = 0; i < nlhs; ++i) {
                if (i != drop) sub.push_back(lhs[i]);
              }
              const Partition& psub = cache.Get(sub);
              const int32_t si = psub.StrippedIndex(psub.ClassOf(cls.front()));
              if (si < 0) continue;
              const auto& sup = psub.classes()[static_cast<size_t>(si)];
              Value sub_shared;
              reducible = sup.size() >= options_.min_support &&
                          ConstantOn(encoded, kn, sup, rhs, &sub_shared,
                                     &constant_scratch) &&
                          sub_shared == shared;
            }
          }
          if (reducible) continue;
          PatternTuple pt;
          for (size_t c : lhs) {
            pt.lhs.push_back(PatternValue::Constant(
                encoded.Decode(c, encoded.code(cls.front(), c))));
          }
          pt.rhs = PatternValue::Constant(shared);
          rows.push_back(std::move(pt));
          if (rows.size() >= options_.max_patterns_per_fd) break;
        }
        if (!rows.empty()) {
          local->emplace_back(rel.name(), attr_names(lhs),
                              schema.attr(rhs).name, std::move(rows));
        }
      }

      // ---- Variable CFDs: condition one LHS attribute on a constant.
      if (mine_variable && !global) {
        // Does X -> A hold within σ_{C=c}? The X-groups there are the Π_X
        // classes with C = c, restricted to members with a non-NULL A. One
        // pass over Π_X decides each class: it fails when those members
        // disagree on A, and its evidence (tuples the conditioned FD
        // actually constrains) is their count when at least 2. Requiring
        // min_support *evidence* (not just a populous conditioning class)
        // is what separates domain rules from sampling coincidences.
        for (size_t i = 0; i < nlhs; ++i) {
          fails[i].assign(pcs[i]->classes().size(), 0);
          evidence[i].assign(pcs[i]->classes().size(), 0);
        }
        const relational::CodeColumn& rhs_codes = encoded.column(rhs);
        for (size_t k = 0; k < px.classes().size(); ++k) {
          size_t members = 0;
          Code first = kNullCode;
          bool disagree = false;
          for (TupleId t : px.classes()[k]) {
            const Code code = rhs_codes[static_cast<size_t>(t)];
            if (code == kNullCode) continue;
            if (members++ == 0) {
              first = code;
            } else if (code != first) {
              disagree = true;
            }
          }
          if (members < 2) continue;
          for (size_t i = 0; i < nlhs; ++i) {
            const auto slot = static_cast<size_t>(cond_class[i][k]);
            if (disagree) {
              ++fails[i][slot];
            } else {
              evidence[i][slot] += members;
            }
          }
        }
        std::vector<PatternTuple> rows;
        for (size_t cond = 0;
             cond < nlhs && rows.size() < options_.max_patterns_per_fd;
             ++cond) {
          const auto& classes = pcs[cond]->classes();
          for (size_t slot = 0; slot < classes.size(); ++slot) {
            if (classes[slot].size() < options_.min_support) continue;
            if (fails[cond][slot] != 0 ||
                evidence[cond][slot] < options_.min_support) {
              continue;
            }
            PatternTuple pt;
            const size_t c = lhs[cond];
            const Value& c_value =
                encoded.Decode(c, encoded.code(classes[slot].front(), c));
            for (size_t i = 0; i < nlhs; ++i) {
              pt.lhs.push_back(i == cond ? PatternValue::Constant(c_value)
                                         : PatternValue::Wildcard());
            }
            pt.rhs = PatternValue::Wildcard();
            rows.push_back(std::move(pt));
            if (rows.size() >= options_.max_patterns_per_fd) break;
          }
        }
        if (!rows.empty()) {
          local->emplace_back(rel.name(), attr_names(lhs),
                              schema.attr(rhs).name, std::move(rows));
        }
      }
    }
  };

  // Mines one lattice level: candidates materialize in lexicographic order
  // into per-candidate slots (fanned out when parallel) and the slots replay
  // in order into the level's buffer — byte-identical to the serial sweep
  // for every thread count.
  std::vector<std::vector<Cfd>> level_cfds(options_.max_lhs + 1);
  auto run_level = [&](size_t level) {
    std::vector<std::vector<size_t>> cands;
    ForEachSubset(ncols, level,
                  [&](const std::vector<size_t>& lhs) { cands.push_back(lhs); });
    std::vector<std::vector<Cfd>> slots(cands.size());
    if (parallel) {
      pool->Run(cands.size(),
                [&](size_t i) { mine_candidate(cands[i], &slots[i]); });
    } else {
      for (size_t i = 0; i < cands.size(); ++i) {
        mine_candidate(cands[i], &slots[i]);
      }
    }
    for (std::vector<Cfd>& slot : slots) {
      for (Cfd& c : slot) level_cfds[level].push_back(std::move(c));
    }
  };

  // The embedded FD run shares this miner's encode pass, partition cache,
  // and lanes — and its after-level hook runs the conditional sweep for
  // level k while the level-k partitions the FD validation just used are
  // still resident (level k in the cache's previous generation, singleton
  // bases pinned). The old back-to-back sweeps rebuilt every level's
  // partitions a second time after the FD rotations evicted them; the
  // interleaved sweep pays only the left-reduction's (k-1)-subset rebuilds
  // at k >= 3. Global FDs both seed all-wildcard CFDs and prune redundant
  // conditional forms.
  FdMinerOptions fd_opts;
  fd_opts.max_lhs = options_.max_lhs;
  fd_opts.cancel = options_.cancel;
  FdMiner fd_miner(&rel, fd_opts);
  global_fds = fd_miner.Mine(
      &cache, pool, [&](size_t level, const std::vector<DiscoveredFd>& found) {
        global_fds = found;
        run_level(level);
      });
  // A tripped token made the interleaved sweep stop early with partial
  // buffers; discard them and surface the cancellation instead.
  SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);

  // Assemble in the historical order: all-wildcard global FDs first, then
  // the buffered conditional levels ascending.
  if (options_.include_global_fds) {
    for (const DiscoveredFd& fd : global_fds) {
      PatternTuple pt;
      pt.lhs.assign(fd.lhs_cols.size(), PatternValue::Wildcard());
      pt.rhs = PatternValue::Wildcard();
      out.emplace_back(rel.name(), attr_names(fd.lhs_cols),
                       schema.attr(fd.rhs_col).name,
                       std::vector<PatternTuple>{std::move(pt)});
    }
  }
  for (std::vector<Cfd>& buffered : level_cfds) {
    for (Cfd& c : buffered) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace semandaq::discovery
