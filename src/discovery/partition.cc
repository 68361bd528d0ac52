#include "discovery/partition.h"

#include <algorithm>
#include <unordered_map>

#include "common/thread_pool.h"

namespace semandaq::discovery {

using relational::TupleId;

Partition Partition::Build(const relational::EncodedRelation& enc,
                           const std::vector<size_t>& cols,
                           common::simd::Level level) {
  using relational::Code;
  using relational::kNullCode;
  namespace simd = common::simd;

  Partition p;
  const size_t bound = static_cast<size_t>(enc.IdBound());
  p.class_of_.assign(bound, -1);
  std::vector<std::vector<TupleId>> members;

  // Class ids are issued densely in first-touch order, so a fresh id is
  // always exactly members.size().
  auto place = [&](TupleId tid, int32_t cid) {
    if (static_cast<size_t>(cid) == members.size()) members.emplace_back();
    members[static_cast<size_t>(cid)].push_back(tid);
    p.class_of_[static_cast<size_t>(tid)] = cid;
    ++p.covered_;
  };

  // The refinement pass runs in kernel blocks: MaskLive fuses the liveness
  // filter with the per-column non-NULL test into one bitmap per block, and
  // PackKeys2x32 pre-packs the two-column group keys — the scalar loop that
  // remains is pure first-touch class placement over the surviving bits.
  const simd::Kernels& kn = simd::KernelsFor(level);
  const uint8_t* live = enc.relation().live_data();
  constexpr size_t kBlock = 4096;
  std::vector<uint64_t> elig(simd::MaskWords(kBlock));
  std::vector<const Code*> colptrs(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    colptrs[k] = enc.column(cols[k]).data();
  }

  auto for_each_eligible = [&](const auto& fn) {
    std::vector<const Code*> block_ptrs(cols.size());
    for (size_t lo = 0; lo < bound; lo += kBlock) {
      const size_t n = std::min(kBlock, bound - lo);
      for (size_t k = 0; k < cols.size(); ++k) {
        block_ptrs[k] = colptrs[k] + lo;
      }
      if (kn.MaskLive(live + lo, block_ptrs.data(), cols.size(), kNullCode,
                      n, elig.data()) == 0) {
        continue;
      }
      fn(lo, n);
    }
  };

  if (cols.size() == 1) {
    // Codes are dense 1..|dict|: the class of a tuple is a direct array
    // lookup, with ids renumbered in first-touch order to stay identical to
    // the multi-column build's numbering.
    const Code* codes = colptrs[0];
    std::vector<int32_t> class_of_code(enc.dictionary(cols[0]).size() + 1, -1);
    int32_t next = 0;
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        int32_t& cid = class_of_code[codes[lo + i]];
        if (cid < 0) cid = next++;
        place(static_cast<TupleId>(lo + i), cid);
      });
    });
    p.num_classes_ = static_cast<size_t>(next);
  } else if (cols.size() == 2) {
    std::vector<uint64_t> packed(kBlock);
    std::unordered_map<uint64_t, int32_t> ids;
    for_each_eligible([&](size_t lo, size_t n) {
      kn.PackKeys2x32(colptrs[0] + lo, colptrs[1] + lo, n, packed.data());
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        auto [it, fresh] =
            ids.emplace(packed[i], static_cast<int32_t>(ids.size()));
        place(static_cast<TupleId>(lo + i), it->second);
      });
    });
    p.num_classes_ = ids.size();
  } else {
    std::unordered_map<std::vector<Code>, int32_t, relational::CodeVecHash> ids;
    std::vector<Code> key(cols.size());
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        for (size_t k = 0; k < cols.size(); ++k) key[k] = colptrs[k][lo + i];
        auto [it, fresh] = ids.emplace(key, static_cast<int32_t>(ids.size()));
        place(static_cast<TupleId>(lo + i), it->second);
      });
    });
    p.num_classes_ = ids.size();
  }

  for (auto& m : members) {
    if (m.size() >= 2) p.classes_.push_back(std::move(m));
  }
  return p;
}

Partition Partition::Intersect(const Partition& a, const Partition& b) {
  Partition p;
  const size_t bound = std::max(a.class_of_.size(), b.class_of_.size());
  p.class_of_.assign(bound, -1);

  // Group each stripped class of a by its members' class in b. `slot` is
  // indexed by b's class id: a class walk first counts members per slot,
  // then marks each slot holding >= 2 of them with -1 - its group's index
  // (lone members stay product singletons), then files the members; only
  // the touched slots are reset. A grouped tuple carries its group index
  // in p.class_of_ until the id pass below.
  std::vector<int32_t> slot(b.num_classes_, 0);
  std::vector<int32_t> touched;
  std::vector<std::vector<TupleId>> groups;
  for (const auto& cls : a.classes_) {
    for (TupleId t : cls) {
      const int32_t cb = b.ClassOf(t);
      if (cb >= 0 && slot[static_cast<size_t>(cb)]++ == 0) {
        touched.push_back(cb);
      }
    }
    for (int32_t cb : touched) {
      int32_t& s = slot[static_cast<size_t>(cb)];
      if (s >= 2) {
        groups.emplace_back().reserve(static_cast<size_t>(s));
        s = -static_cast<int32_t>(groups.size());
      }
    }
    for (TupleId t : cls) {
      const int32_t cb = b.ClassOf(t);
      if (cb < 0 || slot[static_cast<size_t>(cb)] >= 0) continue;
      const int32_t g = -1 - slot[static_cast<size_t>(cb)];
      groups[static_cast<size_t>(g)].push_back(t);
      p.class_of_[static_cast<size_t>(t)] = g;
    }
    for (int32_t cb : touched) slot[static_cast<size_t>(cb)] = 0;
    touched.clear();
  }

  // First-touch class ids, as Build issues them: over the tuples both
  // sides cover, in tid order, each singleton and each group's first
  // (lowest) tid opens the next id — so the groups also land in classes_
  // in id order. Beyond the shorter class_of_ one side covers nothing.
  const size_t common_bound = std::min(a.class_of_.size(), b.class_of_.size());
  std::vector<int32_t> group_id(groups.size(), -1);
  p.classes_.reserve(groups.size());
  int32_t next = 0;
  for (size_t t = 0; t < common_bound; ++t) {
    if (a.class_of_[t] < 0 || b.class_of_[t] < 0) continue;
    ++p.covered_;
    const int32_t g = p.class_of_[t];
    if (g < 0) {
      p.class_of_[t] = next++;
      continue;
    }
    int32_t& id = group_id[static_cast<size_t>(g)];
    if (id < 0) {
      id = next++;
      p.classes_.push_back(std::move(groups[static_cast<size_t>(g)]));
    }
    p.class_of_[t] = id;
  }
  p.num_classes_ = static_cast<size_t>(next);
  return p;
}

int32_t Partition::StrippedIndex(int32_t cid) const {
  if (cid < 0) return -1;
  const auto it = std::lower_bound(
      classes_.begin(), classes_.end(), cid,
      [this](const std::vector<TupleId>& cls, int32_t id) {
        return ClassOf(cls.front()) < id;
      });
  if (it == classes_.end() || ClassOf(it->front()) != cid) return -1;
  return static_cast<int32_t>(it - classes_.begin());
}

namespace {

/// Releases a PartitionCache build claim on scope exit — also on unwind,
/// so a throwing build (OOM) cannot leave waiters parked forever.
template <typename Set, typename Key>
class ClaimGuard {
 public:
  ClaimGuard(std::mutex* mu, std::condition_variable* cv, Set* set, Key key)
      : mu_(mu), cv_(cv), set_(set), key_(std::move(key)) {}
  ~ClaimGuard() {
    std::lock_guard<std::mutex> lock(*mu_);
    set_->erase(key_);
    cv_->notify_all();
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  Set* set_;
  Key key_;
};

}  // namespace

const Partition& PartitionCache::Get(const std::vector<size_t>& cols) {
  // Builds run outside the lock; the building_* sets claim a key so that
  // concurrent lanes wanting the same set wait for the one builder
  // instead of redoing the work (same-level candidates always share
  // products, so the stampede would be the common case, not a rare
  // race). Waits cannot cycle: a build only recurses into strict subsets.
  if (cols.size() <= 1) {
    const size_t col = cols.empty() ? SIZE_MAX : cols[0];
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        auto it = bases_.find(col);
        if (it != bases_.end()) return it->second;
        if (building_bases_.count(col) == 0) {
          building_bases_.insert(col);
          break;
        }
        built_cv_.wait(lock);
      }
    }
    ClaimGuard<std::set<size_t>, size_t> guard(&mu_, &built_cv_,
                                               &building_bases_, col);
    Partition p = Partition::Build(*enc_, cols, level_);
    std::lock_guard<std::mutex> lock(mu_);
    return bases_.try_emplace(col, std::move(p)).first->second;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (auto it = cur_.find(cols); it != cur_.end()) return it->second;
      if (auto it = prev_.find(cols); it != prev_.end()) return it->second;
      if (building_.count(cols) == 0) {
        building_.insert(cols);
        break;
      }
      built_cv_.wait(lock);
    }
  }
  ClaimGuard<std::set<std::vector<size_t>>, std::vector<size_t>> guard(
      &mu_, &built_cv_, &building_, cols);
  std::vector<size_t> prefix(cols.begin(), cols.end() - 1);
  const Partition& pa = Get(prefix);
  const Partition& pb = Get({cols.back()});
  Partition p = Partition::Intersect(pa, pb);
  std::lock_guard<std::mutex> lock(mu_);
  ++builds_;
  return cur_.try_emplace(cols, std::move(p)).first->second;
}

void PartitionCache::BuildBases(size_t ncols, common::ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 || ncols == 0) {
    for (size_t c = 0; c < ncols; ++c) Get({c});
    return;
  }
  pool->Run(ncols, [this](size_t c) { Get({c}); });
}

void PartitionCache::Rotate() {
  prev_ = std::move(cur_);
  cur_.clear();
}

bool Partition::Refines(const Partition& other) const {
  // Every non-singleton class must sit inside one class of `other`;
  // singleton classes refine trivially. Tuples `other` does not cover
  // (NULL in its attributes) cannot witness a difference and are skipped.
  for (const auto& cls : classes_) {
    int32_t target = -1;
    for (TupleId tid : cls) {
      const int32_t c = other.ClassOf(tid);
      if (c < 0) continue;
      if (target < 0) {
        target = c;
      } else if (c != target) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace semandaq::discovery
