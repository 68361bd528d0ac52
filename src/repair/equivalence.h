#ifndef SEMANDAQ_REPAIR_EQUIVALENCE_H_
#define SEMANDAQ_REPAIR_EQUIVALENCE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"
#include "relational/value.h"

namespace semandaq::repair {

/// A (tuple, attribute) cell of the relation under repair.
struct CellId {
  relational::TupleId tid = -1;
  size_t col = 0;

  bool operator==(const CellId& other) const {
    return tid == other.tid && col == other.col;
  }
};

/// Union-find over cells, the core data structure of the equivalence-class
/// repair framework of Bohannon et al. [SIGMOD'05] as extended to CFDs by
/// Cong et al. [VLDB'07]: cells that must agree in any repair are merged
/// into one class, and the class is assigned a single target value chosen by
/// the cost model.
class EquivalenceClasses {
 public:
  EquivalenceClasses() = default;

  /// Representative cell of the class containing `cell` (path compressed).
  CellId Find(CellId cell);

  /// Merges the classes of `a` and `b`; the surviving class keeps the target
  /// of `a`'s class if both had one.
  void Union(CellId a, CellId b);

  /// Bulk merge over one code column: cells (tids[i], col) sharing a label
  /// merge into one class. The repair engine passes dictionary codes
  /// (relational::Code); any uint32 space where label equality means value
  /// equality works. Label 0 (relational::kNullCode) marks a NULL
  /// cell and is skipped: NULL never pins cells together. One pass, one
  /// integer-keyed map — no Value hashing. Returns the number of Union
  /// operations performed.
  size_t MergeColumn(const std::vector<relational::TupleId>& tids, size_t col,
                     const std::vector<uint32_t>& labels);

  /// Merges the cells (tids[i], col) — all known to share one label — into
  /// a single class. Produces the same partition as MergeColumn with a
  /// uniform label vector, but cells not yet in any class are linked to the
  /// absorbing root directly: one hash find + one insert each, instead of
  /// the find-make-singleton-then-union walk. Repair groups run into the
  /// thousands of members, which makes this the apply phase's hot path.
  /// Returns the number of cells newly joined to the class.
  size_t MergeUniform(const std::vector<relational::TupleId>& tids, size_t col);

  /// All cells in the class of `cell` (including `cell` itself).
  std::vector<CellId> Members(CellId cell);

  /// Assigns the class target value.
  void SetTarget(CellId cell, relational::Value v);

  /// Target value of the class, if assigned.
  std::optional<relational::Value> Target(CellId cell);

  /// Number of classes with more than one member (a repair-complexity
  /// statistic surfaced in benches).
  size_t NumMergedClasses() const;

 private:
  static uint64_t Key(CellId c) {
    return (static_cast<uint64_t>(c.tid) << 16) | static_cast<uint64_t>(c.col);
  }
  static CellId FromKey(uint64_t k) {
    return CellId{static_cast<relational::TupleId>(k >> 16),
                  static_cast<size_t>(k & 0xFFFF)};
  }

  uint64_t FindRoot(uint64_t key);

  std::unordered_map<uint64_t, uint64_t> parent_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> members_;  // at roots
  std::unordered_map<uint64_t, relational::Value> targets_;      // at roots
};

}  // namespace semandaq::repair

#endif  // SEMANDAQ_REPAIR_EQUIVALENCE_H_
