#ifndef SEMANDAQ_TESTS_ORACLES_H_
#define SEMANDAQ_TESTS_ORACLES_H_

// Brute-force references written straight from the definitions. They share
// no code with the engines they check: no dictionary encoding, no hashing,
// no partition arithmetic — only Row/Value equality over live tuples.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "discovery/partition.h"
#include "relational/relation.h"

namespace semandaq::testing {

/// Π_X from its definition. Walks the live tuples in tid order, skips any
/// with a NULL in X (a NULL cannot witness equality), and puts each tuple
/// into the class of the first earlier tuple with an equal X projection
/// (found by linear search), else opens a new class. Class ids are thus
/// first-touch ordered; `classes` strips the singletons and keeps the rest
/// in id order.
struct BruteForcePartition {
  BruteForcePartition(const relational::Relation& rel,
                      const std::vector<size_t>& cols)
      : class_of(static_cast<size_t>(rel.IdBound()), -1) {
    std::vector<relational::Row> keys;  // by class id
    std::vector<std::vector<relational::TupleId>> members;
    rel.ForEach([&](relational::TupleId tid, const relational::Row& row) {
      relational::Row key;
      for (size_t c : cols) {
        if (row[c].is_null()) return;
        key.push_back(row[c]);
      }
      size_t id = 0;
      while (id < keys.size() && !(keys[id] == key)) ++id;
      if (id == keys.size()) {
        keys.push_back(std::move(key));
        members.emplace_back();
      }
      members[id].push_back(tid);
      class_of[static_cast<size_t>(tid)] = static_cast<int32_t>(id);
      ++covered;
    });
    num_classes = keys.size();
    for (auto& m : members) {
      if (m.size() >= 2) classes.push_back(std::move(m));
    }
  }

  /// Expects `p` to be this partition exactly: same class numbering, same
  /// coverage, same stripped classes in the same order.
  void ExpectMatches(const discovery::Partition& p) const {
    EXPECT_EQ(num_classes, p.num_classes());
    EXPECT_EQ(covered, p.num_tuples());
    for (size_t tid = 0; tid < class_of.size(); ++tid) {
      ASSERT_EQ(class_of[tid], p.ClassOf(static_cast<relational::TupleId>(tid)))
          << "class mismatch at tuple " << tid;
    }
    ASSERT_EQ(classes.size(), p.classes().size());
    for (size_t i = 0; i < classes.size(); ++i) {
      EXPECT_EQ(classes[i], p.classes()[i]) << "class " << i;
    }
  }

  std::vector<int32_t> class_of;  // by tuple id; -1 = not covered
  std::vector<std::vector<relational::TupleId>> classes;
  size_t num_classes = 0;
  size_t covered = 0;
};

/// X -> A by its pairwise definition, under the miner's NULL semantics
/// (discovery::RefinesForFd): any two live tuples that agree on X, with no
/// NULL in X, and that both carry a non-NULL A must agree on A. A NULL
/// never makes two tuples agree on X, and a NULL A never disagrees.
inline bool BruteForceFdHolds(const relational::Relation& rel,
                              const std::vector<size_t>& lhs, size_t rhs) {
  std::vector<const relational::Row*> rows;
  rel.ForEach([&](relational::TupleId, const relational::Row& row) {
    if (row[rhs].is_null()) return;
    for (size_t c : lhs) {
      if (row[c].is_null()) return;
    }
    rows.push_back(&row);
  });
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const relational::Row& a = *rows[i];
      const relational::Row& b = *rows[j];
      bool agree = true;
      for (size_t c : lhs) {
        if (!(a[c] == b[c])) {
          agree = false;
          break;
        }
      }
      if (agree && !(a[rhs] == b[rhs])) return false;
    }
  }
  return true;
}

}  // namespace semandaq::testing

#endif  // SEMANDAQ_TESTS_ORACLES_H_
