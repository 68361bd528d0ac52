#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "oracles.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"

namespace semandaq::discovery {
namespace {

using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

/// A seeded random all-string relation for the property tests. Column c
/// draws from `domains[c]` values, where 0 means a key (a fresh value per
/// tuple) and 1 a constant column. About 1 cell in 10 is NULL and 1 tuple
/// in 8 is deleted afterwards.
Relation RandomRelation(uint64_t seed, size_t rows,
                        const std::vector<size_t>& domains) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> names;
  for (size_t c = 0; c < domains.size(); ++c) {
    names.push_back("C" + std::to_string(c));
  }
  Relation rel{"r", relational::Schema::AllStrings(names)};
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    for (size_t domain : domains) {
      if (rng() % 10 == 0) {
        row.push_back(Value::Null());
      } else {
        const uint64_t v = domain == 0 ? i : rng() % domain;
        row.push_back(Value::String("v" + std::to_string(v)));
      }
    }
    rel.MustInsert(std::move(row));
  }
  for (TupleId t = 0; t < rel.IdBound(); ++t) {
    if (rng() % 8 == 0) EXPECT_OK(rel.Delete(t));
  }
  return rel;
}

/// Every sorted column set of `ncols` columns with 1..max_size members,
/// sizes ascending (lexicographic within a size): each set comes after
/// its prefix.
std::vector<std::vector<size_t>> ColumnSets(size_t ncols, size_t max_size) {
  std::vector<std::vector<size_t>> sets;
  for (size_t mask = 1; mask < (size_t{1} << ncols); ++mask) {
    std::vector<size_t> cols;
    for (size_t c = 0; c < ncols; ++c) {
      if (mask & (size_t{1} << c)) cols.push_back(c);
    }
    if (cols.size() <= max_size) sets.push_back(std::move(cols));
  }
  std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  return sets;
}

std::string ColsToString(const std::vector<size_t>& cols) {
  std::string s;
  for (size_t c : cols) s += std::to_string(c) + ",";
  return s;
}

// -------------------------------------------------------------- Partition --

/// Π_X off a fresh encode of `rel`, checked against the brute-force Π_X.
Partition Build(const Relation& rel, const std::vector<size_t>& cols) {
  const relational::EncodedRelation enc(&rel);
  Partition p = Partition::Build(enc, cols);
  semandaq::testing::BruteForcePartition(rel, cols).ExpectMatches(p);
  return p;
}

TEST(PartitionTest, BuildGroupsEqualValues) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"x", "3"}});
  Partition p = Build(rel, {0});
  EXPECT_EQ(p.num_classes(), 2u);
  EXPECT_EQ(p.num_tuples(), 4u);
  ASSERT_EQ(p.classes().size(), 1u);  // only {x} is non-singleton
  EXPECT_EQ(p.classes()[0].size(), 3u);
  EXPECT_EQ(p.ClassOf(0), p.ClassOf(1));
  EXPECT_NE(p.ClassOf(0), p.ClassOf(2));
}

TEST(PartitionTest, NullsExcluded) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A"}, {{"x"}, {""}, {"x"}});
  Partition p = Build(rel, {0});
  EXPECT_EQ(p.num_tuples(), 2u);
  EXPECT_EQ(p.ClassOf(1), -1);
}

TEST(PartitionTest, IntersectIsProductPartition) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"x", "2"}, {"y", "1"}});
  Partition pa = Build(rel, {0});
  Partition pb = Build(rel, {1});
  Partition pab = Partition::Intersect(pa, pb);
  Partition direct = Build(rel, {0, 1});
  EXPECT_EQ(pab.num_classes(), direct.num_classes());
  EXPECT_EQ(pab.num_tuples(), direct.num_tuples());
  semandaq::testing::BruteForcePartition(rel, {0, 1}).ExpectMatches(pab);
}

TEST(PartitionTest, IntersectMatchesBruteForceOnEveryPrefixChain) {
  // A key, a constant, and low-, mid- and high-cardinality columns.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const size_t rows = 7 * seed;
    const Relation rel = RandomRelation(seed, rows, {0, 1, 2, 5, rows / 3 + 1});
    const relational::EncodedRelation enc(&rel);
    // Every set of up to 4 columns, built the way PartitionCache::Get
    // builds it: its prefix's partition times its last column's base.
    std::map<std::vector<size_t>, Partition> built;
    for (const std::vector<size_t>& cols : ColumnSets(5, 4)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cols " +
                   ColsToString(cols));
      Partition p =
          cols.size() == 1
              ? Partition::Build(enc, cols)
              : Partition::Intersect(
                    built.at({cols.begin(), cols.end() - 1}),
                    built.at({cols.back()}));
      semandaq::testing::BruteForcePartition(rel, cols).ExpectMatches(p);
      built.emplace(cols, std::move(p));
    }
    // The product is symmetric: either operand order gives Π_{a,b}.
    for (size_t a = 0; a < 5; ++a) {
      for (size_t b = 0; b < 5; ++b) {
        if (a == b) continue;
        SCOPED_TRACE("seed " + std::to_string(seed) + " pair " +
                     std::to_string(a) + "x" + std::to_string(b));
        semandaq::testing::BruteForcePartition(rel, {std::min(a, b),
                                                     std::max(a, b)})
            .ExpectMatches(Partition::Intersect(built.at({a}), built.at({b})));
      }
    }
  }
}

TEST(PartitionTest, StrippedIndexFindsEveryStrippedClass) {
  const Relation rel = RandomRelation(5, 60, {0, 2, 7, 20});
  const relational::EncodedRelation enc(&rel);
  for (const std::vector<size_t>& cols : ColumnSets(4, 2)) {
    const Partition p = Partition::Build(enc, cols);
    std::vector<int32_t> stripped(p.num_classes(), -1);
    for (size_t i = 0; i < p.classes().size(); ++i) {
      stripped[static_cast<size_t>(p.ClassOf(p.classes()[i].front()))] =
          static_cast<int32_t>(i);
    }
    for (size_t cid = 0; cid < p.num_classes(); ++cid) {
      EXPECT_EQ(p.StrippedIndex(static_cast<int32_t>(cid)), stripped[cid])
          << ColsToString(cols) << " class " << cid;
    }
    EXPECT_EQ(p.StrippedIndex(-1), -1);
  }
}

TEST(PartitionTest, RefinesDetectsFd) {
  // A -> B holds; B -> A does not (B=1 spans A=x and A=y).
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}, {"z", "1"}});
  Partition pa = Build(rel, {0});
  Partition pab = Build(rel, {0, 1});
  EXPECT_TRUE(pa.Refines(pab));
  Partition pb = Build(rel, {1});
  EXPECT_FALSE(pb.Refines(pab));
}

// ---------------------------------------------------------------- FdMiner --

TEST(FdMinerTest, HoldsChecksSingleFd) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}});
  EXPECT_TRUE(FdMiner::Holds(rel, {0}, 1));
  EXPECT_TRUE(semandaq::testing::BruteForceFdHolds(rel, {0}, 1));
  Relation bad = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "2"}});
  EXPECT_FALSE(FdMiner::Holds(bad, {0}, 1));
  EXPECT_FALSE(semandaq::testing::BruteForceFdHolds(bad, {0}, 1));
}

TEST(FdMinerTest, FindsPlantedFds) {
  // ZIP -> CITY and ZIP -> STATE planted; CITY does not determine ZIP.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"ZIP", "CITY", "STATE"},
      {{"1", "a", "s1"}, {"1", "a", "s1"}, {"2", "a", "s1"}, {"3", "b", "s2"}});
  FdMiner miner(&rel);
  auto fds = miner.Mine();
  auto has_fd = [&](std::vector<size_t> lhs, size_t rhs) {
    for (const auto& fd : fds) {
      if (fd.lhs_cols == lhs && fd.rhs_col == rhs) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_fd({0}, 1));  // ZIP -> CITY
  EXPECT_TRUE(has_fd({0}, 2));  // ZIP -> STATE
  EXPECT_FALSE(has_fd({1}, 0)); // CITY -/-> ZIP
}

TEST(FdMinerTest, OnlyMinimalFdsEmitted) {
  // A -> C holds, so {A,B} -> C must not be emitted.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "c1"}, {"x", "2", "c1"}, {"y", "1", "c2"}});
  FdMiner miner(&rel);
  auto fds = miner.Mine();
  for (const auto& fd : fds) {
    if (fd.rhs_col == 2) {
      EXPECT_EQ(fd.lhs_cols.size(), 1u) << "non-minimal FD emitted";
    }
  }
}

TEST(FdMinerTest, MaxLhsBoundsSearch) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C", "D"},
      {{"1", "2", "3", "4"}, {"1", "2", "3", "4"}});
  FdMinerOptions opts;
  opts.max_lhs = 1;
  FdMiner miner(&rel, opts);
  for (const auto& fd : miner.Mine()) {
    EXPECT_LE(fd.lhs_cols.size(), 1u);
  }
}

// --------------------------------------------------------------- CfdMiner --

TEST(CfdMinerTest, EveryMinedCfdHoldsOnTheInstance) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 300;
  opts.noise_rate = 0.0;  // mine on clean reference data
  opts.seed = 21;
  auto wl = workload::CustomerGenerator::Generate(opts);

  CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  CfdMiner miner(&wl.clean, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  ASSERT_FALSE(mined.empty());

  // Re-verify with the detector: zero violations for every mined CFD.
  detect::NativeDetector detector(&wl.clean, mined);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0);
}

TEST(CfdMinerTest, FindsThePapersConditionalDependency) {
  // In customer data, [CNT, ZIP] -> [STR] fails globally (US zips shared by
  // streets) but holds where CNT=UK — exactly the paper's phi2. The miner
  // must surface a variable CFD on (CNT,ZIP) -> STR conditioned on a UK-ish
  // constant.
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 400;
  opts.noise_rate = 0.0;
  opts.seed = 22;
  auto wl = workload::CustomerGenerator::Generate(opts);

  CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  CfdMiner miner(&wl.clean, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());

  bool found_phi2_shape = false;
  for (const auto& cfd : mined) {
    if (cfd.rhs_attr() != "STR") continue;
    for (const auto& pt : cfd.tableau()) {
      if (pt.rhs.is_wildcard()) {
        for (const auto& pv : pt.lhs) {
          if (pv.is_constant() && pv.constant() == Value::String("UK")) {
            found_phi2_shape = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(found_phi2_shape);
}

TEST(CfdMinerTest, GlobalFdBecomesWildcardCfd) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}});
  CfdMinerOptions mopts;
  mopts.min_support = 2;
  CfdMiner miner(&rel, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  bool found_fd = false;
  for (const auto& cfd : mined) {
    if (cfd.IsStandardFd() && cfd.rhs_attr() == "B") found_fd = true;
  }
  EXPECT_TRUE(found_fd);
}

TEST(CfdMinerTest, SupportThresholdFiltersRarePatterns) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "q"}, {"x", "1", "q"}, {"x", "1", "q"}, {"y", "2", "r"}});
  CfdMinerOptions strict;
  strict.min_support = 4;  // nothing has support 4 at constant level
  strict.include_global_fds = false;
  CfdMiner miner(&rel, strict);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  for (const auto& cfd : mined) {
    for (const auto& pt : cfd.tableau()) {
      EXPECT_TRUE(pt.is_pure_fd_row()) << cfd.ToString();
    }
  }
}

TEST(CfdMinerTest, MinedConstantsAreLeftReduced) {
  // C is constant wherever A=x, regardless of B; the miner should emit the
  // one-attribute pattern [A=x] -> [C=q], not [A=x, B=..] -> [C=q].
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "q"}, {"x", "2", "q"}, {"x", "3", "q"},
       {"x", "1", "q"}, {"x", "2", "q"}, {"x", "3", "q"},
       {"y", "1", "r"}, {"y", "2", "s"}, {"y", "3", "t"}});
  CfdMinerOptions mopts;
  mopts.min_support = 2;
  mopts.include_global_fds = false;
  mopts.mine_variable = false;
  CfdMiner miner(&rel, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  for (const auto& cfd : mined) {
    if (cfd.rhs_attr() != "C") continue;
    for (const auto& pt : cfd.tableau()) {
      size_t constants = 0;
      bool has_x = false;
      for (const auto& pv : pt.lhs) {
        if (pv.is_constant()) {
          ++constants;
          if (pv.constant() == Value::String("x")) has_x = true;
        }
      }
      if (has_x) {
        EXPECT_EQ(constants, 1u)
            << "left-reducible pattern emitted: " << cfd.ToString();
      }
    }
  }
}

/// Does X -> A hold on σ_{C=c}(rel), and over how much evidence? Straight
/// from the definition: among the live tuples with C = c, no NULL in X
/// and a non-NULL A, those agreeing on X must agree on A. The evidence is
/// the number of such tuples that share their X projection with another.
std::pair<bool, size_t> BruteForceSliceFd(const Relation& rel,
                                          const std::vector<size_t>& lhs,
                                          size_t rhs, size_t cond,
                                          const Value& c) {
  std::vector<std::pair<Row, std::vector<Value>>> groups;  // X -> A values
  rel.ForEach([&](TupleId, const Row& row) {
    if (!(row[cond] == c) || row[rhs].is_null()) return;
    Row key;
    for (size_t col : lhs) {
      if (row[col].is_null()) return;
      key.push_back(row[col]);
    }
    size_t g = 0;
    while (g < groups.size() && !(groups[g].first == key)) ++g;
    if (g == groups.size()) groups.emplace_back().first = std::move(key);
    groups[g].second.push_back(row[rhs]);
  });
  bool holds = true;
  size_t evidence = 0;
  for (const auto& [key, values] : groups) {
    for (const Value& v : values) holds = holds && v == values.front();
    if (values.size() >= 2) evidence += values.size();
  }
  return {holds, evidence};
}

TEST(CfdMinerTest, VariableCfdsMatchTheirDefinition) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Relation rel = RandomRelation(100 + seed, 30 + 5 * seed,
                                        {2, 3, 3, 4, 6});
    CfdMinerOptions options;
    options.max_lhs = 3;
    options.min_support = 2 + seed % 2;
    options.max_patterns_per_fd = seed % 3 == 0 ? 2 : 64;
    ASSERT_OK_AND_ASSIGN(auto mined, CfdMiner(&rel, options).Mine());

    // The mined variable rows, [C=c, rest=_] -> [_], per embedded FD.
    std::map<std::string, std::vector<std::string>> got;
    for (const cfd::Cfd& c : mined) {
      std::string fd;
      for (const std::string& a : c.lhs_attrs()) fd += a + ",";
      fd += "->" + c.rhs_attr();
      for (const cfd::PatternTuple& pt : c.tableau()) {
        if (pt.rhs.is_constant()) continue;
        for (size_t i = 0; i < pt.lhs.size(); ++i) {
          if (pt.lhs[i].is_constant()) {
            got[fd].push_back(c.lhs_attrs()[i] + "=" +
                              pt.lhs[i].constant().ToDisplayString());
          }
        }
      }
    }

    // The oracle's rows, in the miner's emission order: conditioning
    // attributes in X order, each one's values in first-touch order, up
    // to the pattern cap. Only an X -> A that fails globally is
    // conditioned, and only values with at least min_support tuples.
    std::map<std::string, std::vector<std::string>> want;
    const size_t ncols = rel.schema().size();
    for (const std::vector<size_t>& lhs : ColumnSets(ncols, options.max_lhs)) {
      if (lhs.size() < 2) continue;
      for (size_t rhs = 0; rhs < ncols; ++rhs) {
        if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) continue;
        if (semandaq::testing::BruteForceFdHolds(rel, lhs, rhs)) continue;
        std::string fd;
        for (size_t col : lhs) fd += rel.schema().attr(col).name + ",";
        fd += "->" + rel.schema().attr(rhs).name;
        std::vector<std::string> rows;
        for (size_t cond : lhs) {
          std::vector<std::pair<Value, size_t>> values;  // first-touch order
          rel.ForEach([&](TupleId, const Row& row) {
            if (row[cond].is_null()) return;
            size_t v = 0;
            while (v < values.size() && !(values[v].first == row[cond])) ++v;
            if (v == values.size()) values.emplace_back(row[cond], 0);
            ++values[v].second;
          });
          for (const auto& [value, size] : values) {
            if (rows.size() >= options.max_patterns_per_fd) break;
            if (size < options.min_support) continue;
            const auto [holds, evidence] =
                BruteForceSliceFd(rel, lhs, rhs, cond, value);
            if (holds && evidence >= options.min_support) {
              rows.push_back(rel.schema().attr(cond).name + "=" +
                             value.ToDisplayString());
            }
          }
        }
        if (!rows.empty()) want[fd] = std::move(rows);
      }
    }
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(CfdMinerTest, MinesAnEncodingWithoutHydratingRows) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 500;
  opts.noise_rate = 0.1;
  opts.seed = 23;
  const Relation source = workload::CustomerGenerator::Generate(opts).dirty;
  const relational::EncodedRelation source_codes(&source);

  // The same tuples behind a deferred row hydrator, as the storage loader
  // and the epochs hold them, encoded by the same chunks and dictionaries.
  bool hydrated = false;
  std::vector<uint8_t> live(source.live_data(),
                            source.live_data() + source.IdBound());
  const Relation lazy = Relation::FromStorage(
      source.name(), source.schema(), std::move(live), [&] {
        hydrated = true;
        std::vector<Row> rows;
        for (TupleId t = 0; t < source.IdBound(); ++t) {
          rows.push_back(source.row(t));
        }
        return rows;
      });
  const relational::EncodedRelation codes =
      relational::EncodedRelation::FromStorage(
          &lazy, source_codes.dictionaries(), source_codes.columns());

  CfdMinerOptions options;
  options.min_support = 2;
  ASSERT_OK_AND_ASSIGN(auto from_codes, CfdMiner(&codes, options).Mine());
  EXPECT_FALSE(hydrated) << "mining decoded a row";
  ASSERT_OK_AND_ASSIGN(auto from_rows, CfdMiner(&source, options).Mine());
  ASSERT_EQ(from_codes.size(), from_rows.size());
  for (size_t i = 0; i < from_rows.size(); ++i) {
    EXPECT_EQ(from_codes[i].ToString(), from_rows[i].ToString());
  }
}

}  // namespace
}  // namespace semandaq::discovery
