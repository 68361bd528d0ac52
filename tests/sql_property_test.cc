// Property tests for the SQL substrate: on randomized relations, executor
// results must agree with a naive reference evaluation done in the test
// (independent code path, no shared logic with the engine).

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "sql/engine.h"
#include "test_util.h"

namespace semandaq::sql {
namespace {

using relational::DataType;
using relational::Database;
using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::Schema;
using relational::TupleId;
using relational::Value;

/// Random relation R(A, B, C) with small value domains (to force duplicate
/// keys, group collisions, and NULLs).
Relation RandomRelation(common::Rng* rng, size_t rows) {
  Relation rel{"r", Schema::AllStrings({"A", "B", "C"})};
  for (size_t i = 0; i < rows; ++i) {
    auto cell = [&](int domain) {
      if (rng->NextBool(0.1)) return Value::Null();
      return Value::String(std::string(1, static_cast<char>('a' + rng->NextBelow(
                                                                 domain))));
    };
    rel.MustInsert({cell(4), cell(3), cell(5)});
  }
  return rel;
}

class SqlProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlProperty, FilterEqualsReference) {
  common::Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.AddRelation(RandomRelation(&rng, 200)));
  const Relation* rel = db.FindRelation("r");
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(Relation got,
                       engine.Query("SELECT __tid FROM r WHERE A = 'a' AND "
                                    "(B = 'b' OR C IS NULL)"));
  std::set<TupleId> got_ids;
  got.ForEach([&](TupleId, const Row& row) { got_ids.insert(row[0].AsInt()); });

  std::set<TupleId> want_ids;
  rel->ForEach([&](TupleId tid, const Row& row) {
    const bool a = !row[0].is_null() && row[0].AsString() == "a";
    const bool b = !row[1].is_null() && row[1].AsString() == "b";
    const bool c_null = row[2].is_null();
    if (a && (b || c_null)) want_ids.insert(tid);
  });
  EXPECT_EQ(got_ids, want_ids);
}

TEST_P(SqlProperty, GroupCountEqualsReference) {
  common::Rng rng(GetParam() ^ 0xABCD);
  Database db;
  ASSERT_OK(db.AddRelation(RandomRelation(&rng, 300)));
  const Relation* rel = db.FindRelation("r");
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(
      Relation got,
      engine.Query("SELECT A, COUNT(*) AS n, COUNT(DISTINCT B) AS d FROM r "
                   "WHERE A IS NOT NULL GROUP BY A"));

  std::map<std::string, std::pair<int64_t, std::set<std::string>>> want;
  rel->ForEach([&](TupleId, const Row& row) {
    if (row[0].is_null()) return;
    auto& slot = want[row[0].AsString()];
    ++slot.first;
    if (!row[1].is_null()) slot.second.insert(row[1].AsString());
  });

  EXPECT_EQ(got.size(), want.size());
  got.ForEach([&](TupleId, const Row& row) {
    auto it = want.find(row[0].AsString());
    ASSERT_NE(it, want.end());
    EXPECT_EQ(row[1].AsInt(), it->second.first);
    EXPECT_EQ(row[2].AsInt(), static_cast<int64_t>(it->second.second.size()));
  });
}

TEST_P(SqlProperty, JoinEqualsReference) {
  common::Rng rng(GetParam() ^ 0x1234);
  Database db;
  ASSERT_OK(db.AddRelation(RandomRelation(&rng, 120)));
  // Second relation S(K, V) joining on r.A = s.K.
  Relation s{"s", Schema::AllStrings({"K", "V"})};
  for (size_t i = 0; i < 40; ++i) {
    s.MustInsert({rng.NextBool(0.1)
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>(
                                                         'a' + rng.NextBelow(5)))),
                  Value::String(std::to_string(i))});
  }
  ASSERT_OK(db.AddRelation(std::move(s)));
  const Relation* r = db.FindRelation("r");
  const Relation* s2 = db.FindRelation("s");
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(
      Relation got,
      engine.Query("SELECT COUNT(*) FROM r, s WHERE r.A = s.K"));

  int64_t want = 0;
  r->ForEach([&](TupleId, const Row& rr) {
    if (rr[0].is_null()) return;
    s2->ForEach([&](TupleId, const Row& sr) {
      if (sr[0].is_null()) return;
      if (rr[0] == sr[0]) ++want;
    });
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.cell(0, 0).AsInt(), want);
}

TEST_P(SqlProperty, OrderByIsTotalAndStable) {
  common::Rng rng(GetParam() ^ 0x77);
  Database db;
  ASSERT_OK(db.AddRelation(RandomRelation(&rng, 150)));
  Engine engine(&db);
  ASSERT_OK_AND_ASSIGN(Relation got,
                       engine.Query("SELECT A, B FROM r ORDER BY A, B DESC"));
  // Verify the ordering invariant pairwise.
  Row prev;
  bool first = true;
  got.ForEach([&](TupleId, const Row& row) {
    if (!first) {
      const int ca = prev[0].Compare(row[0]);
      EXPECT_LE(ca, 0);
      if (ca == 0) {
        EXPECT_GE(prev[1].Compare(row[1]), 0);  // DESC on B
      }
    }
    prev = row;
    first = false;
  });
  EXPECT_EQ(got.size(), 150u);
}

TEST_P(SqlProperty, DistinctMatchesSetSemantics) {
  common::Rng rng(GetParam() ^ 0x3141);
  Database db;
  ASSERT_OK(db.AddRelation(RandomRelation(&rng, 250)));
  const Relation* rel = db.FindRelation("r");
  Engine engine(&db);
  ASSERT_OK_AND_ASSIGN(Relation got, engine.Query("SELECT DISTINCT A, B FROM r"));
  std::set<std::pair<std::string, std::string>> want;
  rel->ForEach([&](TupleId, const Row& row) {
    want.emplace(row[0].ToDisplayString(), row[1].ToDisplayString());
  });
  EXPECT_EQ(got.size(), want.size());
}

/// Relation r(A, B, N, C) — N an INT column — and a pattern tableau
/// tp(A, B, N, C) of 1-4 rows in the detection queries' encoding: NULL is
/// the wildcard, constants may be absent from r, and tp.N holds STRING
/// constants, which never equal r's INT cells.
void AddPatternTables(common::Rng* rng, Database* db) {
  auto letter = [&](int domain) {
    return Value::String(std::string(1, static_cast<char>('a' + rng->NextBelow(domain))));
  };
  relational::Schema rs;
  for (const char* name : {"A", "B", "N", "C"}) {
    ASSERT_OK(rs.AddAttribute(
        {name, name[0] == 'N' ? DataType::kInt : DataType::kString, {}}));
  }
  Relation r{"r", std::move(rs)};
  for (size_t i = 0; i < 160; ++i) {
    auto cell = [&](Value v) { return rng->NextBool(0.1) ? Value::Null() : v; };
    r.MustInsert({cell(letter(4)), cell(letter(3)),
                  cell(Value::Int(static_cast<int64_t>(rng->NextBelow(3)))),
                  cell(letter(3))});
  }
  ASSERT_OK(db->AddRelation(std::move(r)));

  Relation tp{"tp", Schema::AllStrings({"A", "B", "N", "C"})};
  // The first row is copied from a tuple of r (its NULLs become wildcards),
  // so something always matches.
  const Relation& rel = *db->FindRelation("r");
  const Row& from = rel.row(static_cast<TupleId>(rng->NextBelow(rel.size())));
  tp.MustInsert({from[0], from[1], Value::Null(), from[3]});
  const size_t rows = rng->NextBelow(4);
  for (size_t i = 0; i < rows; ++i) {
    // Domains one letter wider than r's: 'e' / 'd' are absent constants.
    auto pattern = [&](double wildcard, Value constant) {
      return rng->NextBool(wildcard) ? Value::Null() : constant;
    };
    tp.MustInsert({pattern(0.4, letter(5)), pattern(0.4, letter(4)),
                   pattern(0.4, Value::String(std::to_string(rng->NextBelow(3)))),
                   pattern(0.3, letter(3))});
  }
  ASSERT_OK(db->AddRelation(std::move(tp)));
}

/// Naive equality for the reference: same type and same value.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null() || a.type() != b.type()) return false;
  return a.type() == DataType::kInt ? a.AsInt() == b.AsInt()
                                    : a.AsString() == b.AsString();
}

using TidPairs = std::vector<std::pair<TupleId, TupleId>>;

TidPairs TidPairsOf(const Relation& result) {
  TidPairs out;
  result.ForEach([&](TupleId, const Row& row) {
    out.emplace_back(row[0].AsInt(), row[1].AsInt());
  });
  return out;
}

TEST_P(SqlProperty, PatternMatchJoinEqualsReference) {
  common::Rng rng(GetParam() ^ 0x9A77);
  Database db;
  AddPatternTables(&rng, &db);
  const Relation& r = *db.FindRelation("r");
  const Relation& tp = *db.FindRelation("tp");

  // The generated detection queries' pattern match (mirrored `=` on B),
  // which the executor joins without the cross product, and the same
  // predicate in a shape it does not take, which runs the cross product
  // plus filter.
  const std::string match =
      "(t.A = tp.A OR tp.A IS NULL) AND (tp.B = t.B OR tp.B IS NULL) AND "
      "(t.N = tp.N OR tp.N IS NULL)";
  const std::string fallback =
      "(tp.A IS NULL OR t.A = tp.A OR 0 = 1) AND (tp.B IS NULL OR tp.B = t.B "
      "OR 0 = 1) AND (tp.N IS NULL OR t.N = tp.N OR 0 = 1)";
  // The plain match, and Q_C's shape: a residual filter after the join.
  const std::string qc = " AND tp.C IS NOT NULL AND t.C <> tp.C";

  TidPairs want_match;
  TidPairs want_qc;
  r.ForEach([&](TupleId t, const Row& row) {
    tp.ForEach([&](TupleId p, const Row& pat) {
      for (size_t c = 0; c < 3; ++c) {
        if (!pat[c].is_null() && !SameValue(row[c], pat[c])) return;
      }
      want_match.emplace_back(t, p);
      if (!pat[3].is_null() && !row[3].is_null() && !SameValue(row[3], pat[3])) {
        want_qc.emplace_back(t, p);
      }
    });
  });
  ASSERT_FALSE(want_match.empty()) << "vacuous: no tuple matches the tableau";

  const EncodedRelation enc_r(&r);
  const EncodedRelation enc_tp(&tp);
  for (const bool encoded : {false, true}) {
    SCOPED_TRACE(encoded ? "with encoded provider" : "without provider");
    Engine engine(&db);
    if (encoded) {
      engine.set_encoded_provider([&](const Relation* rel) {
        return rel == &r ? &enc_r : rel == &tp ? &enc_tp : nullptr;
      });
    }
    for (const std::string& where : {match, fallback}) {
      const std::string select = "SELECT t.__tid, tp.__tid FROM r t, tp WHERE " + where;
      ASSERT_OK_AND_ASSIGN(Relation got, engine.Query(select));
      EXPECT_EQ(TidPairsOf(got), want_match) << select;
      ASSERT_OK_AND_ASSIGN(got, engine.Query(select + qc));
      EXPECT_EQ(TidPairsOf(got), want_qc) << select << qc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace semandaq::sql
