#ifndef SEMANDAQ_SQL_EXECUTOR_H_
#define SEMANDAQ_SQL_EXECUTOR_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/cancel.h"
#include "common/status.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "sql/binder.h"

namespace semandaq::sql {

/// Resolves a FROM table to its warm dictionary-encoded snapshot, or
/// nullptr when none exists. The executor validates the snapshot itself
/// (in sync, shape-matching) before trusting it, so providers can hand
/// back whatever the facade has without freshness bookkeeping.
using EncodedProvider = std::function<const relational::EncodedRelation*(
    const relational::Relation*)>;

/// Evaluates a bound query and materializes the result as a relation.
///
/// Physical strategy: left-deep join in FROM order. Equality conjuncts
/// between the joined prefix and the next table become composite-key hash
/// joins (SQL NULL semantics: null keys never match). Without one, the
/// pattern-match conjuncts `(p.X = t.Y OR t.Y IS NULL)` of the generated
/// CFD detection queries (p in the prefix, t a pattern tableau) become a
/// pattern-match join: each scanned row of t compiles to equality checks
/// on its non-NULL cells (NULL is the wildcard), and each prefix row is
/// paired only with the rows whose checks all hold, in the cross
/// product's prefix-major order. Any other next table is the same join
/// with no checks: the cross product.
/// Everything else is a nested-loop filter applied as soon as all
/// referenced tables are joined. Intermediate rows live in one flat
/// buffer, a row pointer and tuple id per FROM table per row, so no row
/// allocates on its own. Aggregation is hash-based with per-group states
/// for COUNT / COUNT DISTINCT / SUM / AVG / MIN / MAX. NULL comparison
/// follows three-valued logic throughout.
///
/// With an EncodedProvider, tables whose warm snapshot is in sync get the
/// code-compiled fast paths — results are row-for-row identical to the
/// value paths (the group emission order of an un-ORDER-BY'd aggregate may
/// differ, as it always could between hash-map states):
///  * `col = 'string literal'` conjuncts on a base scan compile to one
///    dictionary lookup + a FilterEqMulti32/MaskLive kernel pass over the
///    code column (only non-NULL string literals: a numeric literal can
///    cross-type equal a differently-coded cell, which codes cannot see);
///  * hash joins whose every key pair references the same column of the
///    same relation (the self-join shape of detection queries) key on
///    uint32 codes instead of hashed Values;
///  * GROUP BY over plain column refs of encoded tables keys on codes too.
///
/// `cancel` (common/cancel.h) is checked every few thousand rows in the
/// scan, join, aggregation, and projection loops; a tripped token turns
/// the query into Status::Cancelled / Status::DeadlineExceeded. Queries
/// only read the database and materialize a private result, so stopping
/// publishes nothing.
common::Result<relational::Relation> Execute(const BoundQuery& query,
                                             std::string_view result_name = "result",
                                             const EncodedProvider& encoded = {},
                                             common::CancelToken* cancel = nullptr);

}  // namespace semandaq::sql

#endif  // SEMANDAQ_SQL_EXECUTOR_H_
