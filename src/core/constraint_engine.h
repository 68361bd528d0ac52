#ifndef SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_
#define SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "cfd/cfd.h"
#include "cfd/satisfiability.h"
#include "common/status.h"
#include "relational/database.h"

namespace semandaq::core {

/// The constraint engine, "the core of SEMANDAQ" (paper §2): manages the
/// CFD set, validates that it "makes sense" (satisfiability analysis), and
/// persists CFDs relationally through cfd::TableauStore. Constraints
/// discovered from reference data arrive through Semandaq::Mine.
class ConstraintEngine {
 public:
  /// The database must outlive the engine. Not owned.
  explicit ConstraintEngine(relational::Database* db) : db_(db) {}

  /// Adds one CFD; it must resolve against its target relation's schema.
  common::Status AddCfd(cfd::Cfd cfd);

  /// Parses and adds CFDs in the textual notation of cfd/cfd_parser.h.
  common::Status AddCfdsFromText(std::string_view text);

  /// Runs the consistency analysis over the CFDs targeting `relation` —
  /// "users are informed whether the specified set of CFDs makes sense".
  common::Result<cfd::SatisfiabilityReport> Validate(
      const std::string& relation) const;

  /// All managed CFDs (resolved), in insertion order.
  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

  /// The subset targeting one relation.
  std::vector<cfd::Cfd> CfdsFor(const std::string& relation) const;

  /// Drops CFDs and tableau rows that are syntactically implied by other
  /// members of the set (see cfd/subsumption.h) — mined sets in particular
  /// carry many redundant rows. Returns how many CFDs were removed.
  size_t PruneRedundant();

  /// Writes the tableaux into the database (relational CFD storage).
  common::Status Persist();

  /// Reloads the CFD set from a previously persisted encoding, replacing
  /// the in-memory set.
  common::Status LoadPersisted();

  void Clear() { cfds_.clear(); }
  size_t size() const { return cfds_.size(); }

 private:
  relational::Database* db_;
  std::vector<cfd::Cfd> cfds_;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_
