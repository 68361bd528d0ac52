#include "core/constraint_engine.h"

#include "cfd/cfd_parser.h"
#include "cfd/subsumption.h"
#include "cfd/tableau_store.h"
#include "common/string_util.h"

namespace semandaq::core {

using common::Status;

common::Status ConstraintEngine::AddCfd(cfd::Cfd cfd) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_->GetRelation(cfd.relation()));
  SEMANDAQ_RETURN_IF_ERROR(cfd.Resolve(rel->schema()));
  cfds_.push_back(std::move(cfd));
  return Status::OK();
}

common::Status ConstraintEngine::AddCfdsFromText(std::string_view text) {
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<cfd::Cfd> parsed, cfd::ParseCfdSet(text));
  for (cfd::Cfd& c : parsed) {
    SEMANDAQ_RETURN_IF_ERROR(AddCfd(std::move(c)));
  }
  return Status::OK();
}

common::Result<cfd::SatisfiabilityReport> ConstraintEngine::Validate(
    const std::string& relation) const {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_->GetRelation(relation));
  cfd::SatisfiabilityChecker checker(rel->schema());
  return checker.Check(CfdsFor(relation));
}

std::vector<cfd::Cfd> ConstraintEngine::CfdsFor(const std::string& relation) const {
  std::vector<cfd::Cfd> out;
  for (const cfd::Cfd& c : cfds_) {
    if (common::EqualsIgnoreCase(c.relation(), relation)) out.push_back(c);
  }
  return out;
}

size_t ConstraintEngine::PruneRedundant() {
  const size_t before = cfds_.size();
  std::vector<cfd::Cfd> pruned = cfd::RemoveSubsumed(cfds_);
  // RemoveSubsumed rebuilds CFDs without resolution state; re-resolve.
  for (cfd::Cfd& c : pruned) {
    const relational::Relation* rel = db_->FindRelation(c.relation());
    if (rel != nullptr) (void)c.Resolve(rel->schema());
  }
  cfds_ = std::move(pruned);
  return before - cfds_.size();
}

common::Status ConstraintEngine::Persist() {
  return cfd::TableauStore::Store(cfds_, db_);
}

common::Status ConstraintEngine::LoadPersisted() {
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<cfd::Cfd> loaded,
                            cfd::TableauStore::Load(*db_));
  cfds_.clear();
  for (cfd::Cfd& c : loaded) {
    SEMANDAQ_RETURN_IF_ERROR(AddCfd(std::move(c)));
  }
  return Status::OK();
}

}  // namespace semandaq::core
