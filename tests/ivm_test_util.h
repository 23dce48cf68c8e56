#ifndef MVIEW_TESTS_IVM_TEST_UTIL_H_
#define MVIEW_TESTS_IVM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "db/transaction.h"
#include "ivm/differential.h"
#include "ivm/view_def.h"
#include "ra/eval.h"
#include "ra/expr.h"

namespace mview::testing {

/// The reference oracle: the view definition itself, evaluated naively as
/// `π_X(σ_C(ρ(r1) × ρ(r2) × …))` by the recursive expression evaluator
/// (ra/eval.h).  It shares no code with the planner (ra/planner.cc) that
/// both differential maintenance and `FullEvaluate` run on, so agreement
/// with it is evidence rather than self-consistency.
inline CountedRelation ReferenceEvaluate(const ViewDefinition& def,
                                         const Database& db) {
  ExprPtr product;
  for (const BaseRef& base : def.bases()) {
    ExprPtr input = Expr::Base(base.relation);
    if (!base.aliases.empty()) {
      const Schema& schema = db.Get(base.relation).schema();
      std::map<std::string, std::string> renames;
      for (size_t i = 0; i < base.aliases.size(); ++i) {
        renames[schema.attribute(i).name] = base.aliases[i];
      }
      input = Expr::Rename(input, std::move(renames));
    }
    product = product == nullptr ? input : Expr::Product(product, input);
  }
  ExprPtr expr = Expr::Select(product, def.condition());
  if (!def.projection().empty()) expr = Expr::Project(expr, def.projection());
  return Evaluate(*expr, db);
}

/// Runs one transaction through differential maintenance and verifies the
/// result against the reference oracle: materializes the view, computes
/// the delta on the pre-state, applies the transaction, applies the delta,
/// and EXPECTs both the maintained view and a from-scratch `FullEvaluate`
/// of the post-state to equal `ReferenceEvaluate`.  Returns the maintained
/// view.
inline CountedRelation CheckMaintenance(
    Database* db, const ViewDefinition& def, const Transaction& txn,
    MaintenanceOptions options = MaintenanceOptions{},
    MaintenanceStats* stats = nullptr) {
  DifferentialMaintainer maintainer(def, db, options);
  CountedRelation view = maintainer.FullEvaluate();
  TransactionEffect effect = txn.Normalize(*db);
  ViewDelta delta = maintainer.ComputeDelta(effect, stats);
  effect.ApplyTo(db);
  delta.ApplyTo(&view);
  CountedRelation expected = ReferenceEvaluate(def, *db);
  EXPECT_TRUE(view.SameContents(expected))
      << "view " << def.ToString() << "\nmaintained:\n"
      << view.ToString() << "expected:\n"
      << expected.ToString();
  EXPECT_TRUE(maintainer.FullEvaluate().SameContents(expected))
      << "view " << def.ToString() << ": FullEvaluate disagrees with the "
      << "reference";
  return view;
}

}  // namespace mview::testing

#endif  // MVIEW_TESTS_IVM_TEST_UTIL_H_
