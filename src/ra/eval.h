#ifndef MVIEW_RA_EVAL_H_
#define MVIEW_RA_EVAL_H_

#include <cstdint>
#include <vector>

#include "db/database.h"
#include "predicate/condition.h"
#include "ra/batch.h"
#include "ra/expr.h"
#include "relational/relation.h"

namespace mview {

/// Infers the output scheme of `expr` over `db`'s catalog, validating
/// conditions, projections, and join compatibility.  Throws on errors.
Schema InferSchema(const Expr& expr, const Database& db);

/// Evaluates `expr` against `db` with counting semantics (Section 5.2):
/// base tuples have multiplicity one, join multiplies multiplicities,
/// projection sums them, union adds, difference subtracts.
///
/// This straightforward recursive evaluator is the semantic oracle for the
/// planner and the differential machinery; correctness tests compare both
/// against it.
CountedRelation Evaluate(const Expr& expr, const Database& db);

/// An `Atom` with its variables resolved to column positions of the batch
/// it will be evaluated over — the per-row name lookups of
/// `Atom::Evaluate` hoisted out of the hot loop.  `offset` keeps the exact
/// semantics of `x op y + c` (compare `x − c` against `y`, avoiding
/// overflow of `y + c`), so batch and tuple evaluation agree bit-for-bit.
struct BoundAtom {
  size_t lhs_col = 0;
  CompareOp op = CompareOp::kEq;
  bool var_var = false;
  size_t rhs_col = 0;   // when var_var
  int64_t offset = 0;   // the `c` of `x op y + c`; only with var_var
  Value rhs_const;      // when !var_var
};

/// Resolves `atom` against `schema`, shifting every resolved column by
/// `col_offset` (an input's position inside a combined-scheme batch).
BoundAtom BindAtom(const Atom& atom, const Schema& schema,
                   size_t col_offset = 0);

/// Evaluates one bound atom against row `row` of `batch`; identical
/// semantics to `Atom::Evaluate` on the materialized row.
bool EvalBoundAtom(const ColumnBatch& batch, size_t row, const BoundAtom& atom);

/// The tuple twin: evaluates `atom` against `tuple` (the scheme it was
/// bound against, with no column offset).
bool EvalBoundAtom(const Tuple& tuple, const BoundAtom& atom);

/// The selection kernel: refines the selection vector `sel` (holding `n`
/// row ids of `batch`) to the rows passing *every* atom of the
/// conjunction, preserving order.  Returns the surviving count.
size_t SelectConjunction(const ColumnBatch& batch,
                         const std::vector<BoundAtom>& atoms, uint32_t* sel,
                         size_t n);

/// A full DNF condition bound to batch columns; rows pass when any
/// disjunct's atoms all hold (an empty DNF is `false`, a DNF containing an
/// empty conjunction accepts everything — matching `Condition`).
using BoundDnf = std::vector<std::vector<BoundAtom>>;

/// Binds every atom of `condition` against `schema`.
BoundDnf BindCondition(const Condition& condition, const Schema& schema);

/// True when `tuple` (the scheme `dnf` was bound against) satisfies the
/// bound condition — the per-row test of DML WHERE clauses and view reads,
/// with every column resolved once up front instead of by name per row.
/// Identical semantics to `Condition::Evaluate`, including the `x − c`
/// offset form.
bool EvalBoundDnf(const Tuple& tuple, const BoundDnf& dnf);

/// Refines `sel` to the rows of `batch` satisfying the bound condition.
size_t SelectDnf(const ColumnBatch& batch, const BoundDnf& dnf, uint32_t* sel,
                 size_t n);

}  // namespace mview

#endif  // MVIEW_RA_EVAL_H_
