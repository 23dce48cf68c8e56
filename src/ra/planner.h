#ifndef MVIEW_RA_PLANNER_H_
#define MVIEW_RA_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "predicate/condition.h"
#include "ra/eval.h"
#include "ra/input.h"
#include "relational/relation.h"

namespace mview {

namespace util {
class Arena;
class Cancellation;
}  // namespace util

/// A select–project–join query over a list of inputs:
/// `π_projection(σ_condition(inputs[0] × inputs[1] × … ))`.
///
/// The combined scheme is the concatenation of the input schemes (attribute
/// names must be unique across inputs, as in the paper's Definition 4.3);
/// the condition and projection refer to it by name.  A null condition means
/// `true`; an empty projection keeps all attributes.
struct SpjQuery {
  std::vector<const RelationInput*> inputs;
  const Condition* condition = nullptr;
  std::vector<std::string> projection;
};

/// Counters describing how much work a plan performed; the benchmark
/// harness aggregates these to report the paper's cost comparisons in
/// machine-independent units as well as wall-clock time.
struct PlanStats {
  int64_t rows_scanned = 0;         // tuples streamed from inputs
  int64_t probes = 0;               // index probes issued
  int64_t intermediate_tuples = 0;  // partial join results produced
  int64_t output_tuples = 0;        // tuples emitted (pre-aggregation)

  PlanStats& operator+=(const PlanStats& other);
};

/// A cache of materialized scans and join hash tables shared by several
/// plan executions over the *same* condition (the truth-table rows of
/// Section 5.3/5.4 all share the view condition and most inputs).  This is
/// the paper's "re-using partial subexpressions appearing in multiple rows";
/// bench E9 ablates it.  (The *cross-round* reuse of these tables lives in
/// `JoinStateCache`, which keys on stable slot identities instead.)
///
/// Entries are keyed by input identity, so a cache must never outlive the
/// inputs it indexes, and must not be shared across different conditions.
/// Debug builds assert this: each entry records its input's
/// `debug_serial()`, and `Find` trips when a freed input's address was
/// reused by a newer one.
class PlannerCache {
 public:
  /// A filtered, materialized input with an optional equi-join hash index.
  struct Table {
    std::vector<std::pair<Tuple, int64_t>> rows;
    // Key tuple (values of key_attrs in order) → indices into rows.
    std::unordered_map<Tuple, std::vector<size_t>> index;
    // Raw-key mirror of `index`, populated only when `int_keyed`: the batch
    // pipeline probes it with an int64 straight out of a column, skipping
    // the key-tuple build and the Tuple hash.  Every mutation of `index`
    // (FillTable, JoinStateCache::AddRow/RemoveRow) maintains the mirror.
    std::unordered_map<int64_t, std::vector<size_t>> int_index;
    // Flat row-major mirror of `rows`' values, populated only when
    // `all_int`: the batch pipeline copies matched rows into merged
    // batches straight from this array (row i at [i*arity, (i+1)*arity)),
    // skipping the per-value variant reads of `SetFromTuple`.  Maintained
    // at the same three sites as `int_index`.
    std::vector<int64_t> int_rows;
    std::vector<size_t> key_attrs;  // empty for plain materializations
    bool int_keyed = false;  // key_attrs is one kInt64 attribute
    bool all_int = false;    // every input attribute is kInt64
    uint64_t debug_serial = 0;      // RelationInput::debug_serial() at Create
  };

  /// Returns the cached table for (input, key_attrs), or nullptr.
  Table* Find(const RelationInput* input, const std::vector<size_t>& key);

  /// Inserts and returns an empty table for (input, key_attrs).
  Table* Create(const RelationInput* input, const std::vector<size_t>& key);

  size_t size() const { return tables_.size(); }

 private:
  std::map<std::pair<const RelationInput*, std::vector<size_t>>,
           std::unique_ptr<Table>>
      tables_;
};

/// Work counters of the columnar batch pipeline (see `EvalContext`).
struct BatchEvalStats {
  int64_t batches = 0;  // ColumnBatch chunks allocated
  int64_t rows = 0;     // rows committed into batches across all stages

  BatchEvalStats& operator+=(const BatchEvalStats& other) {
    batches += other.batches;
    rows += other.rows;
    return *this;
  }
};

/// Execution context the differential maintainer threads into the planner.
/// Every evaluation runs the columnar pipeline: rows move through the join
/// order in `ColumnBatch` chunks, selections produce selection vectors, and
/// projection is column shuffling.  `arena` (scoped to the maintenance
/// round) holds the chunks when set; otherwise each call allocates them in
/// an arena of its own, freed on return.
struct EvalContext {
  util::Arena* arena = nullptr;
  BatchEvalStats* batch_stats = nullptr;  // optional activity counters
  // Cooperative cancellation token (null = uncancellable).  The executor
  // polls it per join step and per allocated batch — never per tuple — so
  // an expired statement deadline unwinds the evaluation mid-round at a
  // bounded cost (see util/deadline.h for the poll-point contract).
  const util::Cancellation* cancel = nullptr;
};

/// A compiled select–project–join plan: everything about
/// `π_projection(σ_condition(I_0 × … × I_{n−1}))` that depends only on the
/// input *schemes*, resolved once — input offsets and arities, single-input
/// filters and cross-input non-equality atoms as `BoundAtom`s, equality
/// join predicates, the residual DNF, projection indices, and the combined
/// and output schemes.  Executing the plan only picks a join order from the
/// inputs' `SizeHint`s and runs the batch pipeline, so a caller evaluating
/// the same query shape many times (every truth-table row of every commit
/// of one view) pays for name resolution once.
///
/// The plan is immutable after construction: several executions may run
/// concurrently over distinct inputs.  Per-execution state — join order,
/// bound set, step-filter placement — lives in the executor.
class SpjPlan {
 public:
  /// Compiles the plan.  `condition` (null = `true`) and `projection`
  /// (empty = every attribute) name attributes of the concatenated input
  /// schemes; neither is referenced after construction.  Throws on clashing
  /// attribute names, unknown variables, type mismatches and unknown
  /// projected attributes.
  SpjPlan(std::vector<Schema> input_schemas, const Condition* condition,
          const std::vector<std::string>& projection);

  /// Evaluates the plan over `inputs` (one per compiled scheme, position by
  /// position, each with exactly that scheme) with counting semantics
  /// (Section 5.2: join multiplies multiplicities, projection sums them)
  /// and adds the result to `out` with counts scaled by `multiplier`.
  ///
  /// The executor pushes single-input atoms below the joins, joins on the
  /// equality atoms common to every disjunct (hash or index join), orders
  /// joins greedily by input size (preferring connected inputs), and
  /// applies the rest of the condition as a residual filter.  `ctx` (may be
  /// null) supplies the arena, activity counters and cancellation token
  /// (see `EvalContext`); `cache` (may be null) shares materialized inputs
  /// across executions over the same inputs.
  void Execute(const std::vector<const RelationInput*>& inputs,
               CountedRelation* out, int64_t multiplier = 1,
               PlanStats* stats = nullptr, PlannerCache* cache = nullptr,
               const EvalContext* ctx = nullptr) const;

  /// The projected scheme of the plan's output tuples.
  const Schema& output_schema() const { return output_; }

 private:
  class Executor;

  struct Input {
    Schema schema;
    size_t offset = 0;  // position of this input's attributes in the
                        // combined row
    size_t arity = 0;
    bool all_int = false;  // every attribute is kInt64
    // Single-input core atoms, bound to the input's own columns (tuple
    // tests: table builds, index probes, the join-state cache) ...
    std::vector<BoundAtom> filters;
    // ... and to its columns inside a combined-scheme batch.
    std::vector<BoundAtom> batch_filters;
  };

  // An equality join predicate `a.attr_a = b.attr_b + offset` between two
  // inputs, extracted from the condition's conjunctive core.
  struct JoinPred {
    size_t input_a = 0;
    size_t attr_a = 0;  // local attribute index within input_a
    size_t input_b = 0;
    size_t attr_b = 0;
    int64_t offset = 0;
  };

  // A cross-input non-equality core atom, bound to the combined scheme and
  // enforced at the join step where both of its inputs are bound.
  struct StepFilter {
    BoundAtom atom;
    size_t input_a = 0;
    size_t input_b = 0;
  };

  std::vector<Input> inputs_;
  Schema combined_;
  Schema output_;
  std::vector<size_t> projection_indices_;
  std::vector<JoinPred> join_preds_;
  std::vector<StepFilter> step_filters_;
  bool always_false_ = false;  // σ_false: every execution is empty
  bool need_residual_ = false;
  BoundDnf residual_;
};

/// One-shot evaluation of `query`: compiles an `SpjPlan` from the inputs'
/// schemes and executes it once (see `SpjPlan::Execute`).
void EvaluateSpjInto(const SpjQuery& query, CountedRelation* out,
                     int64_t multiplier = 1, PlanStats* stats = nullptr,
                     PlannerCache* cache = nullptr,
                     const EvalContext* ctx = nullptr);

/// Convenience wrapper returning a fresh `CountedRelation`.
CountedRelation EvaluateSpj(const SpjQuery& query, PlanStats* stats = nullptr,
                            PlannerCache* cache = nullptr);

/// Returns the concatenated (combined) scheme of the query's inputs.
Schema CombinedSchema(const SpjQuery& query);

}  // namespace mview

#endif  // MVIEW_RA_PLANNER_H_
