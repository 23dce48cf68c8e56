#ifndef MVIEW_IVM_DIFFERENTIAL_H_
#define MVIEW_IVM_DIFFERENTIAL_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "db/transaction.h"
#include "ivm/delta.h"
#include "ivm/irrelevance.h"
#include "ivm/view_def.h"
#include "ra/join_cache.h"
#include "ra/planner.h"
#include "relational/partition.h"
#include "util/arena.h"

namespace mview {

/// How the view delta is decomposed into delta joins.
enum class DeltaStrategy {
  /// The paper's truth-table expansion (Section 5.3): up to `2^k − 1` rows
  /// per tag for `k` modified relations, each row joining whole parts.
  kTruthTable,
  /// Telescoped decomposition — the direction of the paper's closing remark
  /// that "efficient solutions are being investigated": the standard
  /// rewriting  Π new_i − Π old_i = Σ_j new_{<j} ⋈ (i_j − d_j) ⋈ old_{>j},
  /// giving at most 2k terms, each anchored at one small delta.  The two
  /// strategies produce identical deltas (property-tested); bench E7/E9
  /// compare their costs.
  kTelescoped,
};

/// Tuning knobs for differential maintenance; each corresponds to a design
/// choice the paper discusses and a benchmark ablates.
struct MaintenanceOptions {
  /// Run Algorithm 4.1 over the transaction's tuples before re-evaluation
  /// (Section 4); off = treat every update as relevant.
  bool use_irrelevance_filter = true;

  /// Share materialized scans and join hash tables across truth-table rows
  /// (the paper's "re-using partial subexpressions", Section 5.3/5.4).
  bool reuse_subexpressions = true;

  /// Delta-join decomposition (see `DeltaStrategy`).
  DeltaStrategy strategy = DeltaStrategy::kTruthTable;

  /// Keep the planner's clean-input join tables alive *across* transactions
  /// in a per-view `JoinStateCache`, updated by each round's normalized
  /// deltas (O(|delta|)) instead of rebuilt from the base (O(|base|)) —
  /// the cross-transaction extension of `reuse_subexpressions`; bench E16
  /// measures it.
  bool enable_join_cache = true;

  /// Byte budget for the per-view join-state cache; least-recently-used
  /// entries are evicted past it at round boundaries.
  size_t join_cache_budget_bytes = size_t{256} << 20;

  /// How many row-hash slices `SCRUB VIEW … PARTITION` walks through
  /// `FullEvaluateSlice` (SQL `PARTITIONS n`), in [1, kMaxPartitions].
  /// Maintenance ignores it: every round is one serial evaluation.
  uint32_t partition_count = 1;
};

/// Wall-clock nanoseconds spent in each phase of the commit pipeline,
/// aggregated per view (filter/differential/apply) or per commit
/// (normalize) by the `ViewManager`'s `MetricsRegistry`.
struct PhaseBreakdown {
  int64_t normalize_nanos = 0;     // Transaction::Normalize (Section 3)
  int64_t filter_nanos = 0;        // Algorithm 4.1 irrelevance filtering
  int64_t differential_nanos = 0;  // Algorithm 5.1 delta computation
  int64_t apply_nanos = 0;         // delta application / recompute

  PhaseBreakdown& operator+=(const PhaseBreakdown& other);
};

/// Work counters for maintenance, aggregated per view by the `ViewManager`
/// and reported by the benchmark harness.
struct MaintenanceStats {
  int64_t transactions = 0;          // transactions routed to this view
  int64_t skipped_irrelevant = 0;    // transactions dropped entirely
  int64_t updates_seen = 0;          // tuples examined by the filter
  int64_t updates_filtered = 0;      // tuples proved irrelevant
  int64_t rows_enumerated = 0;       // truth-table rows considered
  int64_t rows_evaluated = 0;        // rows with all parts non-empty
  int64_t delta_inserts = 0;         // view tuples inserted (multiplicity)
  int64_t delta_deletes = 0;         // view tuples deleted (multiplicity)
  int64_t full_reevaluations = 0;
  int64_t refreshes = 0;             // deferred-mode refresh operations
  int64_t quarantines = 0;           // times this view entered quarantine
  int64_t repairs = 0;               // successful heals (full recompute)
  int64_t maintenance_nanos = 0;     // time spent maintaining this view
  // Join-state cache activity.  The first three are cumulative counters;
  // `cache_bytes` is a gauge overwritten with the cache's current size
  // after every round (operator+= sums it, which aggregates per-view
  // gauges into a total across views).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes = 0;
  // Columnar batch pipeline activity of the maintenance rounds.
  // The first two are cumulative; the arena pair are gauges overwritten
  // after every round (operator+= sums them across views, like
  // `cache_bytes`): `arena_bytes` is the scratch memory currently reserved
  // by the per-round arena, `arena_high_water` the largest live footprint
  // any round reached.
  int64_t batch_batches = 0;
  int64_t batch_rows = 0;
  int64_t arena_bytes = 0;
  int64_t arena_high_water = 0;
  PlanStats plan;

  MaintenanceStats& operator+=(const MaintenanceStats& other);
};

/// The per-base inputs of one differential computation: which tuples were
/// inserted, which deleted, and what to subtract from the relation's
/// *current* contents to recover the clean old part (`r_old − d`).
///
/// For commit-time maintenance the database holds the pre-state and
/// `subtract = deletes`.  For deferred snapshot refresh the database holds
/// the post-state and `subtract = inserts` (since
/// `r_old − d = r_now − i`); see `ViewManager::Refresh`.
struct BaseParts {
  const Relation* inserts = nullptr;  // null or empty = none
  const Relation* deletes = nullptr;
  const Relation* subtract = nullptr;
};

/// Differential re-evaluation of one SPJ view (Section 5, Algorithm 5.1).
///
/// `ComputeDelta` expands the view expression over the modified relations'
/// parts — the binary truth table of Section 5.3 generalized to mixed
/// insert/delete transactions via the tag algebra of Example 5.4: each base
/// contributes its clean old part, its deletions, or its insertions; rows
/// mixing insertions with deletions are pruned (`insert ⋈ delete → ignore`),
/// the all-clean row is the unchanged view and is never evaluated, and rows
/// naming an empty part vanish, leaving at most `2^k − 1` joins per tag for
/// `k` modified relations.  Rows containing a deletion produce delete-tagged
/// view tuples; the rest produce insert-tagged ones.
class DifferentialMaintainer {
 public:
  /// Compiles maintenance machinery for `def` over `db` (whose relations
  /// must outlive this object, with their schemes unchanged) — including
  /// the one `SpjPlan` every later evaluation executes.  Throws when the
  /// definition is invalid.
  DifferentialMaintainer(ViewDefinition def, const Database* db,
                         MaintenanceOptions options = {});

  /// Computes the view delta for a transaction's net effect.  The database
  /// must still hold the *pre-transaction* state (the paper's assumption
  /// (a), Section 5).  Irrelevant tuples are filtered per Algorithm 4.1
  /// when enabled.  When `phases` is non-null, filter and differential time
  /// are accumulated into it separately.
  ///
  /// One round is three steps: `Prepare` (the screen), `ComputePartition`
  /// (the one evaluation), `FinalizeRoundStats` (the gauges).  When the
  /// join-state cache is enabled the evaluation runs one cache *round*:
  /// entries are validated and synchronized with the effect's normalized
  /// deltas, so a steady-state call touches O(|delta|) cached rows instead
  /// of rehashing the clean bases.
  ///
  /// Thread-safety: reads only the database pre-state and mutates only this
  /// maintainer's cache and arena; concurrent calls on the same maintainer
  /// are not safe.
  ///
  /// `cancel` (optional) threads a cooperative cancellation token into the
  /// evaluation loops; an expired deadline unwinds the round cleanly (the
  /// cache round aborts via its guard, nothing observable was mutated) and
  /// throws `DeadlineExceededError`.
  ViewDelta ComputeDelta(const TransactionEffect& effect,
                         MaintenanceStats* stats = nullptr,
                         PhaseBreakdown* phases = nullptr,
                         const util::Cancellation* cancel = nullptr) const;

  /// The screened inputs of one maintenance round, produced by `Prepare`
  /// and consumed by `ComputePartition`.  Owns every filtered relation its
  /// parts point into; the source effect must stay alive (the cache-round
  /// slots reference its unfiltered deltas).
  struct PreparedDelta {
    /// Screened per-base parts (`subtract` = the unfiltered deletes).
    std::vector<BaseParts> parts;
    /// Join-cache round tokens built from the *unfiltered* deltas (empty
    /// when the cache is disabled).
    std::vector<JoinStateCache::SlotUpdate> slots;
    std::vector<std::unique_ptr<Relation>> owned;
  };

  /// Runs the irrelevance screen over the effect — the O(|delta|) prologue
  /// of a round.  Accumulates filter time and counters.
  PreparedDelta Prepare(const TransactionEffect& effect,
                        MaintenanceStats* stats = nullptr,
                        PhaseBreakdown* phases = nullptr) const;

  /// Evaluates a prepared round: opens a cache round, runs the truth-table
  /// rows (or telescoped terms), closes the round, and returns the
  /// normalized view delta, whose insert/delete counts it adds to `stats`.
  /// `p` must be 0: a round is one evaluation, and the argument stays only
  /// so the frozen replica in e2ebench/ keeps compiling.
  ViewDelta ComputePartition(const PreparedDelta& prep, uint32_t p,
                             MaintenanceStats* stats = nullptr,
                             PhaseBreakdown* phases = nullptr,
                             const util::Cancellation* cancel = nullptr) const;

  /// Overwrites the per-round gauges (`cache_bytes`, `arena_bytes`,
  /// `arena_high_water`) with the cache's and the arena's current values.
  void FinalizeRoundStats(MaintenanceStats* stats) const;

  /// Lower-level entry point used by deferred refresh: `parts[i]` describes
  /// base occurrence `i` (all fields may be null for untouched bases).
  /// No filtering is applied here — callers filter when logging.  This
  /// path never touches the join-state cache: refresh reconstructs an old
  /// state (`r_now − i`) that no cached table mirrors.
  ViewDelta ComputeDeltaFromParts(const std::vector<BaseParts>& parts,
                                  MaintenanceStats* stats = nullptr) const;

  /// Re-evaluates the view from scratch against the database's current
  /// state (the paper's baseline comparator).  `cancel` (may be null) is
  /// polled per join step and per batch, so a statement deadline can stop
  /// a long evaluation.
  CountedRelation FullEvaluate(
      PlanStats* stats = nullptr,
      const util::Cancellation* cancel = nullptr) const;

  /// One row-hash slice of `FullEvaluate`: base occurrence 0 is restricted
  /// to the tuples whose whole-tuple hash lands in `slice` (of `total`);
  /// the other bases stream in full.  Because the join is linear in each
  /// input, the `total` slices partition the full result exactly — the
  /// scrubber verifies a view one slice per call without ever holding a
  /// full re-evaluation's working set.
  CountedRelation FullEvaluateSlice(uint32_t slice, uint32_t total,
                                    PlanStats* stats = nullptr) const;

  /// True when the effect touches any base relation of this view.
  bool AffectedBy(const TransactionEffect& effect) const;

  const ViewDefinition& definition() const { return def_; }
  const IrrelevanceFilter& filter() const { return *filter_; }
  const Schema& output_schema() const { return plan_->output_schema(); }
  const MaintenanceOptions& options() const { return options_; }

  /// The number of scrub slices (`MaintenanceOptions::partition_count`,
  /// at least 1).
  uint32_t partition_count() const {
    return std::max<uint32_t>(options_.partition_count, 1);
  }

  /// The view's join-state cache (null when disabled).
  const JoinStateCache* join_cache() const { return cache_.get(); }

  /// Discards every cached join table (fresh empty cache, same budget).
  /// Called when the view's materialization is rebuilt outside the normal
  /// delta path (quarantine/repair): the cached tables may mirror a state
  /// the failure left inconsistent, and a cold rebuild is always safe.
  void ResetJoinCache();

 private:
  /// Evaluates the rows (or terms) of one round over `parts`; `cache`
  /// (may be null) backs the clean inputs across rounds.
  ViewDelta Evaluate(const std::vector<BaseParts>& parts,
                     JoinStateCache* cache, MaintenanceStats* stats,
                     const util::Cancellation* cancel = nullptr) const;
  void EnumerateRows(const std::vector<RelationInput*>& clean,
                     const std::vector<RelationInput*>& ins,
                     const std::vector<RelationInput*>& del,
                     ViewDelta* delta, MaintenanceStats* stats,
                     PlannerCache* cache, const EvalContext* ctx) const;

  void EnumerateTelescoped(const std::vector<RelationInput*>& clean,
                           const std::vector<RelationInput*>& ins,
                           const std::vector<RelationInput*>& del,
                           ViewDelta* delta, MaintenanceStats* stats,
                           PlannerCache* cache, const EvalContext* ctx) const;

  ViewDefinition def_;
  const Database* db_;
  MaintenanceOptions options_;
  // Base occurrence i's scheme under the view's aliases.  Every input the
  // maintainer builds reports one of these handles, so they all share the
  // representation the plan was compiled against.
  std::vector<Schema> aliased_;
  // The view's SPJ plan over `aliased_`, compiled once: every truth-table
  // row, telescoped term and full evaluation executes it.
  std::optional<SpjPlan> plan_;
  std::unique_ptr<IrrelevanceFilter> filter_;
  // The join-state cache (null when disabled); mutable because
  // ComputeDelta is logically const yet advances the cache between rounds.
  mutable std::unique_ptr<JoinStateCache> cache_;
  // Scratch memory for the batch pipeline, reset at the start of every
  // evaluation.
  mutable util::Arena arena_;
};

}  // namespace mview

#endif  // MVIEW_IVM_DIFFERENTIAL_H_
