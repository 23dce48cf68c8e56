#include "ivm/differential.h"

#include <optional>

#include "obs/trace.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace mview {
namespace {

/// Exception-safe wrapper of the join-cache round protocol: the destructor
/// aborts a round that never reached `Commit()`, so a throw anywhere
/// between `BeginRound` and `EndRound` (planner failure, injected fault,
/// bad_alloc) cannot leave the cache with a round open and half-repaired
/// entries that the *next* round would then silently discard mid-state.
class JoinCacheRoundGuard {
 public:
  /// Construct *before* `BeginRound` so even a throw from inside the
  /// repair itself (after the round flag is set) unwinds through the
  /// abort.
  explicit JoinCacheRoundGuard(JoinStateCache* cache) : cache_(cache) {}
  ~JoinCacheRoundGuard() {
    if (cache_->round_active()) cache_->AbortRound();
  }

  /// Applies the round's inserts and closes it normally.
  void Commit() { cache_->EndRound(); }

  JoinCacheRoundGuard(const JoinCacheRoundGuard&) = delete;
  JoinCacheRoundGuard& operator=(const JoinCacheRoundGuard&) = delete;

 private:
  JoinStateCache* cache_;
};

}  // namespace

PhaseBreakdown& PhaseBreakdown::operator+=(const PhaseBreakdown& o) {
  normalize_nanos += o.normalize_nanos;
  filter_nanos += o.filter_nanos;
  differential_nanos += o.differential_nanos;
  apply_nanos += o.apply_nanos;
  return *this;
}

MaintenanceStats& MaintenanceStats::operator+=(const MaintenanceStats& o) {
  transactions += o.transactions;
  skipped_irrelevant += o.skipped_irrelevant;
  updates_seen += o.updates_seen;
  updates_filtered += o.updates_filtered;
  rows_enumerated += o.rows_enumerated;
  rows_evaluated += o.rows_evaluated;
  delta_inserts += o.delta_inserts;
  delta_deletes += o.delta_deletes;
  full_reevaluations += o.full_reevaluations;
  refreshes += o.refreshes;
  quarantines += o.quarantines;
  repairs += o.repairs;
  maintenance_nanos += o.maintenance_nanos;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  cache_bytes += o.cache_bytes;
  batch_batches += o.batch_batches;
  batch_rows += o.batch_rows;
  arena_bytes += o.arena_bytes;
  arena_high_water += o.arena_high_water;
  plan += o.plan;
  return *this;
}

DifferentialMaintainer::DifferentialMaintainer(ViewDefinition def,
                                               const Database* db,
                                               MaintenanceOptions options)
    : def_(std::move(def)), db_(db), options_(options) {
  MVIEW_CHECK(db_ != nullptr, "null database");
  def_.Validate(*db_);
  aliased_.reserve(def_.bases().size());
  for (size_t i = 0; i < def_.bases().size(); ++i) {
    aliased_.push_back(def_.AliasedSchema(*db_, i));
  }
  plan_.emplace(aliased_, &def_.condition(), def_.projection());
  filter_ = std::make_unique<IrrelevanceFilter>(def_, *db_);
  ResetJoinCache();
}

void DifferentialMaintainer::ResetJoinCache() {
  cache_ = options_.enable_join_cache
               ? std::make_unique<JoinStateCache>(
                     options_.join_cache_budget_bytes)
               : nullptr;
}

bool DifferentialMaintainer::AffectedBy(const TransactionEffect& effect) const {
  for (const auto& base : def_.bases()) {
    if (effect.Find(base.relation) != nullptr) return true;
  }
  return false;
}

DifferentialMaintainer::PreparedDelta DifferentialMaintainer::Prepare(
    const TransactionEffect& effect, MaintenanceStats* stats,
    PhaseBreakdown* phases) const {
  static const uint32_t kScreenName =
      obs::Tracer::Global().InternName("irrelevance_screen");
  static const uint32_t kFilteredArg =
      obs::Tracer::Global().InternName("updates_filtered");
  // Filtered copies of the per-base deltas (Algorithm 4.1).  The clean part
  // subtracts the *unfiltered* deletes — the surviving state is defined by
  // what the transaction actually removed; tuples the filter drops are
  // provably invisible to the view either way.
  obs::TraceSpan screen_span(kScreenName);
  const int64_t filtered_before = stats != nullptr ? stats->updates_filtered : 0;
  Stopwatch filter_timer;
  const size_t n = def_.bases().size();
  PreparedDelta prep;
  prep.parts.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RelationEffect* re = effect.Find(def_.bases()[i].relation);
    if (re == nullptr) continue;
    prep.parts[i].subtract = &re->deletes;
    const SubstitutionFilter& base_filter = filter_->base_filter(i);
    bool filter_useful =
        options_.use_irrelevance_filter && !base_filter.always_relevant();
    if (!filter_useful) {
      if (stats != nullptr) {
        stats->updates_seen += static_cast<int64_t>(re->inserts.size()) +
                               static_cast<int64_t>(re->deletes.size());
      }
      prep.parts[i].inserts = &re->inserts;
      prep.parts[i].deletes = &re->deletes;
      continue;
    }
    auto filter_one = [&](const Relation& in) -> const Relation* {
      auto out = std::make_unique<Relation>(in.schema());
      size_t dropped = filter_->FilterRelation(i, in, out.get());
      if (stats != nullptr) {
        stats->updates_seen += static_cast<int64_t>(in.size());
        stats->updates_filtered += static_cast<int64_t>(dropped);
      }
      prep.owned.push_back(std::move(out));
      return prep.owned.back().get();
    };
    prep.parts[i].inserts = filter_one(re->inserts);
    prep.parts[i].deletes = filter_one(re->deletes);
  }

  // Cache-round tokens: built from the *unfiltered* deltas so the
  // predicted post-versions match the relations after the commit applies.
  if (cache_ != nullptr) {
    prep.slots.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Relation& rel = db_->Get(def_.bases()[i].relation);
      const RelationEffect* re = effect.Find(def_.bases()[i].relation);
      prep.slots[i] = {rel.uid(), rel.version(),
                       re != nullptr ? &re->deletes : nullptr,
                       re != nullptr ? &re->inserts : nullptr};
    }
  }
  if (phases != nullptr) phases->filter_nanos += filter_timer.ElapsedNanos();
  if (stats != nullptr) {
    screen_span.SetArg(kFilteredArg, stats->updates_filtered - filtered_before);
  }
  screen_span.End();
  return prep;
}

ViewDelta DifferentialMaintainer::ComputePartition(
    const PreparedDelta& prep, uint32_t p, MaintenanceStats* stats,
    PhaseBreakdown* phases, const util::Cancellation* cancel) const {
  static const uint32_t kDifferentialName =
      obs::Tracer::Global().InternName("differential");
  static const uint32_t kCacheRepairName =
      obs::Tracer::Global().InternName("join_cache_repair");
  MVIEW_CHECK(p == 0, "a maintenance round has one evaluation");
  obs::TraceSpan differential_span(kDifferentialName);
  Stopwatch differential_timer;
  // Open a cache round: validate entries against each base's (uid,
  // version) token and apply the *unfiltered* deletes so warm tables
  // mirror the clean pre-state the planner's clean inputs stream.  The
  // unfiltered inserts are replayed (through each entry's stored local
  // filters) when the round closes.
  JoinStateCache* cache = cache_.get();
  JoinCacheCounters before;
  std::optional<JoinCacheRoundGuard> round;
  if (cache != nullptr) {
    before = cache->counters();
    obs::TraceSpan repair_span(kCacheRepairName);
    round.emplace(cache);
    cache->BeginRound(prep.slots);
  }
  ViewDelta delta = Evaluate(prep.parts, cache, stats, cancel);
  if (cache != nullptr) {
    round->Commit();
    if (stats != nullptr) {
      const JoinCacheCounters& after = cache->counters();
      stats->cache_hits += after.hits - before.hits;
      stats->cache_misses += after.misses - before.misses;
      stats->cache_evictions += after.evictions - before.evictions;
    }
  }
  if (stats != nullptr) {
    stats->delta_inserts += delta.inserts.TotalCount();
    stats->delta_deletes += delta.deletes.TotalCount();
  }
  if (phases != nullptr) {
    phases->differential_nanos += differential_timer.ElapsedNanos();
  }
  return delta;
}

void DifferentialMaintainer::FinalizeRoundStats(MaintenanceStats* stats) const {
  if (stats == nullptr) return;
  stats->cache_bytes =
      cache_ != nullptr ? static_cast<int64_t>(cache_->bytes()) : 0;
  stats->arena_bytes = static_cast<int64_t>(arena_.stats().bytes_reserved);
  stats->arena_high_water = static_cast<int64_t>(arena_.stats().high_water);
}

ViewDelta DifferentialMaintainer::ComputeDelta(
    const TransactionEffect& effect, MaintenanceStats* stats,
    PhaseBreakdown* phases, const util::Cancellation* cancel) const {
  PreparedDelta prep = Prepare(effect, stats, phases);
  ViewDelta delta = ComputePartition(prep, 0, stats, phases, cancel);
  FinalizeRoundStats(stats);
  return delta;
}

ViewDelta DifferentialMaintainer::ComputeDeltaFromParts(
    const std::vector<BaseParts>& parts, MaintenanceStats* stats) const {
  // Deferred refresh reconstructs an old state no cached table mirrors.
  ViewDelta delta = Evaluate(parts, /*cache=*/nullptr, stats);
  if (stats != nullptr) {
    stats->delta_inserts += delta.inserts.TotalCount();
    stats->delta_deletes += delta.deletes.TotalCount();
    stats->arena_bytes = static_cast<int64_t>(arena_.stats().bytes_reserved);
    stats->arena_high_water = static_cast<int64_t>(arena_.stats().high_water);
  }
  return delta;
}

ViewDelta DifferentialMaintainer::Evaluate(
    const std::vector<BaseParts>& parts, JoinStateCache* cache,
    MaintenanceStats* stats, const util::Cancellation* cancel) const {
  // Covers the delta paths — commit-time rounds and deferred refresh
  // funnel through here.  `FullEvaluate` has no point of its own, but its
  // batches live in an arena, so it does pass `ra.batch.alloc`: a sticky
  // scratch fault fails REPAIR as well, leaving the view quarantined until
  // disarmed (tests/chaos_matrix_test.cc).
  MVIEW_FAULT_POINT("differential.eval");
  MVIEW_CHECK(parts.size() == def_.bases().size(),
              "expected one BaseParts per base occurrence");
  const size_t n = def_.bases().size();
  std::vector<std::unique_ptr<RelationInput>> owned;
  owned.reserve(n * 3);
  std::vector<RelationInput*> clean(n, nullptr), ins(n, nullptr),
      del(n, nullptr);
  auto keep = [&](std::unique_ptr<RelationInput> input) {
    owned.push_back(std::move(input));
    return owned.back().get();
  };
  // Deltas are streamed through `DeltaIndexInput`, which claims probe
  // support on every attribute and builds a single-attribute hash index
  // lazily on first probe — the telescoped strategy used to *copy* each
  // delta and eagerly rebuild all of the base's indexes on it, per term,
  // per transaction.
  auto make_delta = [&](size_t i, const Relation* part) -> RelationInput* {
    if (part == nullptr || part->empty()) return nullptr;
    return keep(std::make_unique<DeltaIndexInput>(part, aliased_[i]));
  };
  for (size_t i = 0; i < n; ++i) {
    const Relation& rel = db_->Get(def_.bases()[i].relation);
    const Relation* subtract =
        (parts[i].subtract != nullptr && !parts[i].subtract->empty())
            ? parts[i].subtract
            : nullptr;
    if (subtract != nullptr) {
      clean[i] = keep(std::make_unique<SubtractRelationInput>(&rel, subtract,
                                                              aliased_[i]));
    } else {
      clean[i] = keep(std::make_unique<FullRelationInput>(&rel, aliased_[i]));
    }
    if (cache != nullptr) {
      // Only the clean inputs go through the persistent cache: their slot
      // index is a stable identity and their contents advance exactly by
      // the normalized deltas the cache's round replays.
      clean[i]->BindJoinCache(cache, static_cast<uint32_t>(i));
    }
    ins[i] = make_delta(i, parts[i].inserts);
    del[i] = make_delta(i, parts[i].deletes);
  }

  ViewDelta delta(output_schema());
  PlannerCache round_cache;
  PlannerCache* cache_ptr =
      options_.reuse_subexpressions ? &round_cache : nullptr;
  // The round's batch scratch: resetting recycles (and, under ASan,
  // poisons) the previous round's blocks, so every ColumnBatch allocated
  // below dies when the *next* round begins.
  arena_.Reset();
  BatchEvalStats batch_stats;
  EvalContext ctx;
  ctx.arena = &arena_;
  ctx.batch_stats = &batch_stats;
  ctx.cancel = cancel;
  if (cancel != nullptr) cancel->Check();
  if (options_.strategy == DeltaStrategy::kTelescoped) {
    EnumerateTelescoped(clean, ins, del, &delta, stats, cache_ptr, &ctx);
  } else {
    EnumerateRows(clean, ins, del, &delta, stats, cache_ptr, &ctx);
  }
  delta.Normalize();
  if (stats != nullptr) {
    stats->batch_batches += batch_stats.batches;
    stats->batch_rows += batch_stats.rows;
  }
  return delta;
}

void DifferentialMaintainer::EnumerateTelescoped(
    const std::vector<RelationInput*>& clean,
    const std::vector<RelationInput*>& ins,
    const std::vector<RelationInput*>& del, ViewDelta* delta,
    MaintenanceStats* stats, PlannerCache* cache,
    const EvalContext* ctx) const {
  size_t n = def_.bases().size();

  // old_i = clean_i ∪ d_i (the pre-change contents), new_i = clean_i ∪ i_i
  // (the post-change contents); both degenerate to clean_i for untouched
  // relations.  Telescoping:
  //   Π new_i − Π old_i = Σ_j new_{<j} ⋈ (i_j − d_j) ⋈ old_{>j},
  // so each modified relation contributes one insert-tagged and/or one
  // delete-tagged term anchored at its small delta.
  std::vector<std::unique_ptr<RelationInput>> concats;
  std::vector<const RelationInput*> old_in(n), new_in(n);
  for (size_t i = 0; i < n; ++i) {
    old_in[i] = clean[i];
    if (del[i] != nullptr) {
      concats.push_back(
          std::make_unique<ConcatRelationInput>(clean[i], del[i]));
      old_in[i] = concats.back().get();
    }
    new_in[i] = clean[i];
    if (ins[i] != nullptr) {
      concats.push_back(
          std::make_unique<ConcatRelationInput>(clean[i], ins[i]));
      new_in[i] = concats.back().get();
    }
  }

  auto evaluate_term = [&](size_t j, const RelationInput* anchor,
                           bool is_delete) {
    if (stats != nullptr) ++stats->rows_enumerated;
    std::vector<const RelationInput*> row(n);
    for (size_t i = 0; i < j; ++i) row[i] = new_in[i];
    row[j] = anchor;
    for (size_t i = j + 1; i < n; ++i) row[i] = old_in[i];
    for (const auto* input : row) {
      if (input->SizeHint() == 0) return;
    }
    if (stats != nullptr) ++stats->rows_evaluated;
    plan_->Execute(row, is_delete ? &delta->deletes : &delta->inserts, 1,
                   stats != nullptr ? &stats->plan : nullptr, cache, ctx);
  };

  for (size_t j = 0; j < n; ++j) {
    if (ins[j] != nullptr) evaluate_term(j, ins[j], /*is_delete=*/false);
    if (del[j] != nullptr) evaluate_term(j, del[j], /*is_delete=*/true);
  }
}

void DifferentialMaintainer::EnumerateRows(
    const std::vector<RelationInput*>& clean,
    const std::vector<RelationInput*>& ins,
    const std::vector<RelationInput*>& del, ViewDelta* delta,
    MaintenanceStats* stats, PlannerCache* cache,
    const EvalContext* ctx) const {
  size_t n = def_.bases().size();

  // Recursive expansion of Π(clean_i + ins_i) − Π(clean_i + del_i)
  // (Section 5.3's truth table, mixed transactions handled by the tag rule
  // `insert ⋈ delete → ignore`): rows choosing at least one `ins` and no
  // `del` are insert-tagged; at least one `del` and no `ins`, delete-tagged;
  // the all-clean row is the unchanged view and is skipped.
  std::vector<const RelationInput*> row(n, nullptr);
  auto evaluate_row = [&](bool is_delete) {
    if (stats != nullptr) ++stats->rows_enumerated;
    for (const auto* input : row) {
      if (input->SizeHint() == 0) return;  // empty part: the join vanishes
    }
    if (stats != nullptr) ++stats->rows_evaluated;
    plan_->Execute(row, is_delete ? &delta->deletes : &delta->inserts, 1,
                   stats != nullptr ? &stats->plan : nullptr, cache, ctx);
  };

  // has_delta: whether a non-clean part has been chosen so far;
  // is_delete: the row's tag (fixed by the first non-clean choice).
  auto recurse = [&](auto&& self, size_t i, bool has_delta,
                     bool is_delete) -> void {
    if (i == n) {
      if (has_delta) evaluate_row(is_delete);
      return;
    }
    row[i] = clean[i];
    self(self, i + 1, has_delta, is_delete);
    // Insert part: allowed unless the row already carries a delete part.
    if (ins[i] != nullptr && (!has_delta || !is_delete)) {
      row[i] = ins[i];
      self(self, i + 1, true, false);
    }
    // Delete part: allowed unless the row already carries an insert part.
    if (del[i] != nullptr && (!has_delta || is_delete)) {
      row[i] = del[i];
      self(self, i + 1, true, true);
    }
  };
  recurse(recurse, 0, false, false);
}

CountedRelation DifferentialMaintainer::FullEvaluate(
    PlanStats* stats, const util::Cancellation* cancel) const {
  size_t n = def_.bases().size();
  std::vector<std::unique_ptr<RelationInput>> owned(n);
  std::vector<const RelationInput*> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    owned[i] = std::make_unique<FullRelationInput>(
        &db_->Get(def_.bases()[i].relation), aliased_[i]);
    inputs[i] = owned[i].get();
  }
  EvalContext ctx;
  ctx.cancel = cancel;
  CountedRelation out(output_schema());
  plan_->Execute(inputs, &out, 1, stats, nullptr, &ctx);
  return out;
}

CountedRelation DifferentialMaintainer::FullEvaluateSlice(
    uint32_t slice, uint32_t total, PlanStats* stats) const {
  MVIEW_CHECK(total >= 1 && slice < total, "evaluation slice out of range");
  size_t n = def_.bases().size();
  std::vector<std::unique_ptr<RelationInput>> owned(n);
  std::vector<const RelationInput*> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    const Relation& rel = db_->Get(def_.bases()[i].relation);
    if (i == 0) {
      // Restricting one input partitions the whole join's output (the
      // join is linear in each input), so the `total` slices sum to
      // exactly `FullEvaluate` — no condition analysis needed.
      owned[i] = std::make_unique<PartitionSliceInput>(&rel, aliased_[i],
                                                       slice, total);
    } else {
      owned[i] = std::make_unique<FullRelationInput>(&rel, aliased_[i]);
    }
    inputs[i] = owned[i].get();
  }
  CountedRelation out(output_schema());
  plan_->Execute(inputs, &out, 1, stats);
  return out;
}

}  // namespace mview
