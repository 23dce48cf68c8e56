#include "ra/planner.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "ra/eval.h"
#include "ra/join_cache.h"
#include "util/arena.h"
#include "util/deadline.h"
#include "util/error.h"

namespace mview {

PlanStats& PlanStats::operator+=(const PlanStats& other) {
  rows_scanned += other.rows_scanned;
  probes += other.probes;
  intermediate_tuples += other.intermediate_tuples;
  output_tuples += other.output_tuples;
  return *this;
}

PlannerCache::Table* PlannerCache::Find(const RelationInput* input,
                                        const std::vector<size_t>& key) {
  auto it = tables_.find({input, key});
  if (it == tables_.end()) return nullptr;
  // A serial mismatch means the input this entry was built from was
  // destroyed and another now occupies its address — the cache outlived
  // its inputs, which release builds would answer with freed data.
  assert(it->second->debug_serial == input->debug_serial() &&
         "PlannerCache outlived the RelationInput it indexes");
  return it->second.get();
}

PlannerCache::Table* PlannerCache::Create(const RelationInput* input,
                                          const std::vector<size_t>& key) {
  auto table = std::make_unique<Table>();
  table->key_attrs = key;
  table->debug_serial = input->debug_serial();
  Table* raw = table.get();
  tables_[{input, key}] = std::move(table);
  return raw;
}

Schema CombinedSchema(const SpjQuery& query) {
  Schema combined;
  for (const auto* input : query.inputs) {
    combined = combined.Concat(input->schema());
  }
  return combined;
}

namespace {

// A connecting equi-join predicate at one join step: bound side expressed
// as a combined-row index plus the offset to apply, local side as an
// attribute of the step's input.
struct Link {
  size_t bound_combined = 0;  // index of the bound value in the partial row
  size_t local_attr = 0;
  int64_t key_offset = 0;  // probe key = bound value + key_offset
};

}  // namespace

SpjPlan::SpjPlan(std::vector<Schema> input_schemas, const Condition* condition,
                 const std::vector<std::string>& projection) {
  MVIEW_CHECK(!input_schemas.empty(), "SPJ query needs at least one input");
  inputs_.resize(input_schemas.size());
  size_t offset = 0;
  for (size_t i = 0; i < input_schemas.size(); ++i) {
    Input& in = inputs_[i];
    in.schema = std::move(input_schemas[i]);
    in.offset = offset;
    in.arity = in.schema.size();
    in.all_int = std::all_of(
        in.schema.attributes().begin(), in.schema.attributes().end(),
        [](const Attribute& a) { return a.type == ValueType::kInt64; });
    offset += in.arity;
    combined_ = combined_.Concat(in.schema);
  }
  if (condition != nullptr) condition->Validate(combined_);

  if (projection.empty()) {
    output_ = combined_;
    projection_indices_.resize(combined_.size());
    for (size_t i = 0; i < combined_.size(); ++i) projection_indices_[i] = i;
  } else {
    output_ = combined_.Project(projection, &projection_indices_);
  }

  if (condition == nullptr) return;
  if (condition->IsTriviallyFalse()) {
    always_false_ = true;
    return;
  }
  // The conjunctive core: atoms appearing in every disjunct.  These are
  // implied by the condition, so they can be enforced during the joins; the
  // full condition is re-checked as a residual only when disjunction makes
  // the core incomplete.
  const auto& disjuncts = condition->disjuncts();
  std::vector<Atom> core;
  for (const auto& atom : disjuncts.front().atoms) {
    bool everywhere = true;
    for (size_t d = 1; d < disjuncts.size(); ++d) {
      const auto& atoms = disjuncts[d].atoms;
      if (std::find(atoms.begin(), atoms.end(), atom) == atoms.end()) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) core.push_back(atom);
  }
  need_residual_ = disjuncts.size() > 1;
  if (need_residual_) residual_ = BindCondition(*condition, combined_);

  // The input owning `var` and its local attribute index.
  auto resolve = [&](const std::string& var) -> std::pair<size_t, size_t> {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (auto idx = inputs_[i].schema.IndexOf(var)) return {i, *idx};
    }
    internal::ThrowError("condition variable not found in any input: ", var);
  };
  auto add_local = [&](size_t i, const Atom& atom) {
    Input& in = inputs_[i];
    in.filters.push_back(BindAtom(atom, in.schema));
    in.batch_filters.push_back(BindAtom(atom, in.schema, in.offset));
  };
  for (const auto& atom : core) {
    auto [li, la] = resolve(atom.lhs);
    if (!atom.rhs_var.has_value()) {
      add_local(li, atom);
      continue;
    }
    auto [ri, ra] = resolve(*atom.rhs_var);
    if (li == ri) {
      add_local(li, atom);
    } else if (atom.op == CompareOp::kEq) {
      join_preds_.push_back({li, la, ri, ra, atom.offset});
    } else {
      step_filters_.push_back({BindAtom(atom, combined_), li, ri});
    }
  }
}

// One execution of a plan over concrete inputs.  Everything that depends on
// the inputs' sizes — the join order and where each step filter runs — is
// decided here, per execution, so one plan serves concurrent executions.
class SpjPlan::Executor {
 public:
  Executor(const SpjPlan& plan, const std::vector<const RelationInput*>& inputs,
           CountedRelation* out, int64_t multiplier, PlanStats* stats,
           PlannerCache* cache, const EvalContext* ctx)
      : plan_(plan),
        inputs_(inputs),
        out_(out),
        multiplier_(multiplier),
        stats_(stats),
        cache_(cache),
        ctx_(ctx) {}

  void Run();

 private:
  void ChooseOrder();
  bool PassesLocalFilters(const Input& info, const Tuple& t) const;
  std::vector<Link> CollectLinks(size_t input_id) const;

  // Columnar batch execution of the chosen plan.
  void RunBatch();
  size_t BatchExecuteFirst(std::vector<ColumnBatch>* out);
  size_t BatchExecuteStep(size_t input_id, size_t total,
                          std::vector<ColumnBatch>* batches);
  void EmitBatches(std::vector<ColumnBatch>* batches);
  ColumnBatch& DestBatch(std::vector<ColumnBatch>* list);
  void FilterBatch(ColumnBatch* batch, const std::vector<BoundAtom>& filters);

  // Cooperative cancellation poll: free when no token rides the context,
  // one clock read per join step / batch when one does (the poll-point
  // contract in util/deadline.h).
  void PollCancel() const {
    if (ctx_ != nullptr && ctx_->cancel != nullptr) ctx_->cancel->Check();
  }

  PlannerCache::Table* MaterializeTable(size_t input_id,
                                        const std::vector<size_t>& key_attrs);
  void FillTable(size_t input_id, const std::vector<size_t>& key_attrs,
                 PlannerCache::Table* table);

  const SpjPlan& plan_;
  const std::vector<const RelationInput*>& inputs_;
  CountedRelation* out_;
  int64_t multiplier_;
  PlanStats* stats_;
  PlannerCache* cache_;
  const EvalContext* ctx_;
  util::Arena* arena_ = nullptr;  // batch scratch, set by Run
  // Owns tables when no external cache was supplied.
  PlannerCache local_cache_;

  std::vector<size_t> order_;
  std::vector<bool> bound_;
  // Per step filter: the input whose join step makes it ground.
  std::vector<size_t> step_filter_input_;
  PlanStats local_stats_;
  BatchEvalStats batch_stats_;
};

void SpjPlan::Executor::ChooseOrder() {
  size_t n = inputs_.size();
  bound_.assign(n, false);
  order_.clear();
  order_.reserve(n);

  auto connected = [&](size_t candidate) {
    for (const auto& p : plan_.join_preds_) {
      if ((p.input_a == candidate && bound_[p.input_b]) ||
          (p.input_b == candidate && bound_[p.input_a])) {
        return true;
      }
    }
    return false;
  };

  // First input: the smallest.  Differential rows contain at least one tiny
  // delta input, so the pipeline starts from the delta (Section 5.3: "one
  // only needs to compute the contribution of the new tuples to the join").
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (inputs_[i]->SizeHint() < inputs_[first]->SizeHint()) first = i;
  }
  order_.push_back(first);
  bound_[first] = true;

  while (order_.size() < n) {
    std::optional<size_t> best;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (bound_[i]) continue;
      bool conn = connected(i);
      if (!best.has_value() || (conn && !best_connected) ||
          (conn == best_connected &&
           inputs_[i]->SizeHint() < inputs_[*best]->SizeHint())) {
        best = i;
        best_connected = conn;
      }
    }
    order_.push_back(*best);
    bound_[*best] = true;
  }

  // Assign each step filter to the step where it becomes ground.
  std::vector<size_t> step_of(n, 0);
  for (size_t s = 0; s < order_.size(); ++s) step_of[order_[s]] = s;
  step_filter_input_.clear();
  step_filter_input_.reserve(plan_.step_filters_.size());
  for (const auto& f : plan_.step_filters_) {
    step_filter_input_.push_back(
        order_[std::max(step_of[f.input_a], step_of[f.input_b])]);
  }
}

bool SpjPlan::Executor::PassesLocalFilters(const Input& info,
                                           const Tuple& t) const {
  for (const BoundAtom& atom : info.filters) {
    if (!EvalBoundAtom(t, atom)) return false;
  }
  return true;
}

PlannerCache::Table* SpjPlan::Executor::MaterializeTable(
    size_t input_id, const std::vector<size_t>& key_attrs) {
  const RelationInput* input = inputs_[input_id];
  const Input& info = plan_.inputs_[input_id];
  // Cross-round path: a clean input bound to a `JoinStateCache` keeps its
  // table alive across maintenance rounds (keyed by its stable slot, not
  // this per-round input object) and only pays the full scan on a cold
  // miss; the cache replays later deltas into the installed table.
  if (JoinStateCache* jsc = input->join_cache()) {
    const uint32_t slot = input->cache_slot();
    if (PlannerCache::Table* warm = jsc->Lookup(slot, key_attrs)) return warm;
    if (PlannerCache::Table* table =
            jsc->Install(slot, key_attrs, info.schema, info.filters)) {
      FillTable(input_id, key_attrs, table);
      jsc->CompleteInstall(slot, key_attrs);
      return table;
    }
    // No active round; fall through to the per-round cache.
  }
  PlannerCache* cache = cache_ != nullptr ? cache_ : &local_cache_;
  if (PlannerCache::Table* hit = cache->Find(input, key_attrs)) return hit;
  PlannerCache::Table* table = cache->Create(input, key_attrs);
  FillTable(input_id, key_attrs, table);
  return table;
}

void SpjPlan::Executor::FillTable(size_t input_id,
                                  const std::vector<size_t>& key_attrs,
                                  PlannerCache::Table* table) {
  const RelationInput* input = inputs_[input_id];
  const Input& info = plan_.inputs_[input_id];
  table->int_keyed =
      key_attrs.size() == 1 &&
      info.schema.attribute(key_attrs[0]).type == ValueType::kInt64;
  table->all_int = info.all_int;
  // Without local filters the input size is the exact row count; with
  // filters a full-size reserve could vastly overshoot the survivors.
  if (info.filters.empty()) {
    const size_t hint = input->SizeHint();
    table->rows.reserve(hint);
    if (!key_attrs.empty()) table->index.reserve(hint);
    if (table->int_keyed) table->int_index.reserve(hint);
    if (table->all_int) table->int_rows.reserve(hint * info.arity);
  }
  class BuildSink final : public DeltaSink {
   public:
    BuildSink(Executor* e, const Input& info,
              const std::vector<size_t>& key_attrs, PlannerCache::Table* table)
        : e_(e), info_(info), key_attrs_(key_attrs), table_(table) {}
    void Emit(const Tuple& t, int64_t count) override {
      ++e_->local_stats_.rows_scanned;
      if (!e_->PassesLocalFilters(info_, t)) return;
      size_t row = table_->rows.size();
      table_->rows.emplace_back(t, count);
      if (table_->all_int) {
        for (size_t i = 0; i < info_.arity; ++i) {
          table_->int_rows.push_back(t.at(i).AsInt64());
        }
      }
      if (!key_attrs_.empty()) {
        if (table_->int_keyed) {
          table_->int_index[t.at(key_attrs_[0]).AsInt64()].push_back(row);
        }
        Tuple key = t.Project(key_attrs_);
        table_->index[std::move(key)].push_back(row);
      }
    }

   private:
    Executor* e_;
    const Input& info_;
    const std::vector<size_t>& key_attrs_;
    PlannerCache::Table* table_;
  };
  BuildSink sink(this, info, key_attrs, table);
  input->Scan(sink);
}

std::vector<Link> SpjPlan::Executor::CollectLinks(size_t input_id) const {
  std::vector<Link> links;
  for (const auto& p : plan_.join_preds_) {
    if (p.input_a == input_id && bound_[p.input_b]) {
      // this.attr_a = bound.attr_b + offset → key = bound + offset
      links.push_back(
          {plan_.inputs_[p.input_b].offset + p.attr_b, p.attr_a, p.offset});
    } else if (p.input_b == input_id && bound_[p.input_a]) {
      // bound.attr_a = this.attr_b + offset → key = bound − offset
      links.push_back(
          {plan_.inputs_[p.input_a].offset + p.attr_a, p.attr_b, -p.offset});
    }
  }
  return links;
}

void SpjPlan::Executor::Run() {
  ChooseOrder();

  // Re-run the binding order, marking inputs bound step by step so that
  // each join step sees the correct bound set.
  bound_.assign(inputs_.size(), false);
  // A maintenance round lends its arena; a one-shot evaluation gets one
  // scoped to this call, so its scratch is freed on return instead of
  // lingering in a long-lived round arena (which keeps blocks on Reset).
  util::Arena local_arena;
  arena_ = ctx_ != nullptr && ctx_->arena != nullptr ? ctx_->arena
                                                     : &local_arena;
  RunBatch();
  if (ctx_ != nullptr && ctx_->batch_stats != nullptr) {
    *ctx_->batch_stats += batch_stats_;
  }
  if (stats_ != nullptr) *stats_ += local_stats_;
}

// ---------------------------------------------------------------------------
// Execution.  Intermediate rows live in combined-scheme `ColumnBatch`
// chunks carved from the arena, one join step at a time (warm-peek → hash
// probe, index probe, or cross join); selections run as kernels producing
// selection vectors, and the final projection is a column shuffle.

ColumnBatch& SpjPlan::Executor::DestBatch(std::vector<ColumnBatch>* list) {
  if (list->empty() || list->back().full()) {
    PollCancel();  // one relaxed check per allocated batch, never per row
    list->emplace_back(plan_.combined_, ColumnBatch::kDefaultCapacity, arena_);
    ++batch_stats_.batches;
  }
  return list->back();
}

void SpjPlan::Executor::FilterBatch(ColumnBatch* batch,
                              const std::vector<BoundAtom>& filters) {
  if (filters.empty() || batch->empty()) return;
  uint32_t* sel = arena_->AllocateArray<uint32_t>(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) sel[i] = static_cast<uint32_t>(i);
  const size_t n = SelectConjunction(*batch, filters, sel, batch->size());
  batch->Keep(sel, n);
}

size_t SpjPlan::Executor::BatchExecuteFirst(std::vector<ColumnBatch>* out) {
  PollCancel();
  const size_t input_id = order_[0];
  const Input& info = plan_.inputs_[input_id];
  // Local filters bound to this input's columns inside the combined batch.
  const std::vector<BoundAtom>& filters = info.batch_filters;

  // Appends every scanned row, running the selection kernel over each chunk
  // as it fills (and once more over the final partial chunk).
  class ScanSink final : public DeltaSink {
   public:
    ScanSink(Executor* e, std::vector<ColumnBatch>* out,
             const Input& info, const std::vector<BoundAtom>& filters)
        : e_(e), out_(out), info_(info), filters_(filters) {}
    void Emit(const Tuple& t, int64_t count) override {
      ++e_->local_stats_.rows_scanned;
      ColumnBatch& batch = e_->DestBatch(out_);
      batch.AppendTuple(t, count, info_.offset);
      if (batch.full()) e_->FilterBatch(&batch, filters_);
    }

   private:
    Executor* e_;
    std::vector<ColumnBatch>* out_;
    const Input& info_;
    const std::vector<BoundAtom>& filters_;
  };
  ScanSink sink(this, out, info, filters);
  inputs_[input_id]->Scan(sink);
  if (!out->empty()) FilterBatch(&out->back(), filters);

  size_t total = 0;
  for (const ColumnBatch& b : *out) total += b.size();
  local_stats_.intermediate_tuples += static_cast<int64_t>(total);
  batch_stats_.rows += static_cast<int64_t>(total);
  return total;
}

size_t SpjPlan::Executor::BatchExecuteStep(size_t input_id, size_t total,
                                     std::vector<ColumnBatch>* batches) {
  PollCancel();
  const RelationInput* input = inputs_[input_id];
  const Input& info = plan_.inputs_[input_id];
  std::vector<Link> links = CollectLinks(input_id);
  // Step filters that become ground at this step (bound to the combined
  // scheme at compile time).
  std::vector<BoundAtom> filters;
  for (size_t f = 0; f < plan_.step_filters_.size(); ++f) {
    if (step_filter_input_[f] == input_id) {
      filters.push_back(plan_.step_filters_[f].atom);
    }
  }
  // Column ranges of the inputs already bound — the only columns of a
  // source row that hold live data and must be carried into merged rows.
  std::vector<std::pair<size_t, size_t>> bound_ranges;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (bound_[i]) {
      bound_ranges.emplace_back(plan_.inputs_[i].offset,
                                plan_.inputs_[i].arity);
    }
  }

  std::vector<ColumnBatch> next;
  size_t next_total = 0;

  // Appends the merge of a source row with a matched tuple, then applies
  // the step filters to the merged row, abandoning it on failure.  When the
  // matched row comes from an all-int table, `int_row` points at its flat
  // mirror and the values are copied as raw words instead of variant reads.
  auto emit_merged = [&](const ColumnBatch& src, size_t src_row,
                         const Tuple& t, int64_t count,
                         const int64_t* int_row) {
    ColumnBatch& dst = DestBatch(&next);
    const size_t row = dst.AppendRow(src.counts()[src_row] * count);
    for (const auto& [off, arity] : bound_ranges) {
      dst.CopyRow(src, src_row, row, off, arity);
    }
    if (int_row != nullptr) {
      for (size_t i = 0; i < info.arity; ++i) {
        dst.ints(info.offset + i)[row] = int_row[i];
      }
    } else {
      dst.SetFromTuple(row, t, info.offset);
    }
    for (const BoundAtom& atom : filters) {
      if (!EvalBoundAtom(dst, row, atom)) {
        dst.Truncate(row);
        return;
      }
    }
    ++next_total;
  };

  // The probe key of `link` for a source row, with the link's offset
  // applied (offsets only arise on integer attributes).
  auto key_value = [&](const ColumnBatch& src, size_t row, const Link& link) {
    if (src.column_type(link.bound_combined) == ValueType::kInt64) {
      return Value(src.ints(link.bound_combined)[row] + link.key_offset);
    }
    return Value(*src.strs(link.bound_combined)[row]);
  };

  auto check_links = [&](const ColumnBatch& src, size_t row, const Tuple& t,
                         size_t skip_link) {
    for (size_t li = 0; li < links.size(); ++li) {
      if (li == skip_link) continue;
      const Link& l = links[li];
      const Value& tv = t.at(l.local_attr);
      if (src.column_type(l.bound_combined) == ValueType::kInt64) {
        if (tv.AsInt64() != src.ints(l.bound_combined)[row] + l.key_offset) {
          return false;
        }
      } else if (tv.AsString() != *src.strs(l.bound_combined)[row]) {
        return false;
      }
    }
    return true;
  };

  // Strategy selection: index join when the input exposes an index on a
  // connecting attribute and is large; otherwise hash join on all
  // connecting attributes; cross join when nothing connects.  A warm
  // persistent table beats an index-probe plan — its build is already paid
  // for and its rows are pre-filtered — so peek before deciding.
  std::vector<size_t> key_attrs;
  key_attrs.reserve(links.size());
  for (const auto& l : links) key_attrs.push_back(l.local_attr);

  std::optional<size_t> probe_link;
  for (size_t li = 0; li < links.size(); ++li) {
    if (input->CanProbe(links[li].local_attr)) {
      probe_link = li;
      break;
    }
  }
  bool warm = false;
  if (JoinStateCache* jsc = input->join_cache();
      jsc != nullptr && !links.empty()) {
    warm = jsc->Peek(input->cache_slot(), key_attrs);
  }
  bool use_index =
      !warm && probe_link.has_value() && input->SizeHint() > total;

  if (!links.empty() && !use_index) {
    PlannerCache::Table* table = MaterializeTable(input_id, key_attrs);
    const bool int_probe =
        table->int_keyed && !batches->empty() &&
        batches->front().column_type(links[0].bound_combined) ==
            ValueType::kInt64;
    const int64_t* mirror = table->all_int ? table->int_rows.data() : nullptr;
    if (int_probe) {
      // Raw-key fast path: the probe key is one int64 read straight from
      // the column, hashed without building a key tuple.
      const Link& link = links[0];
      for (const ColumnBatch& src : *batches) {
        const int64_t* keys = src.ints(link.bound_combined);
        for (size_t r = 0; r < src.size(); ++r) {
          auto hit = table->int_index.find(keys[r] + link.key_offset);
          if (hit == table->int_index.end()) continue;
          for (size_t idx : hit->second) {
            const auto& [t, count] = table->rows[idx];
            emit_merged(src, r, t, count,
                        mirror != nullptr ? mirror + idx * info.arity
                                          : nullptr);
          }
        }
      }
    } else {
      // One scratch key reused across probes: assigning into its values
      // recycles their string capacity instead of materializing a fresh
      // tuple (and fresh strings) per probe.
      Tuple probe_key(std::vector<Value>(links.size()));
      for (const ColumnBatch& src : *batches) {
        for (size_t r = 0; r < src.size(); ++r) {
          auto& key_vals = probe_key.mutable_values();
          for (size_t li = 0; li < links.size(); ++li) {
            key_vals[li] = key_value(src, r, links[li]);
          }
          auto hit = table->index.find(probe_key);
          if (hit == table->index.end()) continue;
          for (size_t idx : hit->second) {
            const auto& [t, count] = table->rows[idx];
            emit_merged(src, r, t, count,
                        mirror != nullptr ? mirror + idx * info.arity
                                          : nullptr);
          }
        }
      }
    }
  } else if (use_index) {
    const Link& link = links[*probe_link];
    // Per-probe state is two plain assignments (`src_`, `row_`) — the old
    // `std::function on_match_` reassignment allocated a fresh closure per
    // probe.
    class ProbeSink final : public DeltaSink {
     public:
      ProbeSink(Executor* e, const Input& info,
                decltype(check_links)& check, decltype(emit_merged)& emit,
                size_t skip_link)
          : e_(e), info_(info), check_(check), emit_(emit),
            skip_link_(skip_link) {}
      void Emit(const Tuple& t, int64_t count) override {
        if (!e_->PassesLocalFilters(info_, t)) return;
        if (!check_(*src_, row_, t, skip_link_)) return;
        emit_(*src_, row_, t, count, nullptr);
      }
      const ColumnBatch* src_ = nullptr;
      size_t row_ = 0;

     private:
      Executor* e_;
      const Input& info_;
      decltype(check_links)& check_;
      decltype(emit_merged)& emit_;
      size_t skip_link_;
    };
    ProbeSink sink(this, info, check_links, emit_merged, *probe_link);
    for (const ColumnBatch& src : *batches) {
      sink.src_ = &src;
      for (size_t r = 0; r < src.size(); ++r) {
        ++local_stats_.probes;
        sink.row_ = r;
        input->ProbeEqual(link.local_attr, key_value(src, r, link), sink);
      }
    }
  } else {
    // Cross join against the (cached) materialized input.
    PlannerCache::Table* table = MaterializeTable(input_id, {});
    const int64_t* mirror = table->all_int ? table->int_rows.data() : nullptr;
    for (const ColumnBatch& src : *batches) {
      for (size_t r = 0; r < src.size(); ++r) {
        for (size_t idx = 0; idx < table->rows.size(); ++idx) {
          const auto& [t, count] = table->rows[idx];
          emit_merged(src, r, t, count,
                      mirror != nullptr ? mirror + idx * info.arity : nullptr);
        }
      }
    }
  }

  local_stats_.intermediate_tuples += static_cast<int64_t>(next_total);
  batch_stats_.rows += static_cast<int64_t>(next_total);
  batches->swap(next);
  return next_total;
}

void SpjPlan::Executor::EmitBatches(std::vector<ColumnBatch>* batches) {
  CountedRelationSink sink(out_, multiplier_);
  for (ColumnBatch& batch : *batches) {
    if (batch.empty()) continue;
    if (plan_.need_residual_) {
      uint32_t* sel = arena_->AllocateArray<uint32_t>(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        sel[i] = static_cast<uint32_t>(i);
      }
      batch.Keep(sel, SelectDnf(batch, plan_.residual_, sel, batch.size()));
      if (batch.empty()) continue;
    }
    local_stats_.output_tuples += static_cast<int64_t>(batch.size());
    // Projection is a column shuffle: the emitted view aliases the batch's
    // arrays — no row data moves until the sink materializes tuples.
    sink.EmitBatch(batch.ProjectView(plan_.projection_indices_, arena_));
  }
}

void SpjPlan::Executor::RunBatch() {
  std::vector<ColumnBatch> batches;
  size_t total = BatchExecuteFirst(&batches);
  bound_[order_[0]] = true;
  for (size_t s = 1; s < order_.size() && total > 0; ++s) {
    total = BatchExecuteStep(order_[s], total, &batches);
    bound_[order_[s]] = true;
  }
  EmitBatches(&batches);
}

void SpjPlan::Execute(const std::vector<const RelationInput*>& inputs,
                      CountedRelation* out, int64_t multiplier,
                      PlanStats* stats, PlannerCache* cache,
                      const EvalContext* ctx) const {
  MVIEW_CHECK(out != nullptr, "null output relation");
  MVIEW_CHECK(inputs.size() == inputs_.size(), "plan compiled for ",
              inputs_.size(), " inputs, executed over ", inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    // Positional plan: each input must stream exactly the compiled scheme.
    // A shared scheme representation makes this a pointer compare.
    MVIEW_CHECK(inputs[i]->schema() == inputs_[i].schema, "input ", i,
                " scheme ", inputs[i]->schema().ToString(),
                " differs from the compiled ", inputs_[i].schema.ToString());
  }
  if (always_false_) return;  // σ_false(...) is empty
  Executor executor(*this, inputs, out, multiplier, stats, cache, ctx);
  executor.Run();
}

namespace {

SpjPlan CompileQuery(const SpjQuery& query) {
  std::vector<Schema> schemas;
  schemas.reserve(query.inputs.size());
  for (const RelationInput* input : query.inputs) {
    schemas.push_back(input->schema());
  }
  return SpjPlan(std::move(schemas), query.condition, query.projection);
}

}  // namespace

void EvaluateSpjInto(const SpjQuery& query, CountedRelation* out,
                     int64_t multiplier, PlanStats* stats, PlannerCache* cache,
                     const EvalContext* ctx) {
  CompileQuery(query).Execute(query.inputs, out, multiplier, stats, cache,
                              ctx);
}

CountedRelation EvaluateSpj(const SpjQuery& query, PlanStats* stats,
                            PlannerCache* cache) {
  SpjPlan plan = CompileQuery(query);
  CountedRelation out(plan.output_schema());
  plan.Execute(query.inputs, &out, 1, stats, cache);
  return out;
}

}  // namespace mview
