#include "db/transaction.h"

#include <unordered_map>

#include "util/error.h"

namespace mview {

const RelationEffect* TransactionEffect::Find(
    const std::string& relation) const {
  auto it = effects_.find(relation);
  if (it == effects_.end() || it->second->Empty()) return nullptr;
  return it->second.get();
}

bool TransactionEffect::Empty() const {
  for (const auto& [name, effect] : effects_) {
    if (!effect->Empty()) return false;
  }
  return true;
}

std::vector<std::string> TransactionEffect::TouchedRelations() const {
  std::vector<std::string> names;
  for (const auto& [name, effect] : effects_) {
    if (!effect->Empty()) names.push_back(name);
  }
  return names;
}

void TransactionEffect::ApplyTo(Database* db) const {
  MVIEW_CHECK(db != nullptr, "null database");
  for (const auto& [name, effect] : effects_) {
    Relation& r = db->Get(name);
    effect->deletes.Scan([&](const Tuple& t) { r.Erase(t); });
    effect->inserts.Scan([&](const Tuple& t) { r.Insert(t); });
  }
}

RelationEffect& TransactionEffect::Mutable(const std::string& relation,
                                           const Schema& schema) {
  auto& slot = effects_[relation];
  if (slot == nullptr) slot = std::make_unique<RelationEffect>(schema);
  return *slot;
}

size_t TransactionEffect::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, effect] : effects_) {
    total += effect->inserts.size() + effect->deletes.size();
  }
  return total;
}

Transaction& Transaction::Insert(const std::string& relation, Tuple tuple) {
  ops_.push_back({true, relation, std::move(tuple)});
  return *this;
}

Transaction& Transaction::Delete(const std::string& relation, Tuple tuple) {
  ops_.push_back({false, relation, std::move(tuple)});
  return *this;
}

Transaction& Transaction::Update(const std::string& relation, Tuple old_tuple,
                                 Tuple new_tuple) {
  Delete(relation, std::move(old_tuple));
  Insert(relation, std::move(new_tuple));
  return *this;
}

Transaction& Transaction::InsertAll(const std::string& relation,
                                    const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) Insert(relation, t);
  return *this;
}

Transaction& Transaction::DeleteAll(const std::string& relation,
                                    const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) Delete(relation, t);
  return *this;
}

Transaction& Transaction::Append(const Transaction& other) {
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  return *this;
}

TransactionEffect Transaction::Normalize(const Database& db) const {
  // Replay the operations over an overlay recording each touched tuple's
  // final presence; compare with its pre-state presence to get the net
  // effect (Section 3: r, i_r, d_r mutually disjoint).
  std::map<std::string, std::unordered_map<Tuple, bool>> overlay;
  // Consecutive ops on one relation (a multi-row INSERT is thousands) share
  // one catalog lookup and one overlay lookup.
  const std::string* current = nullptr;
  size_t arity = 0;
  std::unordered_map<Tuple, bool>* tuples = nullptr;
  for (const auto& op : ops_) {
    if (current == nullptr || op.relation != *current) {
      arity = db.Get(op.relation).schema().size();
      tuples = &overlay[op.relation];
      current = &op.relation;
    }
    MVIEW_CHECK(op.tuple.size() == arity,
                "tuple arity does not match relation ", op.relation);
    (*tuples)[op.tuple] = op.is_insert;
  }
  TransactionEffect effect;
  for (auto& [name, tuples] : overlay) {
    const Relation& r = db.Get(name);
    auto rel_effect = std::make_unique<RelationEffect>(r.schema());
    for (auto& [tuple, present_after] : tuples) {
      bool present_before = r.Contains(tuple);
      if (present_after && !present_before) rel_effect->inserts.Insert(tuple);
      if (!present_after && present_before) rel_effect->deletes.Insert(tuple);
    }
    effect.effects_[name] = std::move(rel_effect);
  }
  return effect;
}

}  // namespace mview
