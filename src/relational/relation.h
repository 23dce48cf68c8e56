#ifndef MVIEW_RELATIONAL_RELATION_H_
#define MVIEW_RELATIONAL_RELATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview {

/// A base relation with set semantics.
///
/// The paper's model (Section 3) treats base relations as sets: a
/// transaction's net effect on `r` is a pair of disjoint sets `i_r`, `d_r`
/// with `τ(r) = r ∪ i_r − d_r`.  Single-attribute hash indexes can be
/// created to support the index joins used by differential re-evaluation
/// (the `t_r ⋈ s` joins of Section 5.3 probe `s` by join-attribute value).
class Relation {
 public:
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// A process-unique identity assigned at construction.  Together with
  /// `version()` it forms the validity token of the cross-transaction
  /// join-state cache: a cached structure derived from a relation is
  /// current exactly when both values still match (a recreated relation —
  /// e.g. after recovery — gets a fresh uid even at the same address).
  uint64_t uid() const { return uid_; }

  /// Content version: incremented by every successful `Insert`/`Erase`
  /// (index creation does not change contents and leaves it alone).
  uint64_t version() const { return version_; }

  /// Inserts a tuple; returns false when it was already present.
  /// Throws when the tuple arity does not match the scheme.
  bool Insert(const Tuple& tuple);

  /// Removes a tuple; returns false when it was not present.
  bool Erase(const Tuple& tuple);

  /// Returns true when the tuple is present.
  bool Contains(const Tuple& tuple) const { return rows_.count(tuple) > 0; }

  /// Invokes `fn` for every tuple (unspecified order).
  void Scan(const std::function<void(const Tuple&)>& fn) const;

  /// Creates (or re-creates) a hash index on the named attribute.
  void CreateIndex(const std::string& attribute);

  /// Returns true when an index exists on the attribute at `attr_index`.
  bool HasIndex(size_t attr_index) const;

  /// Returns the attribute indices that currently have hash indexes.
  std::vector<size_t> IndexedAttributes() const;

  /// Probes the index on `attr_index` for tuples whose attribute equals
  /// `key`.  Returns nullptr when no tuple matches.  Throws when no index
  /// exists on that attribute.
  const std::vector<const Tuple*>* Probe(size_t attr_index,
                                         const Value& key) const;

  /// Returns all tuples sorted lexicographically (for tests and printing).
  std::vector<Tuple> ToSortedVector() const;

  /// Renders the full contents, one tuple per line, sorted.
  std::string ToString() const;

 private:
  using Index = std::unordered_map<Value, std::vector<const Tuple*>>;

  static uint64_t NextUid();

  void IndexInsert(Index* index, size_t attr, const Tuple& stored);
  void IndexErase(Index* index, size_t attr, const Tuple& tuple);

  uint64_t uid_ = NextUid();
  uint64_t version_ = 0;
  Schema schema_;
  std::unordered_set<Tuple> rows_;
  // attr index -> value -> tuples.  Pointers reference nodes of `rows_`,
  // which are stable across rehash in node-based unordered containers.
  std::unordered_map<size_t, Index> indexes_;
};

/// A relation whose tuples carry a multiplicity counter (Section 5.2).
///
/// This is the representation of materialized views and of deltas.  The
/// paper redefines projection to sum counters and join to multiply them so
/// that projection distributes over difference; `CountedRelation` is the
/// carrier of that algebra.  Counts are strictly positive; `Add` with a
/// negative delta removes multiplicity and throws if a count would go below
/// zero (that would mean the view lost tuples it never had — a maintenance
/// bug).
class CountedRelation {
 public:
  CountedRelation() = default;
  explicit CountedRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Number of distinct tuples.
  size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Sum of all multiplicities.
  int64_t TotalCount() const { return total_; }

  /// Adds `count` (which may be negative) to the tuple's multiplicity.
  /// Removes the tuple when the multiplicity reaches zero; throws when it
  /// would become negative.
  void Add(const Tuple& tuple, int64_t count);

  /// As above, but consumes the tuple — a freshly built key is moved into
  /// the map instead of copied (the batch sink's per-row fast path).
  void Add(Tuple&& tuple, int64_t count);

  /// Returns the multiplicity of `tuple` (zero when absent).
  int64_t Count(const Tuple& tuple) const;

  /// Cancels the multiplicity shared with `other`: for every tuple present
  /// in both, subtracts `min` of the two counts from each side (erasing
  /// tuples that reach zero).  Afterwards the two relations are disjoint —
  /// the normalization step of a delta's (inserts, deletes) pair.  Iterates
  /// the smaller side's map directly, so no per-row callback dispatch.
  void CancelWith(CountedRelation* other);

  bool Contains(const Tuple& tuple) const { return Count(tuple) > 0; }

  /// Invokes `fn(tuple, count)` for every distinct tuple.
  void Scan(const std::function<void(const Tuple&, int64_t)>& fn) const;

  /// Removes all tuples.
  void Clear();

  /// Returns (tuple, count) pairs sorted by tuple (tests and printing).
  std::vector<std::pair<Tuple, int64_t>> ToSortedVector() const;

  /// Structural equality: same scheme arity, same tuples, same counts.
  bool SameContents(const CountedRelation& other) const;

  /// Renders the contents, one "tuple xcount" per line, sorted.
  std::string ToString() const;

 private:
  Schema schema_;
  std::unordered_map<Tuple, int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace mview

#endif  // MVIEW_RELATIONAL_RELATION_H_
