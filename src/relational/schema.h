#ifndef MVIEW_RELATIONAL_SCHEMA_H_
#define MVIEW_RELATIONAL_SCHEMA_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/value.h"

namespace mview {

/// A named, typed attribute of a relation scheme.
struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt64;

  bool operator==(const Attribute& other) const {
    return name == other.name && type == other.type;
  }
};

/// An ordered relation scheme: a list of uniquely named, typed attributes.
///
/// Attribute names play the role of the paper's *variables*: a view condition
/// `C(Y)` mentions attribute names drawn from the schemes of the view's base
/// relations, so names must be unique across the relations of one view (the
/// paper's Definition 4.3 likewise assumes `R_i ∩ R_j = ∅`).  Natural-join
/// views are expressed by renaming shared attributes and adding equality
/// atoms; see `ViewDefinition::NaturalJoin`.
///
/// A `Schema` is an immutable handle to one shared representation (the
/// attribute list plus its name index): copying a scheme — which every
/// relation, delta, input and plan does — bumps a reference count instead
/// of rebuilding the vector and the hash map, and comparing two handles of
/// one representation short-circuits.  Handles are safe to copy and read
/// from several threads.
class Schema {
 public:
  /// Creates an empty scheme.
  Schema() = default;

  /// Creates a scheme from a list of attributes; throws on duplicate names.
  explicit Schema(std::vector<Attribute> attributes);

  /// Convenience: creates an all-int64 scheme from attribute names.
  static Schema OfInts(const std::vector<std::string>& names);

  /// Returns the number of attributes.
  size_t size() const { return attributes().size(); }
  bool empty() const { return attributes().empty(); }

  /// Returns the attribute at `index`.
  const Attribute& attribute(size_t index) const;

  /// Returns all attributes in order.
  const std::vector<Attribute>& attributes() const { return rep().attributes; }

  /// Returns the index of `name`, or nullopt when absent.
  std::optional<size_t> IndexOf(const std::string& name) const;

  /// Returns the index of `name`; throws when absent.
  size_t MustIndexOf(const std::string& name) const;

  /// Returns true when the scheme contains an attribute called `name`.
  bool Contains(const std::string& name) const;

  /// Returns the concatenation of this scheme with `other`; throws when the
  /// two schemes share an attribute name.
  Schema Concat(const Schema& other) const;

  /// Returns the sub-scheme consisting of `names` in the given order, along
  /// with the source indices of each projected attribute.
  Schema Project(const std::vector<std::string>& names,
                 std::vector<size_t>* indices = nullptr) const;

  /// Returns a copy with every attribute renamed by `prefix` + name.
  Schema WithPrefix(const std::string& prefix) const;

  bool operator==(const Schema& other) const {
    return rep_ == other.rep_ || attributes() == other.attributes();
  }
  bool operator!=(const Schema& other) const { return !(*this == other); }

  /// Renders the scheme as "(A:int64, B:string)".
  std::string ToString() const;

 private:
  struct Rep {
    std::vector<Attribute> attributes;
    std::unordered_map<std::string, size_t> index;
  };

  // The empty scheme's representation, shared by every default handle.
  static const Rep& EmptyRep();
  const Rep& rep() const { return rep_ != nullptr ? *rep_ : EmptyRep(); }

  std::shared_ptr<const Rep> rep_;  // null = the empty scheme
};

}  // namespace mview

#endif  // MVIEW_RELATIONAL_SCHEMA_H_
