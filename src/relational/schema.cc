#include "relational/schema.h"

#include <sstream>

#include "util/error.h"

namespace mview {

Schema::Schema(std::vector<Attribute> attributes) {
  if (attributes.empty()) return;
  auto rep = std::make_shared<Rep>();
  rep->attributes = std::move(attributes);
  rep->index.reserve(rep->attributes.size());
  for (size_t i = 0; i < rep->attributes.size(); ++i) {
    const std::string& name = rep->attributes[i].name;
    MVIEW_CHECK(!name.empty(), "empty attribute name");
    auto [it, inserted] = rep->index.emplace(name, i);
    (void)it;
    MVIEW_CHECK(inserted, "duplicate attribute name: ", name);
  }
  rep_ = std::move(rep);
}

const Schema::Rep& Schema::EmptyRep() {
  static const Rep empty;
  return empty;
}

Schema Schema::OfInts(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const auto& n : names) attrs.push_back({n, ValueType::kInt64});
  return Schema(std::move(attrs));
}

const Attribute& Schema::attribute(size_t index) const {
  const std::vector<Attribute>& attrs = attributes();
  MVIEW_CHECK(index < attrs.size(), "attribute index out of range");
  return attrs[index];
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  const auto& index = rep().index;
  auto it = index.find(name);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

size_t Schema::MustIndexOf(const std::string& name) const {
  auto idx = IndexOf(name);
  MVIEW_CHECK(idx.has_value(), "unknown attribute: ", name, " in scheme ",
              ToString());
  return *idx;
}

bool Schema::Contains(const std::string& name) const {
  return rep().index.count(name) > 0;
}

Schema Schema::Concat(const Schema& other) const {
  if (other.empty()) return *this;
  if (empty()) return other;
  std::vector<Attribute> attrs = attributes();
  for (const auto& a : other.attributes()) {
    MVIEW_CHECK(!Contains(a.name),
                "schemes share attribute when concatenating: ", a.name);
    attrs.push_back(a);
  }
  return Schema(std::move(attrs));
}

Schema Schema::Project(const std::vector<std::string>& names,
                       std::vector<size_t>* indices) const {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  if (indices != nullptr) {
    indices->clear();
    indices->reserve(names.size());
  }
  for (const auto& n : names) {
    size_t idx = MustIndexOf(n);
    attrs.push_back(attributes()[idx]);
    if (indices != nullptr) indices->push_back(idx);
  }
  return Schema(std::move(attrs));
}

Schema Schema::WithPrefix(const std::string& prefix) const {
  std::vector<Attribute> attrs = attributes();
  for (auto& a : attrs) a.name = prefix + a.name;
  return Schema(std::move(attrs));
}

std::string Schema::ToString() const {
  const std::vector<Attribute>& attrs = attributes();
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) os << ", ";
    os << attrs[i].name << ":" << ValueTypeName(attrs[i].type);
  }
  os << ")";
  return os.str();
}

}  // namespace mview
