#ifndef MVIEW_RELATIONAL_PARTITION_H_
#define MVIEW_RELATIONAL_PARTITION_H_

#include <cstdint>

#include "relational/tuple.h"

namespace mview {

/// The largest partition count a view may carry (`PARTITIONS n` in SQL,
/// `MaintenanceOptions::partition_count` in a checkpoint image).  The SQL
/// parser and the checkpoint decoder both reject counts outside
/// [1, kMaxPartitions].
inline constexpr uint32_t kMaxPartitions = 4096;

/// The row-hash slice of `tuple` among `count` slices: the stable
/// whole-tuple hash modulo `count`.  Stable across processes — see
/// `Value::StableHash`.
inline uint32_t PartitionOf(const Tuple& tuple, uint32_t count) {
  if (count <= 1) return 0;
  return static_cast<uint32_t>(tuple.StableHash() % count);
}

}  // namespace mview

#endif  // MVIEW_RELATIONAL_PARTITION_H_
