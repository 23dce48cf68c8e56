#ifndef MVIEW_STORAGE_CHECKPOINT_H_
#define MVIEW_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "ivm/integrity.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
#include "relational/relation.h"

namespace mview::storage {

/// One view's captured state inside a checkpoint: definition, maintenance
/// configuration, the *exact* materialization (a deferred view may be
/// stale — recovery must not lose that), and the pending change backlog.
struct CheckpointView {
  struct PendingLog {
    std::vector<Tuple> inserts;
    std::vector<Tuple> deletes;
  };

  std::string name;
  MaintenanceMode mode = MaintenanceMode::kImmediate;
  MaintenanceOptions options;
  ViewDefinition definition;
  CountedRelation materialized;
  /// One entry per base occurrence for deferred views; empty otherwise.
  std::vector<PendingLog> pending;
  /// View health at checkpoint time: a quarantined view stays quarantined
  /// across recovery (its materialization is untrusted until repaired).
  bool quarantined = false;
  std::string quarantine_reason;
  bool quarantine_sticky = false;
};

/// A decoded checkpoint: everything needed to rebuild the engine state as
/// of `lsn`, after which the WAL tail (records with LSN > `lsn`) replays.
struct CheckpointData {
  uint64_t lsn = 0;
  std::vector<std::pair<std::string, Relation>> tables;
  std::vector<CheckpointView> views;
  /// Error-predicate definitions of registered assertions; re-registered
  /// *after* WAL replay so their error views reflect the final state.
  std::vector<ViewDefinition> assertions;
};

/// Writes a checkpoint of the full engine state to `path` atomically
/// (write to a temp file, fsync, rename, fsync the directory): a crash at
/// any point leaves either the old checkpoint or the new one, never a
/// torn file.  `lsn` is the highest WAL LSN the snapshot covers; `guard`
/// may be null when the engine has no integrity guard.
///
/// Table and view contents are embedded as CSV blobs (the `relational/`
/// codecs), conditions structurally — `Condition::ToString` is not
/// re-parseable, so no text round-trip.  Fires the "checkpoint.write"
/// fault point before touching the disk.  Throws `IoError` on file
/// errors; returns the bytes written.
uint64_t WriteCheckpoint(const std::string& path, uint64_t lsn,
                         const Database& db, const ViewManager& views,
                         const IntegrityGuard* guard);

/// Reads a checkpoint written by `WriteCheckpoint`.  Returns nullopt when
/// no file exists at `path` (a fresh database); throws `CorruptionError`
/// when the file exists but fails validation (bad magic, CRC mismatch,
/// undecodable body) and `IoError` on read errors.
std::optional<CheckpointData> ReadCheckpoint(const std::string& path);

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_CHECKPOINT_H_
