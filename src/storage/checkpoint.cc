#include "storage/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "relational/csv.h"
#include "relational/partition.h"
#include "storage/wal.h"
#include "util/fault.h"

namespace mview::storage {
namespace {

// "02" added the per-view health fields (quarantine flag, reason,
// stickiness); "03" the per-view partition count.  No migration: a
// checkpoint is rewritten wholesale on every CHECKPOINT/close, so no
// deployment carries an old file across versions.
constexpr char kMagic[8] = {'M', 'V', 'C', 'K', 'P', 'T', '0', '3'};

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw IoError("checkpoint: " + what + " failed for " + path + ": " +
                std::strerror(errno));
}

// --- structural (de)serialization of definitions ---------------------------
//
// `Condition::ToString` double-quotes string constants while the condition
// parser expects single quotes, so conditions do not survive a text round
// trip; atoms are encoded field by field instead.

void PutAtom(std::string* out, const Atom& atom) {
  wire::PutString(out, atom.lhs);
  wire::PutU8(out, static_cast<uint8_t>(atom.op));
  wire::PutU8(out, atom.rhs_var.has_value() ? 1 : 0);
  if (atom.rhs_var.has_value()) {
    wire::PutString(out, *atom.rhs_var);
    wire::PutI64(out, atom.offset);
  } else {
    wire::PutValue(out, atom.rhs_const);
  }
}

Atom GetAtom(wire::Reader* r) {
  Atom atom;
  atom.lhs = r->GetString();
  uint8_t op = r->GetU8();
  if (op > static_cast<uint8_t>(CompareOp::kGe)) {
    throw CorruptionError("checkpoint: bad comparison operator tag");
  }
  atom.op = static_cast<CompareOp>(op);
  if (r->GetU8() != 0) {
    atom.rhs_var = r->GetString();
    atom.offset = r->GetI64();
  } else {
    atom.rhs_const = r->GetValue();
  }
  return atom;
}

void PutCondition(std::string* out, const Condition& cond) {
  wire::PutU32(out, static_cast<uint32_t>(cond.disjuncts().size()));
  for (const auto& conj : cond.disjuncts()) {
    wire::PutU32(out, static_cast<uint32_t>(conj.atoms.size()));
    for (const auto& atom : conj.atoms) PutAtom(out, atom);
  }
}

Condition GetCondition(wire::Reader* r) {
  uint32_t n_disjuncts = r->GetCount();
  std::vector<Conjunction> disjuncts;
  disjuncts.reserve(n_disjuncts);
  for (uint32_t d = 0; d < n_disjuncts; ++d) {
    Conjunction conj;
    uint32_t n_atoms = r->GetCount();
    conj.atoms.reserve(n_atoms);
    for (uint32_t a = 0; a < n_atoms; ++a) conj.atoms.push_back(GetAtom(r));
    disjuncts.push_back(std::move(conj));
  }
  return Condition(std::move(disjuncts));
}

void PutStrings(std::string* out, const std::vector<std::string>& v) {
  wire::PutU32(out, static_cast<uint32_t>(v.size()));
  for (const auto& s : v) wire::PutString(out, s);
}

std::vector<std::string> GetStrings(wire::Reader* r) {
  uint32_t n = r->GetCount();
  std::vector<std::string> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) v.push_back(r->GetString());
  return v;
}

void PutDefinition(std::string* out, const ViewDefinition& def) {
  wire::PutString(out, def.name());
  wire::PutU32(out, static_cast<uint32_t>(def.bases().size()));
  for (const auto& base : def.bases()) {
    wire::PutString(out, base.relation);
    PutStrings(out, base.aliases);
  }
  PutCondition(out, def.condition());
  PutStrings(out, def.projection());
}

ViewDefinition GetDefinition(wire::Reader* r) {
  std::string name = r->GetString();
  uint32_t n_bases = r->GetCount();
  std::vector<BaseRef> bases;
  bases.reserve(n_bases);
  for (uint32_t i = 0; i < n_bases; ++i) {
    BaseRef base;
    base.relation = r->GetString();
    base.aliases = GetStrings(r);
    bases.push_back(std::move(base));
  }
  Condition cond = GetCondition(r);
  std::vector<std::string> projection = GetStrings(r);
  return ViewDefinition(std::move(name), std::move(bases), std::move(cond),
                        std::move(projection));
}

template <typename RelationT>
std::string ToCsvBlob(const RelationT& relation) {
  std::ostringstream out;
  WriteCsv(relation, out);
  return out.str();
}

void PutTuples(std::string* out, const std::vector<Tuple>& tuples) {
  wire::PutU32(out, static_cast<uint32_t>(tuples.size()));
  for (const auto& t : tuples) wire::PutTuple(out, t);
}

std::vector<Tuple> GetTuples(wire::Reader* r) {
  uint32_t n = r->GetCount();
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) tuples.push_back(r->GetTuple());
  return tuples;
}

/// Captures everything about a view except its materialization's rows.
CheckpointView BuildViewMeta(const ViewManager& views,
                             const std::string& name) {
  ViewInfo info = views.Describe(name);
  CheckpointView view;
  view.name = name;
  view.mode = info.mode;
  view.options = views.Maintainer(name).options();
  view.definition = std::move(info.definition);
  view.quarantined = info.quarantined;
  view.quarantine_reason = std::move(info.quarantine_reason);
  view.quarantine_sticky = info.quarantine_sticky;
  for (const auto& log : views.PendingLogs(name)) {
    // ForEachNetChange streams inserts then deletes in sorted order;
    // split them back out so each section carries its own count.
    CheckpointView::PendingLog out;
    log->ForEachNetChange([&](const Tuple& t, bool is_insert) {
      (is_insert ? out.inserts : out.deletes).push_back(t);
    });
    view.pending.push_back(std::move(out));
  }
  return view;
}

void PutViewMeta(std::string* body, const CheckpointView& view) {
  wire::PutString(body, view.name);
  wire::PutU8(body, static_cast<uint8_t>(view.mode));
  wire::PutU8(body, view.options.use_irrelevance_filter ? 1 : 0);
  wire::PutU8(body, view.options.reuse_subexpressions ? 1 : 0);
  wire::PutU8(body, static_cast<uint8_t>(view.options.strategy));
  wire::PutU32(body, view.options.partition_count);
  wire::PutU8(body, view.quarantined ? 1 : 0);
  wire::PutString(body, view.quarantine_reason);
  wire::PutU8(body, view.quarantine_sticky ? 1 : 0);
  PutDefinition(body, view.definition);
}

CheckpointView GetViewMeta(wire::Reader* r) {
  CheckpointView view;
  view.name = r->GetString();
  uint8_t mode = r->GetU8();
  if (mode > static_cast<uint8_t>(MaintenanceMode::kFullReevaluation)) {
    throw CorruptionError("checkpoint: bad maintenance mode tag");
  }
  view.mode = static_cast<MaintenanceMode>(mode);
  view.options.use_irrelevance_filter = r->GetU8() != 0;
  view.options.reuse_subexpressions = r->GetU8() != 0;
  uint8_t strategy = r->GetU8();
  if (strategy > static_cast<uint8_t>(DeltaStrategy::kTelescoped)) {
    throw CorruptionError("checkpoint: bad delta strategy tag");
  }
  view.options.strategy = static_cast<DeltaStrategy>(strategy);
  view.options.partition_count = r->GetU32();
  if (view.options.partition_count == 0 ||
      view.options.partition_count > kMaxPartitions) {
    throw CorruptionError("checkpoint: view partition count " +
                          std::to_string(view.options.partition_count) +
                          " outside [1, " + std::to_string(kMaxPartitions) +
                          "]");
  }
  view.quarantined = r->GetU8() != 0;
  view.quarantine_reason = r->GetString();
  view.quarantine_sticky = r->GetU8() != 0;
  view.definition = GetDefinition(r);
  return view;
}

void PutPendingLogs(std::string* body, const CheckpointView& view) {
  wire::PutU32(body, static_cast<uint32_t>(view.pending.size()));
  for (const auto& log : view.pending) {
    PutTuples(body, log.inserts);
    PutTuples(body, log.deletes);
  }
}

void GetPendingLogs(wire::Reader* r, CheckpointView* view) {
  uint32_t n_logs = r->GetCount();
  for (uint32_t l = 0; l < n_logs; ++l) {
    CheckpointView::PendingLog log;
    log.inserts = GetTuples(r);
    log.deletes = GetTuples(r);
    view->pending.push_back(std::move(log));
  }
}

void PutAssertions(std::string* body, const IntegrityGuard* guard) {
  std::vector<std::string> assertions =
      guard == nullptr ? std::vector<std::string>{} : guard->AssertionNames();
  wire::PutU32(body, static_cast<uint32_t>(assertions.size()));
  for (const auto& name : assertions) {
    PutDefinition(body, guard->Definition(name));
  }
}

std::string EncodeBody(uint64_t lsn, const Database& db,
                       const ViewManager& views, const IntegrityGuard* guard) {
  std::string body;
  wire::PutU64(&body, lsn);

  std::vector<std::string> tables = db.Names();
  wire::PutU32(&body, static_cast<uint32_t>(tables.size()));
  for (const auto& name : tables) {
    wire::PutString(&body, name);
    wire::PutString(&body, ToCsvBlob(db.Get(name)));
  }

  std::vector<std::string> view_names = views.ViewNames();
  wire::PutU32(&body, static_cast<uint32_t>(view_names.size()));
  for (const auto& name : view_names) {
    CheckpointView meta = BuildViewMeta(views, name);
    PutViewMeta(&body, meta);
    // The raw materialization, not `View()`: a quarantined view's contents
    // still checkpoint (recovery restores them alongside the quarantine
    // flag; `REPAIR VIEW` rebuilds from bases later).
    wire::PutString(&body, ToCsvBlob(views.Materialization(name)));
    PutPendingLogs(&body, meta);
  }

  PutAssertions(&body, guard);
  return body;
}

CheckpointData DecodeBody(const std::string& body) {
  wire::Reader r(body);
  CheckpointData data;
  data.lsn = r.GetU64();

  uint32_t n_tables = r.GetCount();
  for (uint32_t i = 0; i < n_tables; ++i) {
    std::string name = r.GetString();
    std::istringstream csv(r.GetString());
    data.tables.emplace_back(std::move(name), ReadCsv(csv));
  }

  uint32_t n_views = r.GetCount();
  for (uint32_t i = 0; i < n_views; ++i) {
    CheckpointView view = GetViewMeta(&r);
    std::istringstream csv(r.GetString());
    view.materialized = ReadCountedCsv(csv);
    GetPendingLogs(&r, &view);
    data.views.push_back(std::move(view));
  }

  uint32_t n_assertions = r.GetCount();
  for (uint32_t i = 0; i < n_assertions; ++i) {
    data.assertions.push_back(GetDefinition(&r));
  }
  if (!r.AtEnd()) {
    throw CorruptionError("checkpoint: trailing bytes after body");
  }
  return data;
}

// --- file I/O --------------------------------------------------------------
//
// File layout: 8-byte magic, CRC32 of the body, body length, body.

void WriteAll(int fd, const std::string& data, const std::string& path) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) ThrowErrno("write", path);
    done += static_cast<size_t>(n);
  }
}

std::string Frame(const std::string& body) {
  std::string file(kMagic, 8);
  wire::PutU32(&file, Crc32(body.data(), body.size()));
  wire::PutU64(&file, static_cast<uint64_t>(body.size()));
  file.append(body);
  return file;
}

void SyncDirOf(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort: some filesystems reject directory fsync
    ::close(dfd);
  }
}

/// Temp-write + fsync + rename + directory sync: a crash at any point
/// leaves either the old file or the new one, never a torn one.
void CommitFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ThrowErrno("open", tmp);
  try {
    WriteAll(fd, contents, tmp);
    if (::fsync(fd) != 0) ThrowErrno("fsync", tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) ThrowErrno("rename", path);
  SyncDirOf(path);
}

/// Reads and validates a checkpoint file: nullopt when absent, the body
/// when intact, `CorruptionError` otherwise.
std::optional<std::string> ReadFramedFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    ThrowErrno("open", path);
  }
  std::string contents;
  try {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) ThrowErrno("lseek", path);
    contents.resize(static_cast<size_t>(size));
    size_t done = 0;
    while (done < contents.size()) {
      ssize_t n = ::pread(fd, contents.data() + done, contents.size() - done,
                          static_cast<off_t>(done));
      if (n < 0) ThrowErrno("read", path);
      if (n == 0) break;
      done += static_cast<size_t>(n);
    }
    contents.resize(done);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  constexpr size_t kPrefix = 8 + 4 + 8;
  if (contents.size() < kPrefix ||
      std::memcmp(contents.data(), kMagic, 8) != 0) {
    throw CorruptionError("checkpoint: bad header in " + path);
  }
  wire::Reader prefix(contents.data() + 8, 12);
  uint32_t crc = prefix.GetU32();
  uint64_t body_len = prefix.GetU64();
  if (contents.size() != kPrefix + body_len) {
    throw CorruptionError("checkpoint: truncated body in " + path);
  }
  const char* body = contents.data() + kPrefix;
  if (Crc32(body, body_len) != crc) {
    throw CorruptionError("checkpoint: CRC mismatch in " + path);
  }
  return std::string(body, body_len);
}

}  // namespace

uint64_t WriteCheckpoint(const std::string& path, uint64_t lsn,
                         const Database& db, const ViewManager& views,
                         const IntegrityGuard* guard) {
  // Fires before the temp file exists, so an injected failure leaves the
  // previous checkpoint (and the un-rotated WAL) fully authoritative.
  MVIEW_FAULT_POINT("checkpoint.write");
  std::string file = Frame(EncodeBody(lsn, db, views, guard));
  CommitFile(path, file);
  return file.size();
}

std::optional<CheckpointData> ReadCheckpoint(const std::string& path) {
  std::optional<std::string> body = ReadFramedFile(path);
  if (!body.has_value()) return std::nullopt;
  try {
    return DecodeBody(*body);
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error& e) {
    // CSV or definition decoding failed on a CRC-valid file: still
    // corruption from the caller's perspective.
    throw CorruptionError(std::string("checkpoint: undecodable body: ") +
                          e.what());
  }
}

}  // namespace mview::storage
