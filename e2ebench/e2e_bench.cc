// Layered end-to-end benchmark of the mview engine.
//
// Drives a TPC-H-shaped schema (customer / orders / lineitem in the ratio
// 1 : 10 : 40, four immediate views) through the public API and reports
// end-to-end latency and throughput.  With `--trace 1` it instead reports
// per-layer metrics: each operation's root calls (`Session::Execute`, or
// `Client::Execute` over TCP) are timed against the real engine while a
// replica that receives the same generated operations is driven layer by
// layer (`sql::Parse`, `Relation::Scan`, `Transaction::Normalize`,
// `DifferentialMaintainer::Prepare`/`ComputePartition`,
// `ViewManager::PrepareCommit`/`CommitPrepared`, `EpochSnapshot::Read`,
// `storage::Wal::Append`, ...), each call wrapped in a span recorded here.
// Counts come from `SHOW STATS JSON` and `SHOW WAL`.
//
// Workloads (see e2ebench/layers.json for why each exists):
//   trickle  one session, closed loop, small transactions, storage
//            attached (WAL written, no fsync); traced runs send its view
//            reads over TCP to a server on the same engine;
//   bulk     one in-process session, RF1-style 5,000-row append batches,
//            no storage.
//
// Usage:
//   e2e_bench --workload trickle|bulk --seed N --seconds S
//             --trace 0|1 [--scale F] [--setups N] [--dir DIR]
//             [--git-sha SHA]
//
// The last line of standard output is one JSON object:
//   {"correct":true,"attempted":N,"failed":F,"metrics":{...}}
// Any failed correctness check exits 1 without printing it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/storage.h"
#include "storage/wal.h"

namespace fs = std::filesystem;
using namespace mview;  // NOLINT: a single-file program over the whole API

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::cerr << "e2e_bench: check failed: " << what << "\n";
  std::exit(1);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;  // base-size multiplier (the smoke test shrinks it)
  int setups = 3;      // set-ups per run; setup_s is their median
  std::string dir = ".bench_build/e2e_data";
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + key);
    std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--scale") {
      a.scale = std::stod(value);
    } else if (key == "--setups") {
      a.setups = std::max(1, std::stoi(value));
    } else if (key == "--dir") {
      a.dir = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (a.workload != "trickle" && a.workload != "bulk") {
    Fail("--workload must be trickle or bulk");
  }
  if (a.seconds <= 0 || a.scale <= 0) Fail("--seconds/--scale must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Deterministic generator (splitmix64; identical on every platform).

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Sample statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The mean of the middle 90% of `v`.  Dashboard reads are bimodal (the
// two modes' shares shift from run to run), so their median jumps between
// modes while this mean moves only with the shares.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 20;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Schema, views and the data model

// Days are integers; orders span seven years, lineitems ship 1..121 days
// after their order.
constexpr int64_t kMaxDate = 2555;
constexpr int kRowsPerInsert = 1000;

const char* const kTables[] = {
    "CREATE TABLE customer (c_custkey INT64, c_nationkey INT64, "
    "c_mktseg INT64, c_acctbal INT64)",
    "CREATE TABLE orders (o_orderkey INT64, o_custkey INT64, "
    "o_orderdate INT64, o_totalprice INT64)",
    "CREATE TABLE lineitem (l_orderkey INT64, l_linenumber INT64, "
    "l_partkey INT64, l_quantity INT64, l_shipdate INT64)",
};

struct ViewSpec {
  const char* name;
  const char* ddl;
  const char* key;  // the column a point read filters on
  bool key_is_order;
};

// v_big_lines: a select view (paper §5.1).  v_cust_orders: a selective
// join, so the Algorithm 4.1 screen drops most new orders.  v_late_lines:
// an `x op y + c` join atom.  v_q3: the TPC-H Q3 shape over three bases.
const ViewSpec kViews[] = {
    {"v_big_lines",
     "CREATE MATERIALIZED VIEW v_big_lines AS SELECT * FROM lineitem "
     "WHERE l_quantity >= 49",
     "l_orderkey", true},
    {"v_cust_orders",
     "CREATE MATERIALIZED VIEW v_cust_orders AS SELECT c_custkey, "
     "c_nationkey, o_orderkey, o_orderdate, o_totalprice FROM customer, "
     "orders WHERE c_custkey = o_custkey AND c_mktseg = 1 AND "
     "o_orderdate >= 2400",
     "c_custkey", false},
    {"v_late_lines",
     "CREATE MATERIALIZED VIEW v_late_lines AS SELECT o_orderkey, "
     "o_custkey, o_orderdate, l_linenumber, l_shipdate FROM orders, "
     "lineitem WHERE o_orderkey = l_orderkey AND "
     "l_shipdate > o_orderdate + 90",
     "o_orderkey", true},
    {"v_q3",
     "CREATE MATERIALIZED VIEW v_q3 AS SELECT c_custkey, o_orderkey, "
     "o_orderdate, l_linenumber, l_quantity, l_shipdate FROM customer, "
     "orders, lineitem WHERE c_custkey = o_custkey AND "
     "o_orderkey = l_orderkey AND c_mktseg = 2 AND o_orderdate < 1200 AND "
     "l_shipdate > 1200",
     "c_custkey", false},
};
constexpr int kNumViews = 4;

struct OrderMeta {
  int32_t date = 0;
  int32_t lines = 0;
  int32_t slot = 0;  // index in Model::live
};

// The benchmark's own picture of the base, used only to generate valid
// operations (every retire and ship names an existing order).
struct Model {
  int64_t customers = 0;
  int64_t next_order = 1;
  int64_t lineitems = 0;
  std::vector<int64_t> live;
  std::unordered_map<int64_t, OrderMeta> orders;

  void Add(int64_t key, int32_t date, int32_t lines) {
    orders[key] = OrderMeta{date, lines, static_cast<int32_t>(live.size())};
    live.push_back(key);
    lineitems += lines;
  }
  void Remove(int64_t key) {
    auto it = orders.find(key);
    const int32_t slot = it->second.slot;
    lineitems -= it->second.lines;
    const int64_t moved = live.back();
    live[slot] = moved;
    orders[moved].slot = slot;
    live.pop_back();
    orders.erase(it);
  }
  int64_t RandomLive(Rng& rng) const {
    return live[static_cast<size_t>(rng.Range(0, live.size() - 1))];
  }
};

struct NewOrder {
  std::string order_row;                // "(k,c,d,p)"
  std::vector<std::string> line_rows;   // "(k,n,part,qty,ship)"
  int32_t date = 0;
};

NewOrder GenerateOrder(Rng& rng, int64_t key, int64_t customers) {
  NewOrder o;
  o.date = static_cast<int32_t>(rng.Range(0, kMaxDate));
  o.order_row = "(" + std::to_string(key) + "," +
                std::to_string(rng.Range(1, customers)) + "," +
                std::to_string(o.date) + "," +
                std::to_string(rng.Range(1000, 500000)) + ")";
  const int lines = static_cast<int>(rng.Range(1, 7));
  for (int n = 1; n <= lines; ++n) {
    o.line_rows.push_back(
        "(" + std::to_string(key) + "," + std::to_string(n) + "," +
        std::to_string(rng.Range(1, 200000)) + "," +
        std::to_string(rng.Range(1, 50)) + "," +
        std::to_string(o.date + rng.Range(1, 121)) + ")");
  }
  return o;
}

std::string JoinRows(const std::string& table,
                     const std::vector<std::string>& rows, size_t begin,
                     size_t end) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) sql += ",";
    sql += rows[i];
  }
  return sql;
}

void AppendChunks(const std::string& table,
                  const std::vector<std::string>& rows,
                  std::vector<std::string>* out) {
  for (size_t i = 0; i < rows.size(); i += kRowsPerInsert) {
    out->push_back(
        JoinRows(table, rows, i, std::min(rows.size(), i + kRowsPerInsert)));
  }
}

struct BaseData {
  std::vector<std::string> load_sql;  // multi-row INSERTs
  Model model;
  int64_t rows_customer = 0, rows_orders = 0, rows_lineitem = 0;
};

BaseData GenerateBase(Rng& rng, int64_t customers) {
  BaseData data;
  std::vector<std::string> cust, ord, line;
  for (int64_t c = 1; c <= customers; ++c) {
    cust.push_back("(" + std::to_string(c) + "," +
                   std::to_string(rng.Range(0, 24)) + "," +
                   std::to_string(rng.Range(0, 4)) + "," +
                   std::to_string(rng.Range(-999, 9999)) + ")");
  }
  data.model.customers = customers;
  const int64_t orders = customers * 10;
  for (int64_t k = 1; k <= orders; ++k) {
    NewOrder o = GenerateOrder(rng, k, customers);
    ord.push_back(o.order_row);
    for (auto& l : o.line_rows) line.push_back(std::move(l));
    data.model.Add(k, o.date, static_cast<int32_t>(o.line_rows.size()));
  }
  data.model.next_order = orders + 1;
  AppendChunks("customer", cust, &data.load_sql);
  AppendChunks("orders", ord, &data.load_sql);
  AppendChunks("lineitem", line, &data.load_sql);
  data.rows_customer = static_cast<int64_t>(cust.size());
  data.rows_orders = static_cast<int64_t>(ord.size());
  data.rows_lineitem = static_cast<int64_t>(line.size());
  return data;
}

// ---------------------------------------------------------------------------
// Operations

enum class OpKind { kOrder, kRead, kRetire, kShip, kBatch };
constexpr int kNumOpKinds = 5;
const char* const kOpNames[] = {"order", "read", "retire", "ship", "batch"};

struct Op {
  OpKind kind = OpKind::kOrder;
  std::vector<std::string> stmts;
  std::vector<std::string> expect;  // expected message per statement ("" = any)
  int64_t rows = 0;                 // base rows written
};

Op MakeOrderEntry(Rng& rng, Model* model) {
  const int64_t key = model->next_order++;
  NewOrder o = GenerateOrder(rng, key, model->customers);
  model->Add(key, o.date, static_cast<int32_t>(o.line_rows.size()));
  Op op;
  op.kind = OpKind::kOrder;
  op.stmts = {"BEGIN", "INSERT INTO orders VALUES " + o.order_row,
              JoinRows("lineitem", o.line_rows, 0, o.line_rows.size()),
              "COMMIT"};
  op.expect = {"", "1 row(s) staged",
               std::to_string(o.line_rows.size()) + " row(s) staged", ""};
  op.rows = 1 + static_cast<int64_t>(o.line_rows.size());
  return op;
}

// RF1-style append: 1,000 orders and their lineitems as two INSERTs.
Op MakeBatch(Rng& rng, Model* model) {
  std::vector<std::string> ord, line;
  for (int i = 0; i < 1000; ++i) {
    const int64_t key = model->next_order++;
    NewOrder o = GenerateOrder(rng, key, model->customers);
    ord.push_back(o.order_row);
    model->Add(key, o.date, static_cast<int32_t>(o.line_rows.size()));
    for (auto& l : o.line_rows) line.push_back(std::move(l));
  }
  Op op;
  op.kind = OpKind::kBatch;
  op.stmts = {"BEGIN", JoinRows("orders", ord, 0, ord.size()),
              JoinRows("lineitem", line, 0, line.size()), "COMMIT"};
  op.expect = {"", std::to_string(ord.size()) + " row(s) staged",
               std::to_string(line.size()) + " row(s) staged", ""};
  op.rows = static_cast<int64_t>(ord.size() + line.size());
  return op;
}

// A dashboard read: one point SELECT on each of the four views, keyed by
// a random live order or customer.  Each SELECT scans its view's epoch
// snapshot, so the largest view (v_late_lines) dominates the cost.
Op MakeRead(Rng& rng, const Model& model) {
  Op op;
  op.kind = OpKind::kRead;
  for (const ViewSpec& v : kViews) {
    const int64_t key =
        v.key_is_order ? model.RandomLive(rng) : rng.Range(1, model.customers);
    op.stmts.push_back(std::string("SELECT * FROM ") + v.name + " WHERE " +
                       v.key + " = " + std::to_string(key));
    op.expect.push_back("");
  }
  return op;
}

Op MakeRetire(Rng& rng, Model* model) {
  const int64_t key = model->RandomLive(rng);
  const int32_t lines = model->orders[key].lines;
  model->Remove(key);
  Op op;
  op.kind = OpKind::kRetire;
  op.stmts = {"BEGIN",
              "DELETE FROM lineitem WHERE l_orderkey = " + std::to_string(key),
              "DELETE FROM orders WHERE o_orderkey = " + std::to_string(key),
              "COMMIT"};
  op.expect = {"", std::to_string(lines) + " row(s) staged",
               "1 row(s) staged", ""};
  op.rows = 1 + lines;
  return op;
}

// Re-ships one lineitem: an UPDATE is a delete plus an insert, so the
// transaction carries mixed tags (paper Example 5.4).
Op MakeShip(Rng& rng, Model* model) {
  const int64_t key = model->RandomLive(rng);
  const OrderMeta& meta = model->orders[key];
  const int64_t line = rng.Range(1, meta.lines);
  Op op;
  op.kind = OpKind::kShip;
  op.stmts = {"UPDATE lineitem SET l_shipdate = " +
              std::to_string(meta.date + rng.Range(1, 121)) +
              " WHERE l_orderkey = " + std::to_string(key) +
              " AND l_linenumber = " + std::to_string(line)};
  op.expect = {"1 row(s) updated"};
  op.rows = 1;
  return op;
}

// The trickle mix in decks of 100: exactly 85 order entries, 8 view reads,
// 4 retires and 3 ships per deck, shuffled by the seed.  Fixed proportions
// keep the share of slow keyed operations identical from run to run.
constexpr int64_t kDeckSize = 100;

class TrickleMix {
 public:
  OpKind Next(Rng& rng) {
    if (pos_ == deck_.size()) {
      deck_.clear();
      deck_.insert(deck_.end(), 85, OpKind::kOrder);
      deck_.insert(deck_.end(), 8, OpKind::kRead);
      deck_.insert(deck_.end(), 4, OpKind::kRetire);
      deck_.insert(deck_.end(), 3, OpKind::kShip);
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[static_cast<size_t>(rng.Range(0, i))]);
      }
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  std::vector<OpKind> deck_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Per-op samples

struct Samples {
  std::vector<double> latency_us[kNumOpKinds];
  int64_t attempted[kNumOpKinds] = {};
  int64_t failed[kNumOpKinds] = {};
  int64_t rows = 0;

  void Merge(const Samples& o) {
    for (int k = 0; k < kNumOpKinds; ++k) {
      latency_us[k].insert(latency_us[k].end(), o.latency_us[k].begin(),
                           o.latency_us[k].end());
      attempted[k] += o.attempted[k];
      failed[k] += o.failed[k];
    }
    rows += o.rows;
  }
  int64_t TotalAttempted() const {
    int64_t n = 0;
    for (int64_t a : attempted) n += a;
    return n;
  }
  int64_t TotalFailed() const {
    int64_t n = 0;
    for (int64_t f : failed) n += f;
    return n;
  }
  const std::vector<double>& Of(OpKind k) const {
    return latency_us[static_cast<int>(k)];
  }
};

// ---------------------------------------------------------------------------
// Layer ledger (traced runs)

enum Layer {
  kParse,          // sql::Parse
  kDmlScan,        // Relation::Scan + Condition::Evaluate (DELETE/UPDATE)
  kNormalize,      // Transaction::Normalize
  kBaseApply,      // TransactionEffect::ApplyTo
  kScreen,         // DifferentialMaintainer::Prepare
  kDifferential,   // DifferentialMaintainer::ComputePartition
  kPrepareCommit,  // ViewManager::PrepareCommit minus the two above
  kCommitApply,    // ViewManager::CommitPrepared
  kViewRead,       // EpochSnapshot::Read + the row filter
  kWalAppend,      // storage::Wal::Append
  kServer,         // Client::Execute minus Session::Execute
  kNumLayers,
};

struct Ledger {
  double self_ns[kNumLayers] = {};
  int64_t users[kNumLayers] = {};  // operations that invoked the layer
  double root_ns = 0;
  int64_t commits = 0;
  int64_t statements = 0;          // statements sent over TCP
  double response_bytes = 0;
  int64_t rows_examined = 0, rows_matched = 0;
  int64_t affected_pairs = 0, empty_pairs = 0;  // (view, commit) pairs
  MaintenanceStats twin;  // screen / plan / cache counters of the twins
  int64_t arena_high_water = 0;
};

// One operation's spans: layer self-times are summed here and folded into
// the ledger when the operation ends, counting each layer once per op.
struct OpSpans {
  double self_ns[kNumLayers] = {};
  bool used[kNumLayers] = {};
  void Add(Layer l, double ns) {
    self_ns[l] += ns;
    used[l] = true;
  }
  void FoldInto(Ledger* ledger, double root_ns) const {
    for (int l = 0; l < kNumLayers; ++l) {
      if (!used[l]) continue;
      ledger->self_ns[l] += self_ns[l];
      ++ledger->users[l];
    }
    ledger->root_ns += root_ns;
  }
};

template <typename Fn>
double TimeNs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0);
}

// The replica: a second copy of the bases and views, driven one layer call
// at a time with the same statements the engine receives.  The twins are a
// second set of maintainers over the replica's bases; their Prepare and
// ComputePartition calls stand in as the children of the replica's
// ViewManager::PrepareCommit, which repeats that work internally.
class Replica {
 public:
  // Copies `src`'s bases (it must be quiescent), registers the same views
  // and times one FullEvaluate per view on the twins.  `wal_path` empty
  // means no storage.
  Replica(const sql::EngineCore& src, const std::string& wal_path)
      : views_(&db_) {
    for (const std::string& name : src.database().Names()) {
      const Relation& from = src.database().Get(name);
      Relation& to = db_.CreateRelation(name, from.schema());
      from.Scan([&](const Tuple& t) { to.Insert(t); });
    }
    auto snap = src.Snapshot();
    for (const ViewSpec& v : kViews) {
      ViewDefinition def = src.views().Describe(v.name).definition;
      views_.RegisterView(def, MaintenanceMode::kImmediate,
                          MaintenanceOptions{});
      twins_.push_back(
          std::make_unique<DifferentialMaintainer>(def, &db_,
                                                   MaintenanceOptions{}));
      CountedRelation full;
      full_evaluate_ns_.push_back(
          TimeNs([&] { full = twins_.back()->FullEvaluate(); }));
      Check(full.SameContents(snap->Read(v.name)),
            std::string("replica FullEvaluate differs from engine view ") +
                v.name);
    }
    if (!wal_path.empty()) {
      storage::WalOptions options;
      options.fsync = false;
      wal_ = std::make_unique<storage::Wal>(wal_path, options);
    }
  }

  const std::vector<double>& full_evaluate_ns() const {
    return full_evaluate_ns_;
  }

  // Stages one statement of a write operation into `*txn` (parse, then the
  // DML scan for keyed DELETE/UPDATE).  BEGIN/COMMIT only parse.
  void Stage(const std::string& sql, Transaction* txn, OpSpans* spans,
             Ledger* ledger) {
    std::vector<sql::Statement> parsed;
    spans->Add(kParse, TimeNs([&] { parsed = sql::Parse(sql); }));
    const sql::Statement& stmt = parsed.at(0);
    using Kind = sql::Statement::Kind;
    if (stmt.kind == Kind::kInsert) {
      for (const auto& row : stmt.rows) txn->Insert(stmt.name, Tuple(row));
    } else if (stmt.kind == Kind::kDelete || stmt.kind == Kind::kUpdate) {
      const Relation& rel = db_.Get(stmt.name);
      const Schema& schema = rel.schema();
      std::vector<Tuple> matches;
      int64_t examined = 0;
      spans->Add(kDmlScan, TimeNs([&] {
        rel.Scan([&](const Tuple& t) {
          ++examined;
          if (stmt.where.Evaluate(schema, t)) matches.push_back(t);
        });
      }));
      ledger->rows_examined += examined;
      ledger->rows_matched += static_cast<int64_t>(matches.size());
      for (const Tuple& t : matches) {
        if (stmt.kind == Kind::kDelete) {
          txn->Delete(stmt.name, t);
        } else {
          std::vector<Value> values = t.values();
          for (const auto& [col, value] : stmt.assignments) {
            values[schema.MustIndexOf(col)] = value;
          }
          txn->Update(stmt.name, t, Tuple(std::move(values)));
        }
      }
    }
  }

  // Commits a staged transaction through the layers in the engine's order:
  // normalize, screen + differential (twins), PrepareCommit, WAL append,
  // base apply, CommitPrepared.
  void Commit(const Transaction& txn, OpSpans* spans, Ledger* ledger) {
    TransactionEffect effect;
    spans->Add(kNormalize, TimeNs([&] { effect = txn.Normalize(db_); }));
    if (effect.Empty()) return;
    ++ledger->commits;
    double children_ns = 0;
    for (auto& twin : twins_) {
      if (!twin->AffectedBy(effect)) continue;
      ++ledger->affected_pairs;
      MaintenanceStats stats;
      std::optional<DifferentialMaintainer::PreparedDelta> prep;
      const double screen =
          TimeNs([&] { prep.emplace(twin->Prepare(effect, &stats)); });
      std::optional<ViewDelta> delta;
      const double diff = TimeNs(
          [&] { delta.emplace(twin->ComputePartition(*prep, 0, &stats)); });
      twin->FinalizeRoundStats(&stats);
      spans->Add(kScreen, screen);
      spans->Add(kDifferential, diff);
      children_ns += screen + diff;
      if (delta->Empty()) ++ledger->empty_pairs;
      ledger->arena_high_water =
          std::max(ledger->arena_high_water, stats.arena_high_water);
      stats.arena_high_water = 0;
      stats.arena_bytes = 0;
      stats.cache_bytes = 0;
      ledger->twin += stats;
    }
    std::optional<ViewManager::PreparedCommit> prepared;
    const double prepare_ns =
        TimeNs([&] { prepared.emplace(views_.PrepareCommit(effect)); });
    // The twins repeat PrepareCommit's own work in separate calls, so its
    // self-time is an estimate; it floors at zero when the twins ran slower.
    spans->Add(kPrepareCommit, std::max(0.0, prepare_ns - children_ns));
    if (wal_ != nullptr) {
      spans->Add(kWalAppend, TimeNs([&] { wal_->Append(effect); }));
    }
    // Applying first leaves CommitPrepared's own base apply with nothing to
    // change (Insert/Erase of present/absent tuples are no-ops), so its span
    // is the view-delta apply and epoch publish alone.
    spans->Add(kBaseApply, TimeNs([&] { effect.ApplyTo(&db_); }));
    spans->Add(kCommitApply, TimeNs([&] {
      views_.CommitPrepared(std::move(*prepared), effect);
    }));
  }

  // A view SELECT: parse, then read the published epoch and filter.
  // Returns the number of matching rows.
  int64_t Read(const std::string& sql, OpSpans* spans) {
    std::vector<sql::Statement> parsed;
    spans->Add(kParse, TimeNs([&] { parsed = sql::Parse(sql); }));
    const sql::SelectQuery& q = parsed.at(0).query;
    int64_t rows = 0;
    spans->Add(kViewRead, TimeNs([&] {
      auto snap = views_.Snapshot();
      const CountedRelation& view = snap->Read(q.from.at(0).table);
      const Schema& schema = view.schema();
      view.Scan([&](const Tuple& t, int64_t) {
        if (q.where.Evaluate(schema, t)) ++rows;
      });
    }));
    return rows;
  }

  std::string ViewText(const std::string& name) const {
    return views_.Snapshot()->Read(name).ToString();
  }

 private:
  Database db_;
  ViewManager views_;
  std::vector<std::unique_ptr<DifferentialMaintainer>> twins_;
  std::vector<double> full_evaluate_ns_;
  std::unique_ptr<storage::Wal> wal_;
};

// ---------------------------------------------------------------------------
// Engine instances

struct Instance {
  std::unique_ptr<Storage> storage;
  std::unique_ptr<sql::Engine> engine;
  std::string path;

  ~Instance() {
    engine.reset();
    storage.reset();
  }
};

Storage::Options StorageOptions() {
  Storage::Options options;
  options.fsync = false;  // the same flush policy on both sides of a diff
  options.checkpoint_on_close = false;
  return options;
}

sql::Result MustExecute(sql::Session& session, const std::string& sql) {
  sql::Result result;
  Status st = session.TryExecute(sql, &result);
  Check(st.ok, "statement failed: " + sql.substr(0, 120) + ": " +
                     st.message);
  return result;
}

sql::Result MustExecute(sql::Engine& engine, const std::string& sql) {
  sql::Result result;
  Status st = engine.TryExecute(sql, &result);
  Check(st.ok, "statement failed: " + sql.substr(0, 120) + ": " +
                     st.message);
  return result;
}

// Load plus four CREATE MATERIALIZED VIEWs (plus, with storage, the
// checkpoints DDL forces).  Returns the wall time in seconds.
double SetUp(const BaseData& data, const std::string& path, Instance* inst) {
  inst->engine.reset();
  inst->storage.reset();
  std::error_code ec;
  fs::remove_all(path, ec);
  inst->path = path;
  const int64_t t0 = NowNs();
  if (!path.empty()) {
    fs::create_directories(path);
    inst->storage = Storage::Open(path, StorageOptions());
  }
  inst->engine = std::make_unique<sql::Engine>(inst->storage.get());
  for (const char* ddl : kTables) MustExecute(*inst->engine, ddl);
  for (const std::string& sql : data.load_sql) MustExecute(*inst->engine, sql);
  for (const ViewSpec& v : kViews) MustExecute(*inst->engine, v.ddl);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const size_t p = json.find(pat);
  Check(p != std::string::npos, "SHOW STATS JSON lacks " + key);
  return std::stoll(json.substr(p + pat.size()));
}

struct EngineCounters {
  int64_t commits = 0, snapshot_copies = 0;
  int64_t checkpoint_nanos = 0, checkpoint_bytes = 0;
  int64_t wal_records = 0, wal_bytes = 0;
};

EngineCounters ReadCounters(sql::Engine& engine) {
  EngineCounters c;
  const std::string json = MustExecute(engine, "SHOW STATS JSON").message;
  c.commits = JsonInt(json, "commits");
  c.snapshot_copies = JsonInt(json, "snapshot_copies");
  c.checkpoint_nanos = JsonInt(json, "checkpoint_nanos");
  c.checkpoint_bytes = JsonInt(json, "checkpoint_bytes");
  sql::Result wal = MustExecute(engine, "SHOW WAL");
  for (size_t r = 0; r < wal.NumRows(); ++r) {
    const std::string& metric = wal.ValueAt(r, 0).AsString();
    const int64_t value = wal.ValueAt(r, 1).AsInt64();
    if (metric == "records_appended") c.wal_records = value;
    if (metric == "bytes_appended") c.wal_bytes = value;
  }
  return c;
}

std::string ViewText(const sql::Engine& engine, const std::string& name) {
  return engine.Snapshot()->Read(name).ToString();
}

// SCRUB ALL must report every view clean.
void CheckScrub(sql::Engine& engine) {
  sql::Result r = MustExecute(engine, "SCRUB ALL");
  Check(r.NumRows() == kNumViews, "SCRUB ALL did not report four views");
  for (size_t i = 0; i < r.NumRows(); ++i) {
    Check(r.ValueAt(i, 1).AsString() == "clean",
          "SCRUB ALL: view " + r.ValueAt(i, 0).AsString() + " is " +
              r.ValueAt(i, 1).AsString());
  }
}

// The engine's base sizes must match the benchmark's model.
void CheckBaseSizes(const sql::Engine& engine, const Model& model) {
  const Database& db = engine.database();
  Check(static_cast<int64_t>(db.Get("customer").size()) == model.customers,
        "customer row count");
  Check(static_cast<int64_t>(db.Get("orders").size()) ==
            static_cast<int64_t>(model.live.size()),
        "orders row count");
  Check(static_cast<int64_t>(db.Get("lineitem").size()) == model.lineitems,
        "lineitem row count");
}

// Runs one operation's statements on `session`; returns the root time (the
// sum of the Session::Execute calls) in ns, or -1 when a statement failed.
// A wrong affected-row count is a correctness failure, not an op failure.
double RunInProcess(sql::Session& session, const Op& op) {
  double root = 0;
  for (size_t i = 0; i < op.stmts.size(); ++i) {
    sql::Result result;
    const int64_t t0 = NowNs();
    Status st = session.TryExecute(op.stmts[i], &result);
    const double ns = static_cast<double>(NowNs() - t0);
    root += ns;
    if (!st.ok) {
      std::cerr << "e2e_bench: op failed: " << op.stmts[i].substr(0, 120)
                << ": " << st.message << "\n";
      if (session.in_transaction()) session.TryExecute("ROLLBACK", nullptr);
      return -1;
    }
    if (!op.expect[i].empty()) {
      Check(result.message == op.expect[i],
            "'" + op.stmts[i].substr(0, 80) + "' returned '" +
                result.message + "', expected '" + op.expect[i] + "'");
    }
  }
  return root;
}

void Record(Samples* s, const Op& op, double root_ns) {
  const int k = static_cast<int>(op.kind);
  ++s->attempted[k];
  if (root_ns < 0) {
    ++s->failed[k];
    return;
  }
  s->latency_us[k].push_back(root_ns / 1e3);
  s->rows += op.rows;
}

// Feeds one write operation through the replica; returns nothing but
// accumulates spans.
void ReplicaWrite(Replica* replica, const Op& op, OpSpans* spans,
                  Ledger* ledger) {
  Transaction txn;
  for (const std::string& sql : op.stmts) {
    if (sql == "COMMIT") {
      replica->Stage(sql, &txn, spans, ledger);
      replica->Commit(txn, spans, ledger);
      txn = Transaction();
    } else {
      replica->Stage(sql, &txn, spans, ledger);
    }
  }
  if (op.stmts.size() == 1) replica->Commit(txn, spans, ledger);  // autocommit
}

// ---------------------------------------------------------------------------
// Output

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintReport(const std::string& workload, const std::string& label,
                 const std::string& name, double value,
                 const std::string& unit, size_t n) {
  std::cout << "report " << workload << " " << label << " " << name << " = "
            << JsonNumber(value) << " " << unit;
  if (n > 0) std::cout << "  (n=" << n << ")";
  std::cout << "\n";
}

void PrintResult(const Samples& s, const Metrics& m) {
  std::ostringstream os;
  os << "{\"correct\": true, \"attempted\": " << s.TotalAttempted()
     << ", \"failed\": " << s.TotalFailed() << ", \"metrics\": {";
  for (size_t i = 0; i < m.items.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << m.items[i].first << "\": {\"value\": "
       << JsonNumber(m.items[i].second.first) << ", \"unit\": \""
       << m.items[i].second.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void PrintOps(const std::string& workload, const Samples& s) {
  for (int k = 0; k < kNumOpKinds; ++k) {
    if (s.attempted[k] == 0) continue;
    std::cout << "ops " << workload << " " << kOpNames[k]
              << " attempted=" << s.attempted[k] << " failed=" << s.failed[k]
              << "\n";
  }
}

// ---------------------------------------------------------------------------
// Workload runs

struct Sizes {
  int64_t customers;
  bool storage;
};

Sizes SizesFor(const Args& a) {
  const double base = a.workload == "bulk" ? 15000 : 5000;
  return Sizes{std::max<int64_t>(20, std::llround(base * a.scale)),
               a.workload != "bulk"};
}

// Bulk commits a fixed number of batches per measured second, so every run
// grows the base by the same amount whatever the engine's speed.
constexpr int kBulkBatchesPerSecond = 6;

struct TraceOut {
  Ledger ledger;
  std::vector<double> full_evaluate_ns;
  // Write latencies of the traced and untraced blocks (see InProcessRun).
  std::vector<double> traced_write_us, untraced_write_us;
  EngineCounters before, after;
  double checkpoint_ns = 0;
  int64_t checkpoint_bytes = 0;
  double replay_ns_per_record = 0;
  double setup_checkpoint_share = 0;
};

// The trickle reader's TCP connection.  Times each operation's
// `Client::Execute` calls (the root) and counts statements and response
// bytes.
class Connection {
 public:
  explicit Connection(uint16_t port) { client_.Connect("127.0.0.1", port); }

  // Returns the root time in ns, or -1 when a statement failed.
  double Run(const Op& op, Ledger* ledger) {
    double root = 0;
    for (size_t k = 0; k < op.stmts.size(); ++k) {
      const int64_t t0 = NowNs();
      server::WireResponse r;
      try {
        r = client_.Execute(op.stmts[k]);
      } catch (const std::exception& e) {
        r.ok = false;
        r.message = e.what();
      }
      root += static_cast<double>(NowNs() - t0);
      if (!r.ok) {
        std::cerr << "e2e_bench: request failed: " << op.stmts[k].substr(0, 80)
                  << ": " << r.message << "\n";
        return -1;
      }
      ++ledger->statements;
      ledger->response_bytes += static_cast<double>(r.raw.size() + 1);
    }
    return root;
  }

  // Every view read over TCP must equal the in-process snapshot read,
  // byte for byte.
  void CheckMatchesSnapshot(sql::Session& session) {
    for (const ViewSpec& v : kViews) {
      const std::string sql = std::string("SELECT * FROM ") + v.name;
      server::WireResponse wire = client_.Execute(sql);
      sql::Result local = MustExecute(session, sql);
      Check(wire.ok && wire.raw == server::EncodeResponse(Status::Ok(), &local),
            std::string("TCP read of ") + v.name +
                " differs from the in-process snapshot read");
    }
  }

 private:
  server::Client client_;
};

// Drives the replica's layers through one operation and folds its spans.
void Follow(Replica* replica, const Op& op, double root, OpSpans* spans,
            TraceOut* trace) {
  if (op.kind == OpKind::kRead) {
    for (const std::string& sql : op.stmts) replica->Read(sql, spans);
  } else {
    ReplicaWrite(replica, op, spans, &trace->ledger);
  }
  spans->FoldInto(&trace->ledger, root);
}

// The closed loop both workloads run on one session.
class InProcessRun {
 public:
  InProcessRun(const Args& args, Instance* inst, Model* model, Rng* rng)
      : args_(args),
        model_(model),
        rng_(rng),
        session_(inst->engine->CreateSession()) {}

  bool bulk() const { return args_.workload == "bulk"; }

  Op NextOp() {
    if (bulk()) {
      if (pending_read_) {
        pending_read_ = false;
        return MakeRead(*rng_, *model_);
      }
      pending_read_ = true;  // one view read after every batch
      return MakeBatch(*rng_, model_);
    }
    switch (mix_.Next(*rng_)) {
      case OpKind::kOrder: return MakeOrderEntry(*rng_, model_);
      case OpKind::kRead: return MakeRead(*rng_, *model_);
      case OpKind::kRetire: return MakeRetire(*rng_, model_);
      default: return MakeShip(*rng_, model_);
    }
  }

  // Runs for `seconds` (trickle) or `batches` batches (bulk).  With `tcp`,
  // view reads go over that connection instead of the in-process session.
  // With a replica, also drives its layers and fills `trace`: operations
  // run in alternating blocks (a trickle deck, or a bulk batch and its
  // read).  In a traced block the replica follows each operation at once;
  // in an untraced block it replays the block's operations after the
  // block ends, so no replica work falls between their roots.  Both kinds
  // of block see the same host state and base size, and the difference of
  // their write p50s is the tracing overhead.
  void Run(double seconds, int64_t batches, Samples* s, Connection* tcp,
           Replica* replica, TraceOut* trace) {
    const int64_t t0 = NowNs();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    const int64_t block_ops = bulk() ? 2 : kDeckSize;
    int64_t done_batches = 0, done_ops = 0;
    Ledger scratch;  // statement counts of untraced TCP reads
    struct Pending {
      Op op;
      double root;
      OpSpans spans;
    };
    std::vector<Pending> deferred;
    auto flush = [&] {
      for (Pending& p : deferred) {
        Follow(replica, p.op, p.root, &p.spans, trace);
      }
      deferred.clear();
    };
    while (true) {
      if (bulk() ? (done_batches >= batches && !pending_read_)
                 : NowNs() >= end) {
        break;
      }
      Op op = NextOp();
      if (op.kind == OpKind::kBatch) ++done_batches;
      const bool traced_block = (done_ops++ / block_ops) % 2 == 0;
      if (traced_block) flush();
      const bool wire = tcp != nullptr && op.kind == OpKind::kRead;
      const double root =
          wire ? tcp->Run(op, replica ? &trace->ledger : &scratch)
               : RunInProcess(*session_, op);
      Record(s, op, root);
      if (replica == nullptr || root < 0) continue;
      if (op.kind == WriteKind()) {
        (traced_block ? trace->traced_write_us : trace->untraced_write_us)
            .push_back(root / 1e3);
      }
      OpSpans spans;
      // Over TCP the server's self-time is the root minus the same
      // statements' Session::Execute on the same engine state.
      if (wire) spans.Add(kServer, root - RunInProcess(*session_, op));
      if (traced_block) {
        Follow(replica, op, root, &spans, trace);
      } else {
        deferred.push_back({std::move(op), root, spans});
      }
    }
    if (replica != nullptr) flush();
    wall_s_ += static_cast<double>(NowNs() - t0) / 1e9;
  }

  OpKind WriteKind() const { return bulk() ? OpKind::kBatch : OpKind::kOrder; }
  double wall_s() const { return wall_s_; }
  sql::Session& session() { return *session_; }

 private:
  const Args& args_;
  Model* model_;
  Rng* rng_;
  std::unique_ptr<sql::Session> session_;
  TrickleMix mix_;
  bool pending_read_ = false;
  double wall_s_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting helpers

void CheckReplica(const sql::Engine& engine, const Replica& replica) {
  for (const ViewSpec& v : kViews) {
    Check(ViewText(engine, v.name) == replica.ViewText(v.name),
          std::string("replica view differs from engine view ") + v.name);
  }
}

void EmitLayerMetrics(const TraceOut& t, Metrics* m) {
  const Ledger& l = t.ledger;
  auto per_user = [&](Layer layer) {
    return l.users[layer] == 0 ? 0.0 : l.self_ns[layer] / 1e3 /
                                           static_cast<double>(l.users[layer]);
  };
  auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const double commits = static_cast<double>(std::max<int64_t>(1, l.commits));
  m->Set("sql.parse_us", per_user(kParse), "us");
  m->Set("sql.dml_scan_us", per_user(kDmlScan), "us");
  m->Set("sql.rows_examined_per_match",
         ratio(static_cast<double>(l.rows_examined),
               static_cast<double>(l.rows_matched)),
         "ratio");
  m->Set("server.overhead_us",
         ratio(l.self_ns[kServer] / 1e3, static_cast<double>(l.statements)),
         "us");
  m->Set("server.response_bytes",
         ratio(l.response_bytes, static_cast<double>(l.statements)), "bytes");
  m->Set("db.normalize_us", per_user(kNormalize), "us");
  m->Set("db.base_apply_us", per_user(kBaseApply), "us");
  m->Set("ivm.screen_us", per_user(kScreen), "us");
  m->Set("ivm.screen_drop_ratio",
         ratio(static_cast<double>(l.twin.updates_filtered),
               static_cast<double>(l.twin.updates_seen)),
         "ratio");
  m->Set("ivm.txn_skip_ratio",
         ratio(static_cast<double>(l.empty_pairs),
               static_cast<double>(l.affected_pairs)),
         "ratio");
  m->Set("ivm.differential_us", per_user(kDifferential), "us");
  m->Set("ivm.prepare_commit_us", per_user(kPrepareCommit), "us");
  m->Set("ivm.commit_apply_us", per_user(kCommitApply), "us");
  m->Set("ivm.snapshot_copies_per_commit",
         ratio(static_cast<double>(t.after.snapshot_copies -
                                   t.before.snapshot_copies),
               static_cast<double>(t.after.commits - t.before.commits)),
         "ratio");
  m->Set("ivm.view_read_us", per_user(kViewRead), "us");
  m->Set("ivm.full_evaluate_us",
         t.full_evaluate_ns.empty()
             ? 0.0
             : Sum(t.full_evaluate_ns) / 1e3 /
                   static_cast<double>(t.full_evaluate_ns.size()),
         "us");
  m->Set("ra.truth_rows_evaluated",
         static_cast<double>(l.twin.rows_evaluated) / commits, "count");
  m->Set("ra.rows_scanned",
         static_cast<double>(l.twin.plan.rows_scanned) / commits, "count");
  m->Set("ra.probes", static_cast<double>(l.twin.plan.probes) / commits,
         "count");
  m->Set("ra.intermediate_per_output",
         ratio(static_cast<double>(l.twin.plan.intermediate_tuples),
               static_cast<double>(l.twin.plan.output_tuples)),
         "ratio");
  const double lookups =
      static_cast<double>(l.twin.cache_hits + l.twin.cache_misses);
  m->Set("ra.join_cache_lookups", lookups / commits, "count");
  m->Set("ra.join_cache_hit_ratio",
         ratio(static_cast<double>(l.twin.cache_hits), lookups), "ratio");
  m->Set("ra.arena_high_water_bytes", static_cast<double>(l.arena_high_water),
         "bytes");
  m->Set("storage.wal_append_us", per_user(kWalAppend), "us");
  m->Set("storage.wal_bytes_per_commit",
         ratio(static_cast<double>(t.after.wal_bytes - t.before.wal_bytes),
               static_cast<double>(t.after.wal_records - t.before.wal_records)),
         "bytes");
  m->Set("storage.checkpoint_us", t.checkpoint_ns / 1e3, "us");
  m->Set("storage.checkpoint_bytes", static_cast<double>(t.checkpoint_bytes),
         "bytes");
  m->Set("storage.setup_checkpoint_share", t.setup_checkpoint_share, "ratio");
  m->Set("storage.replay_us_per_record", t.replay_ns_per_record / 1e3, "us");
  double self_sum = 0;
  for (int layer = 0; layer < kNumLayers; ++layer) self_sum += l.self_ns[layer];
  m->Set("trace.unattributed_share",
         ratio(l.root_ns - self_sum, l.root_ns), "ratio");
  const double untraced_p50 = Median(t.untraced_write_us);
  m->Set("trace.overhead_pct",
         ratio(Median(t.traced_write_us) - untraced_p50, untraced_p50) * 100.0,
         "pct");
}

struct DurabilityResult {
  double checkpoint_s = 0, recovery_s = 0;
  double storage_checkpoint_ns = 0;  // Storage::Checkpoint's own time
  int64_t checkpoint_bytes = 0, replayed = 0;
  double replay_s = 0;  // traced runs: the WAL replay's share of recovery_s
};

// Reopens a copy of `path` (timed) with `wal` (false: the copy's WAL is
// deleted first, so only its checkpoint loads).  With `views`, checks the
// reopened views equal them byte for byte.  `*replayed` gets the WAL
// records the reopen replayed.
double ReopenCopy(const std::string& path, bool wal,
                  const std::vector<std::string>* views, int64_t* replayed) {
  const std::string copy = path + ".reopen";
  std::error_code ec;
  fs::remove_all(copy, ec);
  fs::copy(path, copy, fs::copy_options::recursive);
  if (!wal) fs::remove(fs::path(copy) / "wal.mv");
  const int64_t t0 = NowNs();
  std::unique_ptr<Storage> storage = Storage::Open(copy, StorageOptions());
  auto engine = std::make_unique<sql::Engine>(storage.get());
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  *replayed = static_cast<int64_t>(storage->wal_stats().records_replayed);
  for (int i = 0; views != nullptr && i < kNumViews; ++i) {
    Check(ViewText(*engine, kViews[i].name) == (*views)[static_cast<size_t>(i)],
          std::string("reopened view differs: ") + kViews[i].name);
  }
  engine.reset();
  storage.reset();
  fs::remove_all(copy, ec);
  return seconds;
}

// Snapshots the views, copies the storage directory as it stands (the
// run's commits are still in the WAL), sends CHECKPOINT (timed, and its
// Storage::Checkpoint time read from the checkpoint_nanos counter), then
// reopens the copy (timed: checkpoint load plus WAL replay) and checks it
// equals the snapshot byte for byte.  `traced` also reopens the copy
// without its WAL, so the replay's own cost can be separated out.
DurabilityResult CheckpointAndRecover(Instance* inst, bool traced) {
  DurabilityResult d;
  std::vector<std::string> views;
  for (const ViewSpec& v : kViews) {
    views.push_back(ViewText(*inst->engine, v.name));
  }
  const std::string before = inst->path + ".precheckpoint";
  std::error_code ec;
  fs::remove_all(before, ec);
  fs::copy(inst->path, before, fs::copy_options::recursive);
  const EngineCounters c0 = ReadCounters(*inst->engine);
  const int64_t t0 = NowNs();
  MustExecute(*inst->engine, "CHECKPOINT");
  d.checkpoint_s = static_cast<double>(NowNs() - t0) / 1e9;
  const EngineCounters c1 = ReadCounters(*inst->engine);
  d.storage_checkpoint_ns =
      static_cast<double>(c1.checkpoint_nanos - c0.checkpoint_nanos);
  d.checkpoint_bytes = c1.checkpoint_bytes - c0.checkpoint_bytes;
  d.recovery_s = ReopenCopy(before, true, &views, &d.replayed);
  if (traced) {
    int64_t none = 0;
    d.replay_s = d.recovery_s - ReopenCopy(before, false, nullptr, &none);
  }
  fs::remove_all(before, ec);
  return d;
}

// ---------------------------------------------------------------------------
// Main

int Main(const Args& args) {
  const Sizes sizes = SizesFor(args);
  Rng data_rng(args.seed);
  const BaseData data = GenerateBase(data_rng, sizes.customers);
  const std::string run_dir =
      (fs::path(args.dir) / (args.workload + "-" + std::to_string(getpid())))
          .string();
  fs::create_directories(run_dir);
  const std::string db_path = sizes.storage ? run_dir + "/db" : "";

  std::cout << "meta {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << JsonNumber(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"scale\": " << JsonNumber(args.scale)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"git_sha\": \"" << args.git_sha
            << "\", \"build_type\": \"" << E2E_BUILD_TYPE
            << "\", \"storage\": " << (sizes.storage ? "true" : "false")
            << ", \"flush_policy\": \""
            << (sizes.storage ? "wal written, fsync off" : "none")
            << "\", \"rows\": {\"customer\": " << data.rows_customer
            << ", \"orders\": " << data.rows_orders
            << ", \"lineitem\": " << data.rows_lineitem << "}}\n";

  Instance inst;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : args.setups;
  for (int i = 0; i < setups; ++i) {
    setup_s.push_back(SetUp(data, db_path, &inst));
  }
  Model model = data.model;
  Rng rng(args.seed ^ 0xA5A5A5A5ULL);
  const std::string& w = args.workload;

  TraceOut trace;
  if (args.trace && sizes.storage) {
    trace.setup_checkpoint_share =
        static_cast<double>(ReadCounters(*inst.engine).checkpoint_nanos) /
        1e9 / setup_s.back();
  }
  Samples s;
  Metrics m;
  {  // The session, server and connection must close before the engine.
    const bool bulk = w == "bulk";
    const int64_t batches = std::max<int64_t>(
        2, std::llround(kBulkBatchesPerSecond * args.seconds));
    InProcessRun run(args, &inst, &model, &rng);
    const OpKind write_kind = run.WriteKind();
    // In traced trickle runs the dashboard reads go over TCP to a server on
    // the same engine, so the server layer is measured.  Untraced runs read
    // in-process: over TCP the reads scan the views from another thread's
    // core, and their mean spread up to 0.28 between runs.
    std::unique_ptr<server::Server> server;
    std::unique_ptr<Connection> tcp;
    if (!bulk && args.trace) {
      server = std::make_unique<server::Server>(&inst.engine->core(),
                                                server::Server::Options{});
      server->Start();
      tcp = std::make_unique<Connection>(server->port());
    }
    if (!args.trace) {
      run.Run(args.seconds, batches, &s, tcp.get(), nullptr, nullptr);
    } else {
      const std::string wal_path =
          sizes.storage ? run_dir + "/replica_wal.mv" : "";
      Replica replica(inst.engine->core(), wal_path);
      trace.full_evaluate_ns = replica.full_evaluate_ns();
      trace.before = ReadCounters(*inst.engine);
      run.Run(args.seconds, batches, &s, tcp.get(), &replica, &trace);
      trace.after = ReadCounters(*inst.engine);
      CheckReplica(*inst.engine, replica);
    }
    if (tcp != nullptr) {
      tcp->CheckMatchesSnapshot(run.session());
      tcp.reset();
      server->Shutdown();
    }
    CheckBaseSizes(*inst.engine, model);
    CheckScrub(*inst.engine);
    if (!bulk) {
      DurabilityResult d = CheckpointAndRecover(&inst, args.trace);
      trace.checkpoint_ns = d.storage_checkpoint_ns;
      trace.checkpoint_bytes = d.checkpoint_bytes;
      trace.replay_ns_per_record =
          d.replayed == 0 ? 0
                          : d.replay_s * 1e9 / static_cast<double>(d.replayed);
      if (!args.trace) {
        PrintReport(w, "e2e", "checkpoint_s", d.checkpoint_s, "s", 0);
        PrintReport(w, "e2e", "recovery_s", d.recovery_s, "s", d.replayed);
      }
    }
    if (!args.trace) {
      // The write tail is p95 on trickle: its p99 rests on the ~30 slowest
      // of ~3,000 order entries and spread 0.21 between runs.  It is p80 on
      // bulk: about 5 of its 90 batches take 50-190 ms against ~35 ms, and
      // any quantile from p90 up lands on or inside that cluster of a few
      // samples (p90 spread 0.25-0.30 between runs).
      const std::vector<double>& writes = s.Of(write_kind);
      double busy_us = 0;
      for (const auto& kind : s.latency_us) busy_us += Sum(kind);
      m.Set("setup_s", Median(setup_s), "s");
      m.Set("peak_rss_mb", PeakRssMb(), "MB");
      m.Set("write_p50_us", Median(writes), "us");
      m.Set("write_tail_us", Quantile(writes, bulk ? 0.8 : 0.95), "us");
      m.Set("read_mean_us", TrimmedMean(s.Of(OpKind::kRead)), "us");
      m.Set("rows_per_s", static_cast<double>(s.rows) / (busy_us / 1e6),
            "rows/s");
      // Per-workload metrics under their own names (report lines only).
      const auto& reads = s.Of(OpKind::kRead);
      if (bulk) {
        PrintReport(w, "e2e", "rows_per_s",
                    static_cast<double>(s.rows) / run.wall_s(), "rows/s",
                    writes.size());
        PrintReport(w, "e2e", "batch_p50_ms", Median(writes) / 1e3, "ms",
                    writes.size());
        PrintReport(w, "e2e", "batch_p99_ms", Quantile(writes, 0.99) / 1e3,
                    "ms", writes.size());
      } else {
        PrintReport(w, "e2e", "order_p50_us", Median(writes), "us",
                    writes.size());
        PrintReport(w, "e2e", "order_p99_us", Quantile(writes, 0.99), "us",
                    writes.size());
        const auto& retires = s.Of(OpKind::kRetire);
        const auto& ships = s.Of(OpKind::kShip);
        PrintReport(w, "e2e", "retire_p50_us", Median(retires), "us",
                    retires.size());
        PrintReport(w, "e2e", "ship_p50_us", Median(ships), "us", ships.size());
        PrintReport(w, "e2e", "read_p99_us", Quantile(reads, 0.99), "us",
                    reads.size());
      }
      PrintReport(w, "e2e", "read_p50_us", Median(reads), "us", reads.size());
    }
  }

  if (args.trace) EmitLayerMetrics(trace, &m);
  for (const auto& [name, vu] : m.items) {
    PrintReport(w, args.trace ? "layer" : "metric", name, vu.first, vu.second,
                0);
  }
  PrintOps(w, s);
  if (!args.trace) {
    std::cout << "report " << w << " setup setup_s samples =";
    for (double x : setup_s) std::cout << " " << JsonNumber(x);
    std::cout << "\n";
  }
  inst.engine.reset();
  inst.storage.reset();
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  PrintResult(s, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
