#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "ivm/view_manager.h"
#include "sql/engine.h"
#include "storage/checkpoint.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/error.h"

namespace mview::storage {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    dir_ = ::testing::TempDir() + "/mview_storage_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~StorageTest() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return dir_ + "/wal.mv"; }
  std::string CheckpointPath() const { return dir_ + "/checkpoint.mv"; }

  // A one-relation effect inserting (k, k*10) into R.
  TransactionEffect Effect(int64_t k) {
    TransactionEffect effect;
    RelationEffect& re = effect.Mutable("R", Schema::OfInts({"A", "B"}));
    re.inserts.Insert(T({k, k * 10}));
    return effect;
  }

  std::set<std::string> Listing() const {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }

  std::vector<WalRecord> Reopen(WalOptions options = WalOptions{}) {
    std::vector<WalRecord> records;
    Wal wal(WalPath(), options,
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    return records;
  }

  std::string dir_;
};

TEST_F(StorageTest, WireCodecRoundTripsValuesAndTuples) {
  std::string buf;
  wire::PutU32(&buf, 0xDEADBEEFu);
  wire::PutI64(&buf, -42);
  wire::PutString(&buf, "hello, wal");
  wire::PutValue(&buf, Value(7));
  wire::PutValue(&buf, Value("seven"));
  wire::PutTuple(&buf, Tuple({Value(1), Value("x")}));

  wire::Reader r(buf);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetString(), "hello, wal");
  EXPECT_EQ(r.GetValue(), Value(7));
  EXPECT_EQ(r.GetValue(), Value("seven"));
  EXPECT_EQ(r.GetTuple(), Tuple({Value(1), Value("x")}));
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(StorageTest, ReaderThrowsOnUnderflow) {
  std::string buf;
  wire::PutU32(&buf, 12345);
  wire::Reader r(buf);
  EXPECT_THROW(r.GetU64(), CorruptionError);
}

TEST_F(StorageTest, AppendThenReopenReplaysEveryRecord) {
  {
    Wal wal(WalPath(), WalOptions{});
    EXPECT_EQ(wal.Append(Effect(1)), 1u);
    EXPECT_EQ(wal.Append(Effect(2)), 2u);
    EXPECT_EQ(wal.Append(Effect(3)), 3u);
    WalStats stats = wal.stats();
    EXPECT_EQ(stats.durable_lsn, 3u);
    EXPECT_EQ(stats.records_appended, 3);
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[2].lsn, 3u);
  ASSERT_EQ(records[1].changes.size(), 1u);
  EXPECT_EQ(records[1].changes[0].relation, "R");
  ASSERT_EQ(records[1].changes[0].inserts.size(), 1u);
  EXPECT_EQ(records[1].changes[0].inserts[0], T({2, 20}));
  EXPECT_TRUE(records[1].changes[0].deletes.empty());
}

TEST_F(StorageTest, RecordsCarryDeletesAndMultipleRelations) {
  {
    Wal wal(WalPath(), WalOptions{});
    TransactionEffect effect;
    RelationEffect& r = effect.Mutable("R", Schema::OfInts({"A", "B"}));
    r.inserts.Insert(T({1, 2}));
    r.deletes.Insert(T({3, 4}));
    RelationEffect& s = effect.Mutable("S", Schema::OfInts({"C"}));
    s.deletes.Insert(T({9}));
    wal.Append(effect);
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].changes.size(), 2u);  // sorted: R before S
  EXPECT_EQ(records[0].changes[0].relation, "R");
  EXPECT_EQ(records[0].changes[0].deletes[0], T({3, 4}));
  EXPECT_EQ(records[0].changes[1].relation, "S");
  EXPECT_EQ(records[0].changes[1].deletes[0], T({9}));
}

TEST_F(StorageTest, TornTailIsTruncatedOnReopen) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
  }
  uintmax_t good_size = std::filesystem::file_size(WalPath());
  {
    // Simulate a crash mid-append: half a record's worth of garbage.
    std::ofstream out(WalPath(), std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00garbage", 11);
  }
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), WalOptions{},
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.truncated_bytes, 11);
  EXPECT_EQ(stats.durable_lsn, 2u);
  EXPECT_EQ(std::filesystem::file_size(WalPath()), good_size);
}

TEST_F(StorageTest, CorruptedTailRecordIsDropped) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
  }
  {
    // Flip a byte in the *last* record's payload: CRC fails, and because
    // it is the tail it is treated as a torn write, not corruption.
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
}

TEST_F(StorageTest, ReaderRejectsImpossibleCounts) {
  // A length prefix larger than the bytes that follow must fail as
  // corruption before any allocation is sized from it.
  std::string buf;
  wire::PutU32(&buf, 0xFFFFFFFFu);  // count: ~4 billion elements
  wire::PutString(&buf, "x");
  {
    wire::Reader r(buf);
    EXPECT_THROW(r.GetCount(), CorruptionError);
  }
  {
    wire::Reader r(buf);  // same bytes read as a tuple arity
    EXPECT_THROW(r.GetTuple(), CorruptionError);
  }
}

TEST_F(StorageTest, BadHeaderMagicThrows) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.put('X');  // clobber the magic
  }
  EXPECT_THROW(Reopen(), CorruptionError);
}

TEST_F(StorageTest, PerCommitFsyncWhenBatchSizeIsOne) {
  WalOptions options;
  options.max_batch = 1;
  Wal wal(WalPath(), options);
  wal.Append(Effect(1));
  wal.Append(Effect(2));
  wal.Append(Effect(3));
  WalStats stats = wal.stats();
  EXPECT_EQ(stats.records_appended, 3);
  EXPECT_EQ(stats.fsyncs, 3);
}

TEST_F(StorageTest, ConcurrentAppendsAllBecomeDurableInOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    WalOptions options;
    options.group_commit_window = std::chrono::microseconds(200);
    Wal wal(WalPath(), options);
    std::vector<std::thread> threads;
    std::atomic<int> next{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          wal.Append(Effect(next.fetch_add(1)));
        }
      });
    }
    for (auto& t : threads) t.join();
    WalStats stats = wal.stats();
    EXPECT_EQ(stats.records_appended, kThreads * kPerThread);
    EXPECT_EQ(stats.durable_lsn, uint64_t{kThreads * kPerThread});
    EXPECT_LE(stats.fsyncs, stats.records_appended);
    EXPECT_EQ(stats.batch_commits.total_samples(), stats.fsyncs);
    EXPECT_GE(stats.batch_commits.max_sample(), 1);
  }
  // Replay yields a gapless LSN sequence (the scan enforces it).
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
}

TEST_F(StorageTest, RotateEmptiesTheLogAndRebases) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
    wal.Rotate(2);
    EXPECT_EQ(wal.stats().base_lsn, 2u);
    wal.Append(Effect(3));
    EXPECT_EQ(wal.stats().durable_lsn, 3u);
  }
  // The atomic swap leaves no scratch file behind.
  EXPECT_FALSE(std::filesystem::exists(WalPath() + ".tmp"));
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 3u);
}

TEST_F(StorageTest, TornHeaderIsRecoverableWhenOptedIn) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    // Simulate a crash mid header (re)write: a prefix of the 16-byte
    // header, which cannot hold any record.
    std::ofstream out(WalPath(), std::ios::binary | std::ios::trunc);
    out.write("MVW", 3);
  }
  // Without a checkpoint vouching for the state, this is corruption.
  EXPECT_THROW(Reopen(), CorruptionError);

  WalOptions options;
  options.tolerate_torn_header = true;
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), options,
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
    // The caller (Storage::Attach) rebases above the checkpoint; here
    // just prove the log came back healthy and empty.
    wal.Rotate(5);
    EXPECT_EQ(wal.Append(Effect(6)), 6u);
  }
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.truncated_bytes, 3);
  std::vector<WalRecord> replayed = Reopen();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].lsn, 6u);
}

TEST_F(StorageTest, TornHeaderToleranceStillRejectsLogsWithRecords) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.put('X');  // clobber the magic; the record bytes remain
  }
  WalOptions options;
  options.tolerate_torn_header = true;
  EXPECT_THROW(Reopen(options), CorruptionError);
}

class TornWritePolicy : public FailurePolicy {
 public:
  explicit TornWritePolicy(int fail_at) : fail_at_(fail_at) {}
  size_t AdmitWrite(size_t size) override {
    if (--fail_at_ == 0) return size / 2;
    return size;
  }

 private:
  int fail_at_;
};

TEST_F(StorageTest, InjectedTornWriteFailsTheLogStickily) {
  TornWritePolicy policy(/*fail_at=*/2);
  WalOptions options;
  options.failure_policy = &policy;
  {
    Wal wal(WalPath(), options);
    wal.Append(Effect(1));
    EXPECT_THROW(wal.Append(Effect(2)), IoError);
    EXPECT_TRUE(wal.failed());
    // Sticky: the log refuses further appends after a failure.
    EXPECT_THROW(wal.Append(Effect(3)), IoError);
  }
  // Recovery drops the torn record and keeps the durable prefix.
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), WalOptions{},
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_GT(stats.truncated_bytes, 0);
  EXPECT_EQ(stats.durable_lsn, 1u);
}

TEST_F(StorageTest, ExternalFailIsSticky) {
  Wal wal(WalPath(), WalOptions{});
  wal.Append(Effect(1));
  wal.Fail("post-DDL checkpoint failed");
  EXPECT_TRUE(wal.failed());
  EXPECT_THROW(wal.Append(Effect(2)), IoError);
}

class SyncCrashPolicy : public FailurePolicy {
 public:
  void BeforeSync() override {
    throw IoError("injected power loss before fsync");
  }
};

TEST_F(StorageTest, CrashBeforeSyncLeavesRecoverableLog) {
  SyncCrashPolicy policy;
  WalOptions options;
  options.failure_policy = &policy;
  {
    Wal wal(WalPath(), options);
    EXPECT_THROW(wal.Append(Effect(1)), IoError);
  }
  // The bytes happen to be intact (the "may or may not be durable"
  // window); recovery either replays or truncates — both are valid, and
  // the log must come back healthy either way.
  std::vector<WalRecord> records = Reopen();
  EXPECT_LE(records.size(), 1u);
  Wal wal(WalPath(), WalOptions{});
  EXPECT_FALSE(wal.failed());
}

TEST_F(StorageTest, CheckpointRoundTripsTablesViewsAndAssertions) {
  Database db;
  MakeRelation(&db, "R", {"A", "B"}, {{1, 2}, {3, 4}});
  MakeRelation(&db, "S", {"B2", "C"}, {{2, 20}, {4, 40}});
  ViewManager views(&db);
  views.RegisterView(
      ViewDefinition("j", {BaseRef{"R", {}}, BaseRef{"S", {}}}, "B = B2",
                     {"A", "C"}),
      MaintenanceMode::kImmediate);
  views.RegisterView(ViewDefinition::Select("sel", "R", "A > 1"),
                     MaintenanceMode::kDeferred);
  // Make the deferred view stale so the checkpoint must carry a backlog.
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  views.Apply(txn);
  ASSERT_TRUE(views.Describe("sel").stale);
  IntegrityGuard guard(&db);
  guard.AddAssertion("no_big_a", {"R"}, "A > 100");

  WriteCheckpoint(CheckpointPath(), /*lsn=*/7, db, views, &guard);
  auto data = ReadCheckpoint(CheckpointPath());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->lsn, 7u);
  ASSERT_EQ(data->tables.size(), 2u);
  EXPECT_EQ(data->tables[0].first, "R");
  EXPECT_EQ(data->tables[0].second.size(), 3u);
  ASSERT_EQ(data->views.size(), 2u);
  EXPECT_EQ(data->views[0].name, "j");
  EXPECT_TRUE(data->views[0].materialized.SameContents(views.View("j")));
  EXPECT_EQ(data->views[1].mode, MaintenanceMode::kDeferred);
  ASSERT_EQ(data->views[1].pending.size(), 1u);
  ASSERT_EQ(data->views[1].pending[0].inserts.size(), 1u);
  EXPECT_EQ(data->views[1].pending[0].inserts[0], T({5, 2}));
  ASSERT_EQ(data->assertions.size(), 1u);
  EXPECT_EQ(data->assertions[0].name(), "no_big_a");
  // The condition survived structurally.
  EXPECT_EQ(data->assertions[0].condition().ToString(),
            guard.Definition("no_big_a").condition().ToString());
}

TEST_F(StorageTest, MissingCheckpointIsNotAnError) {
  EXPECT_FALSE(ReadCheckpoint(CheckpointPath()).has_value());
}

TEST_F(StorageTest, CorruptCheckpointThrows) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}});
  ViewManager views(&db);
  WriteCheckpoint(CheckpointPath(), 1, db, views, nullptr);
  {
    std::fstream f(CheckpointPath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  EXPECT_THROW(ReadCheckpoint(CheckpointPath()), CorruptionError);
}

// A well-framed image (valid CRC) whose view claims 1<<20 partitions must
// be rejected by the decoder, not handed to a maintainer: the SQL parser
// caps PARTITIONS at kMaxPartitions, and the decoder shares that bound.
TEST_F(StorageTest, CheckpointRejectsPartitionCountAboveTheSqlCap) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}});
  ViewManager views(&db);
  MaintenanceOptions options;
  options.partition_count = 4093;  // a valid, recognizable count
  views.RegisterView(ViewDefinition::Select("pview", "R", "A > 0"),
                     MaintenanceMode::kImmediate, options);
  WriteCheckpoint(CheckpointPath(), 1, db, views, nullptr);
  ASSERT_EQ(ReadCheckpoint(CheckpointPath())->views.at(0)
                .options.partition_count,
            4093u);

  std::string file;
  {
    std::ifstream in(CheckpointPath(), std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Frame: 8-byte magic, CRC32 of the body, u64 body length, body.  The
  // view meta is the name, four one-byte fields, then the u32 count.
  constexpr size_t kPrefix = 8 + 4 + 8;
  std::string body = file.substr(kPrefix);
  const size_t name = body.find("pview");
  ASSERT_NE(name, std::string::npos);
  const size_t at = name + 5 + 4;
  std::string expected, patched;
  wire::PutU32(&expected, 4093);
  wire::PutU32(&patched, uint32_t{1} << 20);
  ASSERT_EQ(body.substr(at, 4), expected);
  body.replace(at, 4, patched);
  std::string crc;
  wire::PutU32(&crc, Crc32(body.data(), body.size()));
  file = file.substr(0, 8) + crc + file.substr(12, 8) + body;
  {
    std::ofstream out(CheckpointPath(), std::ios::binary | std::ios::trunc);
    out << file;
  }
  EXPECT_THROW(ReadCheckpoint(CheckpointPath()), CorruptionError);
}

TEST_F(StorageTest, CheckpointOverwriteIsAtomic) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}});
  ViewManager views(&db);
  WriteCheckpoint(CheckpointPath(), 1, db, views, nullptr);
  db.Get("R").Insert(T({2}));
  WriteCheckpoint(CheckpointPath(), 2, db, views, nullptr);
  auto data = ReadCheckpoint(CheckpointPath());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->lsn, 2u);
  EXPECT_EQ(data->tables[0].second.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath() + ".tmp"));
}

TEST_F(StorageTest, CheckpointAndDdlLeaveOnlyTheImageAndTheLog) {
  const std::set<std::string> expected = {"checkpoint.mv", "wal.mv"};
  auto store = Storage::Open(dir_);
  sql::Engine engine(store.get());
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE MATERIALIZED VIEW v PARTITIONS 4 AS "
      "  SELECT a, b FROM r WHERE a > 0;");
  EXPECT_EQ(Listing(), expected) << "after DDL";

  for (int i = 1; i <= 20; ++i) {
    engine.Execute("INSERT INTO r VALUES (" + std::to_string(i) + ", 0)");
  }
  const StorageMetrics& m = engine.views().metrics().storage();
  const int64_t bytes_before = m.checkpoint_bytes;
  engine.Execute("CHECKPOINT");
  EXPECT_EQ(Listing(), expected) << "after CHECKPOINT";
  // One file holds the whole image, so the bytes counted for this
  // checkpoint are exactly that file.
  EXPECT_EQ(m.checkpoint_bytes - bytes_before,
            static_cast<int64_t>(std::filesystem::file_size(CheckpointPath())));

  engine.Execute("DROP VIEW v");
  EXPECT_EQ(Listing(), expected) << "after DROP VIEW";
}

TEST_F(StorageTest, AttachRefusesTheRetiredSegmentFormat) {
  {
    auto store = Storage::Open(dir_);
    sql::Engine engine(store.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64);"
        "INSERT INTO r VALUES (1);");
  }
  // A directory last written by the partition-segment checkpointer: its
  // manifest may be newer than checkpoint.mv, with the log already
  // rotated past it, so recovering from checkpoint.mv alone would drop
  // acknowledged commits.  Attach must refuse, naming the file.
  for (const char* planted : {"manifest.mv", "seg_3_0.mv"}) {
    SCOPED_TRACE(planted);
    const std::string path = dir_ + "/" + planted;
    std::ofstream(path) << "stale";
    auto store = Storage::Open(dir_);
    try {
      sql::Engine engine(store.get());
      ADD_FAILURE() << "attach accepted a directory holding " << planted;
    } catch (const CorruptionError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    std::filesystem::remove(path);
  }

  // Without the stale files the directory recovers as before.
  auto store = Storage::Open(dir_);
  sql::Engine engine(store.get());
  EXPECT_EQ(engine.Execute("SELECT * FROM r").ToString(), "a\n-\n1\n(1 row)\n");
}

}  // namespace
}  // namespace mview::storage
