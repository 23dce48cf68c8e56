// Partition-count property tests.  `PARTITIONS n` only sets how many
// row-hash slices a partition-at-a-time scrub walks; maintenance is one
// serial evaluation per round whatever the count.  So for every SPJ shape
// the paper covers, views declared with 1, 4 and 7 partitions must match
// their unpartitioned twin — in contents *and* in work counters — and
// from-scratch re-evaluation, under both delta strategies, with the
// cross-transaction cache on and off.  The slice test pins the scrub
// basis, the SQL tests the surface, and the checkpoint test the durable
// mirror: an engine whose partitioned views recover from a checkpoint
// plus a replayed WAL tail holds exactly what an undisturbed in-memory
// engine holds, before and after further commits.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/error.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

using sql::Engine;

struct Scenario {
  const char* name;
  const char* condition;  // over r/s/t attribute names (arity 2 each)
  std::vector<std::string> projection;
  size_t num_relations;  // 1..3 (r, s, t)
  bool reuse_cache;
};

class PartitionPropertyTest : public ::testing::TestWithParam<Scenario> {};

// The work counters that must not depend on the partition count.
void ExpectSameWork(const MaintenanceStats& actual,
                    const MaintenanceStats& twin) {
  EXPECT_EQ(actual.transactions, twin.transactions);
  EXPECT_EQ(actual.updates_seen, twin.updates_seen);
  EXPECT_EQ(actual.updates_filtered, twin.updates_filtered);
  EXPECT_EQ(actual.rows_enumerated, twin.rows_enumerated);
  EXPECT_EQ(actual.rows_evaluated, twin.rows_evaluated);
  EXPECT_EQ(actual.delta_inserts, twin.delta_inserts);
  EXPECT_EQ(actual.delta_deletes, twin.delta_deletes);
  EXPECT_EQ(actual.cache_hits, twin.cache_hits);
  EXPECT_EQ(actual.cache_misses, twin.cache_misses);
  EXPECT_EQ(actual.plan.rows_scanned, twin.plan.rows_scanned);
  EXPECT_EQ(actual.plan.probes, twin.plan.probes);
}

// One ViewManager holds, per delta strategy, an unpartitioned twin (the
// default options) plus one view per partition count, so every view sees
// the identical commit stream.  After every transaction each must equal
// the reference oracle (the definition evaluated naively, sharing no
// planner code), and each partitioned view must have done exactly its
// twin's work.
TEST_P(PartitionPropertyTest, PartitionedEqualsUnpartitionedEqualsOracle) {
  const Scenario& sc = GetParam();
  Rng seeds(0x9a8713c4u);
  for (int round = 0; round < 3; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    std::vector<RelationSpec> specs;
    const char* names[] = {"r", "s", "t"};
    for (size_t i = 0; i < sc.num_relations; ++i) {
      specs.push_back({names[i], 2, 12, 40});
      gen.Populate(&db, specs.back());
    }
    std::vector<BaseRef> bases;
    for (const auto& spec : specs) bases.push_back(BaseRef{spec.name, {}});

    ViewManager vm(&db);
    // (partitioned view, its unpartitioned twin) pairs.
    std::vector<std::pair<std::string, std::string>> views;
    for (DeltaStrategy strategy :
         {DeltaStrategy::kTruthTable, DeltaStrategy::kTelescoped}) {
      const std::string suffix =
          strategy == DeltaStrategy::kTelescoped ? "_tele" : "_table";
      MaintenanceOptions options;
      options.strategy = strategy;
      options.reuse_subexpressions = sc.reuse_cache;
      const std::string twin = "twin" + suffix;
      vm.RegisterView(
          ViewDefinition(twin, bases, sc.condition, sc.projection),
          MaintenanceMode::kImmediate, options);
      for (uint32_t partitions : {1u, 4u, 7u}) {
        options.partition_count = partitions;
        std::string name = "v_p" + std::to_string(partitions) + suffix;
        vm.RegisterView(
            ViewDefinition(name, bases, sc.condition, sc.projection),
            MaintenanceMode::kImmediate, options);
        EXPECT_EQ(vm.Maintainer(name).partition_count(), partitions);
        views.emplace_back(std::move(name), twin);
      }
    }
    const ViewDefinition def("oracle", bases, sc.condition, sc.projection);

    for (int step = 0; step < 8; ++step) {
      Transaction txn;
      for (const auto& spec : specs) {
        if (gen.rng().Bernoulli(0.7)) {
          gen.AddUpdates(&txn, spec,
                         static_cast<size_t>(gen.rng().Uniform(0, 4)),
                         static_cast<size_t>(gen.rng().Uniform(0, 4)));
        }
      }
      vm.Apply(txn);
      CountedRelation expected = testing::ReferenceEvaluate(def, db);
      for (const auto& [name, twin] : views) {
        SCOPED_TRACE(std::string(sc.name) + " " + name + " round " +
                     std::to_string(round) + " step " + std::to_string(step));
        ASSERT_TRUE(vm.View(name).SameContents(expected))
            << "view:\n"
            << vm.View(name).ToString() << "expected:\n"
            << expected.ToString();
        ASSERT_TRUE(vm.View(twin).SameContents(expected));
        ExpectSameWork(vm.Describe(name).stats, vm.Describe(twin).stats);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, PartitionPropertyTest,
    ::testing::Values(
        Scenario{"select", "r_a0 < 6", {}, 1, true},
        Scenario{"project", "true", {"r_a1"}, 1, true},
        Scenario{"select_project", "r_a0 >= 4", {"r_a1"}, 1, true},
        Scenario{"join", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2, true},
        Scenario{"join_no_cache", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2, false},
        Scenario{"spj", "r_a1 = s_a0 && r_a0 < 8", {"s_a1"}, 2, true},
        Scenario{"spj_inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, 2,
                 true},
        Scenario{"spj_disjunctive",
                 "(r_a1 = s_a0 && r_a0 < 4) || (r_a1 = s_a0 && s_a1 > 8)",
                 {"r_a0", "s_a1"}, 2, true},
        Scenario{"three_way_chain", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3, true},
        Scenario{"three_way_no_cache", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3, false}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// The scrub basis: the P slices of FullEvaluateSlice must partition the
// full re-evaluation exactly — every tuple in exactly one slice, counts
// preserved (linearity of the counted algebra in each base occurrence).
TEST(PartitionSliceTest, SlicesPartitionFullEvaluate) {
  Rng seeds(0x00571ce5u);
  for (int round = 0; round < 5; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    RelationSpec r{"r", 2, 12, 40}, s{"s", 2, 12, 40};
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    DifferentialMaintainer m(
        ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                       "r_a1 = s_a0", {"r_a0", "s_a1"}),
        &db);
    CountedRelation full = m.FullEvaluate();
    for (uint32_t total : {1u, 4u, 7u}) {
      CountedRelation merged(full.schema());
      for (uint32_t slice = 0; slice < total; ++slice) {
        CountedRelation part = m.FullEvaluateSlice(slice, total);
        part.Scan([&](const Tuple& t, int64_t c) { merged.Add(t, c); });
      }
      ASSERT_TRUE(merged.SameContents(full))
          << "round " << round << " total " << total;
    }
  }
}

// ---------------------------------------------------------------------------
// SQL surface: PARTITIONS n, SHOW PARTITIONS, SCRUB ... PARTITION.

TEST(PartitionSqlTest, CreateWithPartitionsAndShow) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "INSERT INTO r VALUES (1, 10), (2, 20);"
      "INSERT INTO s VALUES (10, 7), (20, 8);");
  std::string created = engine
                            .Execute("CREATE MATERIALIZED VIEW v PARTITIONS 4 "
                                     "AS SELECT a, c FROM r, s WHERE b = b2")
                            .ToString();
  EXPECT_NE(created.find("4 partitions"), std::string::npos) << created;
  Engine::Result shown = engine.Execute("SHOW PARTITIONS");
  ASSERT_EQ(shown.kind, Engine::Result::Kind::kRows);
  ASSERT_EQ(shown.schema.size(), 2u) << shown.ToString();
  EXPECT_EQ(shown.schema.attribute(0).name, "view");
  EXPECT_EQ(shown.schema.attribute(1).name, "partitions");
  ASSERT_EQ(shown.rows.size(), 1u) << shown.ToString();
  EXPECT_EQ(shown.rows[0].first.at(0).AsString(), "v");
  EXPECT_EQ(shown.rows[0].first.at(1).AsInt64(), 4);
  EXPECT_EQ(engine.Execute("SELECT * FROM v").ToString(),
            engine.Execute("SELECT a, c FROM r, s WHERE b = b2").ToString());
  EXPECT_THROW(engine.Execute("CREATE MATERIALIZED VIEW w PARTITIONS 0 "
                              "AS SELECT a FROM r"),
               Error);
}

TEST(PartitionSqlTest, ScrubPartitionWalksSlicesAndRestartsOnMutation) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30);"
      "CREATE MATERIALIZED VIEW v PARTITIONS 4 AS "
      "  SELECT a, b FROM r WHERE a >= 0;");
  // Four calls walk the four slices; only the last carries a verdict.
  for (int slice = 1; slice <= 3; ++slice) {
    std::string out = engine.Execute("SCRUB VIEW v PARTITION").ToString();
    EXPECT_NE(out.find("partial " + std::to_string(slice) + "/4"),
              std::string::npos)
        << out;
  }
  std::string done = engine.Execute("SCRUB VIEW v PARTITION").ToString();
  EXPECT_NE(done.find("clean"), std::string::npos) << done;

  // A commit between slices invalidates the cursor: the walk restarts
  // from slice 1 instead of mixing truths from different epochs.
  engine.Execute("SCRUB VIEW v PARTITION");
  engine.Execute("SCRUB VIEW v PARTITION");
  engine.Execute("INSERT INTO r VALUES (4, 40)");
  std::string restarted = engine.Execute("SCRUB VIEW v PARTITION").ToString();
  EXPECT_NE(restarted.find("partial 1/4"), std::string::npos) << restarted;

  // SCRUB ALL has no partition form — the cursor is per named view.
  EXPECT_THROW(engine.Execute("SCRUB ALL PARTITION"), Error);
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery.

class PartitionCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("partition_ckpt_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  // No checkpoint on close, so recovery replays every commit after the
  // last explicit CHECKPOINT through the maintenance pipeline.
  std::unique_ptr<Storage> Open() const {
    Storage::Options options;
    options.checkpoint_on_close = false;
    return Storage::Open(dir_.string(), options);
  }

  // Every base table and view materialization, via sorted SELECT.
  static void ExpectSameState(Engine& actual, Engine& reference,
                              const char* label) {
    for (const char* rel : {"r", "s", "joined", "filtered"}) {
      EXPECT_EQ(actual.Execute(std::string("SELECT * FROM ") + rel).ToString(),
                reference.Execute(std::string("SELECT * FROM ") + rel)
                    .ToString())
          << label << ": divergence in " << rel;
    }
  }

  // A two-base join and a one-base selection, with different partition
  // counts that the checkpoint must carry.
  static const char* Preamble() {
    return "CREATE TABLE r (a INT64, b INT64);"
           "CREATE TABLE s (b2 INT64, c INT64);"
           "CREATE MATERIALIZED VIEW joined PARTITIONS 4 AS "
           "  SELECT a, c FROM r, s WHERE b = b2;"
           "CREATE MATERIALIZED VIEW filtered PARTITIONS 3 AS "
           "  SELECT a, b FROM r WHERE a < 600;";
  }

  // A deterministic workload chunk; `phase` offsets the key space so
  // successive chunks insert fresh tuples and delete earlier ones.
  static void RunChunk(Engine& engine, int phase) {
    for (int i = 0; i < 40; ++i) {
      const int a = 100 * phase + i;
      engine.Execute("INSERT INTO r VALUES (" + std::to_string(a) + ", " +
                     std::to_string(a % 17) + ")");
      engine.Execute("INSERT INTO s VALUES (" + std::to_string(a % 17) +
                     ", " + std::to_string(a) + ")");
    }
    if (phase > 0) {
      for (int i = 0; i < 10; ++i) {
        const int a = 100 * (phase - 1) + i;
        engine.Execute("DELETE FROM r WHERE a = " + std::to_string(a));
      }
    }
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(PartitionCheckpointTest, DurableEngineRecoversPartitionedViews) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  {
    auto storage = Open();
    Engine durable(storage.get());
    durable.ExecuteScript(Preamble());
    for (int phase = 0; phase < 4; ++phase) {
      RunChunk(reference, phase);
      RunChunk(durable, phase);
      // Checkpoint mid-stream so phases 2 and 3 replay from the WAL on
      // top of the image at recovery.
      if (phase == 1) durable.Execute("CHECKPOINT");
    }
  }
  auto storage = Open();
  Engine durable(storage.get());
  EXPECT_GT(durable.mutable_views().metrics().storage().replayed_records, 0);
  EXPECT_EQ(durable.views().Maintainer("joined").partition_count(), 4u);
  EXPECT_EQ(durable.views().Maintainer("filtered").partition_count(), 3u);
  ExpectSameState(durable, reference, "recovery");
  // The recovered engine keeps maintaining correctly.
  RunChunk(reference, 4);
  RunChunk(durable, 4);
  ExpectSameState(durable, reference, "post-recovery");
}

}  // namespace
}  // namespace mview
