// Identity contract of the columnar batch pipeline, the only evaluator:
// for arbitrary workloads, views maintained through it and its one-shot
// `FullEvaluate` must both equal the reference oracle (`ReferenceEvaluate`,
// the definition evaluated tuple at a time by ra/eval.h, sharing no planner
// code), with the join cache on and off, through DML, DDL (view
// register/drop), REFRESH, and WAL-replay recovery.  Plus unit tests for
// `ColumnBatch` itself.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "ra/batch.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

// ---------------------------------------------------------------------------
// ColumnBatch unit tests.

TEST(ColumnBatchTest, AppendTruncateAndMaterialize) {
  util::Arena arena;
  Schema schema = Schema::OfInts({"a", "b"});
  ColumnBatch batch(schema, 8, &arena);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 8u);

  batch.AppendTuple(testing::T({1, 10}), 2);
  batch.AppendTuple(testing::T({2, 20}), -1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ints(0)[1], 2);
  EXPECT_EQ(batch.ints(1)[0], 10);
  EXPECT_EQ(batch.counts()[1], -1);
  EXPECT_EQ(batch.MakeTuple(0), testing::T({1, 10}));
  EXPECT_EQ(batch.MakeTuple(1, {1}), testing::T({20}));

  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(ColumnBatchTest, BorrowedStringsAreMaterializedOnDemand) {
  util::Arena arena;
  Schema schema({{"name", ValueType::kString}, {"n", ValueType::kInt64}});
  ColumnBatch batch(schema, 4, &arena);
  std::string owner = "waterloo";
  Tuple t(std::vector<Value>{Value(owner), Value(int64_t{7})});
  batch.AppendTuple(t, 1);
  // The batch borrows the string; materializing copies it.
  EXPECT_EQ(batch.strs(0)[0], &t.at(0).AsString());
  Tuple out = batch.MakeTuple(0);
  EXPECT_EQ(out.at(0).AsString(), "waterloo");
  EXPECT_NE(&out.at(0).AsString(), &t.at(0).AsString());
  EXPECT_EQ(batch.ValueAt(0, 1), Value(int64_t{7}));
}

TEST(ColumnBatchTest, KeepCompactsSelectedRows) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a"}), 16, &arena);
  for (int64_t i = 0; i < 10; ++i) batch.AppendTuple(testing::T({i}), i + 1);
  const uint32_t sel[] = {1, 4, 9};
  batch.Keep(sel, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.ints(0)[0], 1);
  EXPECT_EQ(batch.ints(0)[1], 4);
  EXPECT_EQ(batch.ints(0)[2], 9);
  EXPECT_EQ(batch.counts()[2], 10);
}

TEST(ColumnBatchTest, ProjectViewShufflesColumnsWithoutCopying) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a", "b", "c"}), 4, &arena);
  batch.AppendTuple(testing::T({1, 2, 3}), 5);
  ColumnBatch view = batch.ProjectView({2, 0}, &arena);
  ASSERT_EQ(view.num_columns(), 2u);
  ASSERT_EQ(view.size(), 1u);
  // Columns alias the source arrays — projection moves no row data.
  EXPECT_EQ(view.ints(0), batch.ints(2));
  EXPECT_EQ(view.ints(1), batch.ints(0));
  EXPECT_EQ(view.counts(), batch.counts());
  EXPECT_EQ(view.MakeTuple(0), testing::T({3, 1}));
}

TEST(ColumnBatchTest, CopyRowCopiesColumnRanges) {
  // CopyRow addresses the same column indices in source and destination —
  // both sides are combined-scheme batches; only the copied range need be
  // initialized in the source.
  util::Arena arena;
  Schema combined = Schema::OfInts({"x", "a", "b"});
  ColumnBatch src(combined, 4, &arena);
  src.AppendTuple(testing::T({7, 8}), 1, /*first_col=*/1);
  ColumnBatch dst(combined, 4, &arena);
  size_t row = dst.AppendRow(3);
  dst.ints(0)[row] = 42;
  dst.CopyRow(src, 0, row, /*first_col=*/1, /*n_cols=*/2);
  EXPECT_EQ(dst.MakeTuple(0), testing::T({42, 7, 8}));
}

TEST(CountedRelationSinkTest, BatchAndTupleEmissionAgree) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a"}), 8, &arena);
  batch.AppendTuple(testing::T({1}), 2);
  batch.AppendTuple(testing::T({2}), 1);
  batch.AppendTuple(testing::T({1}), 1);

  CountedRelation via_batch(Schema::OfInts({"a"}));
  CountedRelation via_tuple(Schema::OfInts({"a"}));
  CountedRelationSink batch_sink(&via_batch, 2);
  batch_sink.EmitBatch(batch);
  CountedRelationSink tuple_sink(&via_tuple, 2);
  for (size_t row = 0; row < batch.size(); ++row) {
    tuple_sink.Emit(batch.MakeTuple(row), batch.counts()[row]);
  }
  EXPECT_TRUE(via_batch.SameContents(via_tuple));
  EXPECT_EQ(via_batch.Count(testing::T({1})), 6);
}

// ---------------------------------------------------------------------------
// Property: maintained (batch) == reference (tuple at a time) == cold
// FullEvaluate (batch), delta by delta, with the join cache on and off, on
// the E9/E16 workload shapes.

struct Scenario {
  const char* name;
  const char* condition;  // over r/s/t attribute names (arity 2 each)
  std::vector<std::string> projection;
  size_t num_relations;  // 1..3 (r, s, t)
};

MaintenanceOptions Opts(bool cache) {
  MaintenanceOptions options;
  options.enable_join_cache = cache;
  return options;
}

class BatchIdentityTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(BatchIdentityTest, BatchEqualsTupleEqualsFullEvaluate) {
  const Scenario& sc = GetParam();
  Rng seeds(0x5eedb47cu);
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
    ViewDefinition def("v", bases, sc.condition, sc.projection);

    DifferentialMaintainer plain(def, &db, Opts(false));
    DifferentialMaintainer cached(def, &db, Opts(true));
    CountedRelation view_plain = plain.FullEvaluate();
    CountedRelation view_cached = cached.FullEvaluate();
    ASSERT_TRUE(
        view_plain.SameContents(testing::ReferenceEvaluate(def, db)))
        << sc.name << " initial evaluation diverged at round " << round;

    for (int step = 0; step < 10; ++step) {
      Transaction txn;
      for (const auto& spec : specs) {
        gen.AddUpdates(&txn, spec,
                       static_cast<size_t>(gen.rng().Uniform(0, 4)),
                       static_cast<size_t>(gen.rng().Uniform(0, 4)));
      }
      TransactionEffect effect = txn.Normalize(db);
      ViewDelta delta_plain = plain.ComputeDelta(effect);
      ViewDelta delta_cached = cached.ComputeDelta(effect);
      ASSERT_TRUE(delta_cached.inserts.SameContents(delta_plain.inserts))
          << sc.name << " cached inserts diverged at round " << round
          << " step " << step;
      ASSERT_TRUE(delta_cached.deletes.SameContents(delta_plain.deletes))
          << sc.name << " cached deletes diverged at round " << round
          << " step " << step;
      effect.ApplyTo(&db);
      delta_plain.ApplyTo(&view_plain);
      delta_cached.ApplyTo(&view_cached);

      CountedRelation expected = testing::ReferenceEvaluate(def, db);
      ASSERT_TRUE(view_plain.SameContents(expected))
          << sc.name << " diverged at round " << round << " step " << step
          << "\nmaintained:\n"
          << view_plain.ToString() << "expected:\n"
          << expected.ToString();
      ASSERT_TRUE(view_cached.SameContents(expected))
          << sc.name << " cached view diverged at round " << round
          << " step " << step;
      if (step % 3 == 2) {
        // Cold one-shot evaluation on the updated base state, whole (as
        // CREATE VIEW, REPAIR, full scrub and ad-hoc SELECT run it) and
        // sliced (as the incremental scrubber runs it).
        ASSERT_TRUE(plain.FullEvaluate().SameContents(expected))
            << sc.name << " cold evaluation diverged at round " << round
            << " step " << step;
        CountedRelation merged(expected.schema());
        for (uint32_t slice = 0; slice < 3; ++slice) {
          plain.FullEvaluateSlice(slice, 3).Scan(
              [&](const Tuple& t, int64_t c) { merged.Add(t, c); });
        }
        ASSERT_TRUE(merged.SameContents(expected))
            << sc.name << " sliced evaluation diverged at round " << round
            << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, BatchIdentityTest,
    ::testing::Values(
        Scenario{"select", "r_a0 < 6", {}, 1},
        Scenario{"project", "true", {"r_a1"}, 1},
        Scenario{"select_project", "r_a0 >= 4", {"r_a1"}, 1},
        Scenario{"equijoin", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2},
        Scenario{"spj", "r_a1 = s_a0 && r_a0 < 8", {"s_a1"}, 2},
        Scenario{"inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, 2},
        Scenario{"offset_join", "r_a1 = s_a0 + 2", {"r_a0"}, 2},
        Scenario{"disjunctive",
                 "(r_a1 = s_a0 && r_a0 < 4) || (r_a1 = s_a0 && s_a1 > 8)",
                 {"r_a0", "s_a1"}, 2},
        Scenario{"three_way_chain", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// End-to-end through the view manager: twin managers over identically
// seeded databases — one maintaining with the join cache, one without —
// both equal the reference through DML, mid-stream DDL (drop +
// re-register, which evaluates cold), and deferred REFRESH.

TEST(BatchManagerIdentityTest, DmlDdlRefreshStayIdentical) {
  Rng seeds(0xba7c4e57u);
  for (int round = 0; round < 3; ++round) {
    const uint64_t seed = seeds.Next();
    Database db_cached, db_plain;
    WorkloadGenerator gen_cached(seed), gen_plain(seed);
    RelationSpec r{"r", 2, 12, 40}, s{"s", 2, 12, 40};
    for (const auto& spec : {r, s}) {
      gen_cached.Populate(&db_cached, spec);
      gen_plain.Populate(&db_plain, spec);
    }

    ViewDefinition join("vj", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                        "r_a1 = s_a0", {"r_a0", "s_a1"});
    ViewDefinition sel("vs", {BaseRef{"r", {}}}, "r_a0 < 8", {"r_a1"});

    ViewManager vm_cached(&db_cached), vm_plain(&db_plain);
    vm_cached.RegisterView(join, MaintenanceMode::kImmediate, Opts(true));
    vm_plain.RegisterView(join, MaintenanceMode::kImmediate, Opts(false));
    vm_cached.RegisterView(sel, MaintenanceMode::kDeferred, Opts(true));
    vm_plain.RegisterView(sel, MaintenanceMode::kDeferred, Opts(false));

    // Both twins must equal the reference over their (identical) bases.
    auto expect_reference = [&](const ViewDefinition& def,
                                const std::string& where) {
      CountedRelation expected = testing::ReferenceEvaluate(def, db_cached);
      ASSERT_TRUE(vm_cached.View(def.name()).SameContents(expected))
          << def.name() << " (cache on) diverged " << where;
      ASSERT_TRUE(vm_plain.View(def.name()).SameContents(expected))
          << def.name() << " (cache off) diverged " << where;
    };

    for (int step = 0; step < 12; ++step) {
      const std::string where = "at round " + std::to_string(round) +
                                " step " + std::to_string(step);
      Transaction txn;
      for (const auto& spec : {r, s}) {
        gen_cached.AddUpdates(
            &txn, spec, static_cast<size_t>(gen_cached.rng().Uniform(0, 4)),
            static_cast<size_t>(gen_cached.rng().Uniform(0, 4)));
      }
      vm_cached.Apply(txn);
      vm_plain.Apply(txn);
      expect_reference(join, where);

      if (step == 5) {
        // DDL mid-stream: replace the join view with a different shape;
        // registration re-evaluates cold.
        join = ViewDefinition("vj", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                              "r_a1 = s_a0 && s_a1 > 3", {"r_a0"});
        vm_cached.DropView("vj");
        vm_plain.DropView("vj");
        vm_cached.RegisterView(join, MaintenanceMode::kImmediate, Opts(true));
        vm_plain.RegisterView(join, MaintenanceMode::kImmediate, Opts(false));
        expect_reference(join, "after re-registration " + where);
      }
      if (step % 4 == 3) {
        vm_cached.Refresh("vs");
        vm_plain.Refresh("vs");
        expect_reference(sel, "after refresh " + where);
      }
    }
    // REPAIR recomputes from the bases.
    vm_cached.Repair("vj");
    vm_plain.Repair("vj");
    expect_reference(join, "after repair at round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Recovery: a durable engine is killed without a close checkpoint, so
// reopening replays the WAL through the batch-pipeline ApplyEffect path.
// The recovered materializations must equal the reference over the
// recovered base tables, and so must a cold FullEvaluate.

TEST(BatchRecoveryIdentityTest, ReplayedViewsMatchReferenceEvaluation) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "batch_recovery_identity";
  std::filesystem::remove_all(dir);
  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // force WAL replay on reopen
    auto storage = Storage::Open(dir.string(), options);
    sql::Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b2 INT64, c INT64);"
        "CREATE MATERIALIZED VIEW joined AS "
        "  SELECT a, c FROM r, s WHERE b = b2;"
        "CREATE MATERIALIZED VIEW small_a DEFERRED AS "
        "  SELECT a, b FROM r WHERE a < 100;");
    engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20), (150, 30)");
    engine.Execute("INSERT INTO s VALUES (10, 100), (20, 200), (30, 300)");
    engine.Execute("UPDATE r SET b = 20 WHERE a = 1");
    engine.Execute("DELETE FROM s WHERE b2 = 30");
    engine.Execute("INSERT INTO r VALUES (3, 30), (4, 10)");
    engine.Execute("REFRESH VIEW small_a");
    engine.Execute("INSERT INTO s VALUES (10, 101)");
  }

  auto storage = Storage::Open(dir.string());
  sql::Engine recovered(storage.get());
  recovered.Execute("REFRESH VIEW small_a");

  const Database& db = recovered.database();
  for (const char* name : {"joined", "small_a"}) {
    const DifferentialMaintainer& m = recovered.views().Maintainer(name);
    CountedRelation expected = testing::ReferenceEvaluate(m.definition(), db);
    EXPECT_TRUE(recovered.views().View(name).SameContents(expected))
        << "recovered '" << name << "':\n"
        << recovered.views().View(name).ToString() << "expected:\n"
        << expected.ToString();
    EXPECT_TRUE(m.FullEvaluate().SameContents(expected)) << name;
  }
  // An ad-hoc SELECT of a view's definition reads what the view holds.
  EXPECT_EQ(recovered.Execute("SELECT a, c FROM r, s WHERE b = b2").ToString(),
            recovered.Execute("SELECT * FROM joined").ToString());
}

}  // namespace
}  // namespace mview
