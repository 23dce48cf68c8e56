// Lifetime of compiled view plans.  A `DifferentialMaintainer` compiles its
// SPJ plan once, against the base schemes it sees at construction, and
// executes it for every later commit.  These tests drive the catalog
// changes that could leave a plan describing schemes that no longer exist —
// a view re-created under the same name with another shape, a base table
// re-created with its columns reordered, a view restored from a checkpoint,
// a view rebuilt by REPAIR — and check every view against the reference
// oracle (`ReferenceEvaluate`, no planner code) after each DML statement.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "ivm_test_util.h"
#include "sql/engine.h"
#include "storage/storage.h"

namespace mview {
namespace {

// Expects view `name` (and a cold FullEvaluate of its maintainer) to equal
// its definition evaluated naively over the engine's current bases.
void ExpectMatchesReference(const sql::Engine& engine, const std::string& name,
                            const std::string& where) {
  const DifferentialMaintainer& m = engine.views().Maintainer(name);
  CountedRelation expected =
      testing::ReferenceEvaluate(m.definition(), engine.database());
  EXPECT_TRUE(engine.views().View(name).SameContents(expected))
      << name << " " << where << ":\n"
      << engine.views().View(name).ToString() << "expected:\n"
      << expected.ToString();
  EXPECT_TRUE(m.FullEvaluate().SameContents(expected)) << name << " " << where;
}

TEST(PlanLifetimeTest, RecreatedViewGetsItsOwnPlan) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT a, c FROM r, s WHERE b = b2;");
  engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 10)");
  engine.Execute("INSERT INTO s VALUES (10, 100), (20, 200)");
  ExpectMatchesReference(engine, "v", "before re-creation");

  // Same name, another projection and condition (an inequality step filter
  // and a local filter the old plan did not have).
  engine.Execute("DROP VIEW v");
  engine.Execute(
      "CREATE MATERIALIZED VIEW v AS "
      "SELECT c FROM r, s WHERE b = b2 AND a < 3 AND c > a");
  ExpectMatchesReference(engine, "v", "after re-creation");
  engine.Execute("INSERT INTO r VALUES (0, 20), (7, 20)");
  ExpectMatchesReference(engine, "v", "after insert");
  engine.Execute("DELETE FROM s WHERE b2 = 10");
  ExpectMatchesReference(engine, "v", "after delete");
  engine.Execute("UPDATE r SET b = 10 WHERE a = 2");
  engine.Execute("INSERT INTO s VALUES (10, 5)");
  ExpectMatchesReference(engine, "v", "after update");

  // And back to a single-table shape under the same name.
  engine.Execute("DROP VIEW v");
  engine.Execute("CREATE MATERIALIZED VIEW v AS SELECT b FROM r WHERE a >= 1");
  engine.Execute("INSERT INTO r VALUES (9, 90)");
  engine.Execute("DELETE FROM r WHERE a = 1");
  ExpectMatchesReference(engine, "v", "after second re-creation");
}

TEST(PlanLifetimeTest, RecreatedTableWithReorderedColumns) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, name STRING, b INT64);"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "CREATE MATERIALIZED VIEW v AS "
      "  SELECT name, c FROM r, s WHERE b = b2 AND a > 0;");
  engine.Execute("INSERT INTO r VALUES (1, 'x', 10), (2, 'y', 20)");
  engine.Execute("INSERT INTO s VALUES (10, 100), (20, 200)");
  ExpectMatchesReference(engine, "v", "before re-creation");

  // The table cannot be dropped while the view reads it; drop both and
  // re-create the table with its columns (and their types) in another
  // order.  The re-created view's plan must resolve the new positions.
  engine.Execute("DROP VIEW v");
  engine.Execute("DROP TABLE r");
  engine.Execute("CREATE TABLE r (b INT64, name STRING, a INT64)");
  engine.Execute("INSERT INTO r VALUES (10, 'p', 1), (20, 'q', -1)");
  engine.Execute(
      "CREATE MATERIALIZED VIEW v AS "
      "SELECT name, c FROM r, s WHERE b = b2 AND a > 0");
  ExpectMatchesReference(engine, "v", "after re-creation");
  engine.Execute("INSERT INTO r VALUES (20, 'z', 5), (10, 'w', 0)");
  ExpectMatchesReference(engine, "v", "after insert");
  engine.Execute("INSERT INTO s VALUES (10, 101)");
  engine.Execute("DELETE FROM r WHERE name = 'p'");
  ExpectMatchesReference(engine, "v", "after delete");
  engine.Execute("UPDATE r SET a = 3 WHERE name = 'q'");
  ExpectMatchesReference(engine, "v", "after update");
}

// A checkpointed engine reopens through `ViewManager::RestoreView`, which
// builds fresh maintainers (and plans) over the recovered catalog; REPAIR
// then rebuilds a view's materialization through the same plan.
TEST(PlanLifetimeTest, RestoredAndRepairedViewsKeepMaintaining) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "plan_lifetime_restore";
  std::filesystem::remove_all(dir);
  {
    auto storage = Storage::Open(dir.string());  // checkpoints on close
    sql::Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b2 INT64, c INT64);"
        "CREATE MATERIALIZED VIEW joined AS "
        "  SELECT a, c FROM r, s WHERE b = b2 AND c > 50;"
        "CREATE MATERIALIZED VIEW small DEFERRED AS "
        "  SELECT a FROM r WHERE a < 100;");
    engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20), (150, 30)");
    engine.Execute("INSERT INTO s VALUES (10, 100), (20, 40), (30, 300)");
    // Re-created before the checkpoint: the restored plan must be the
    // second shape.
    engine.Execute("DROP VIEW joined");
    engine.Execute(
        "CREATE MATERIALIZED VIEW joined AS "
        "SELECT c, a FROM r, s WHERE b = b2 AND a < 100");
  }

  auto storage = Storage::Open(dir.string());
  sql::Engine engine(storage.get());
  ExpectMatchesReference(engine, "joined", "after restore");
  engine.Execute("INSERT INTO r VALUES (3, 30), (4, 10)");
  engine.Execute("DELETE FROM s WHERE b2 = 20");
  ExpectMatchesReference(engine, "joined", "after DML on the restored view");
  engine.Execute("REFRESH VIEW small");
  ExpectMatchesReference(engine, "small", "after refresh");

  engine.Execute("REPAIR VIEW joined");
  ExpectMatchesReference(engine, "joined", "after repair");
  engine.Execute("INSERT INTO s VALUES (20, 7), (10, 11)");
  engine.Execute("UPDATE r SET b = 20 WHERE a = 1");
  ExpectMatchesReference(engine, "joined", "after DML on the repaired view");
  engine.Execute("REPAIR VIEW small");
  engine.Execute("INSERT INTO r VALUES (5, 50)");
  engine.Execute("REFRESH VIEW small");
  ExpectMatchesReference(engine, "small", "after repair and refresh");
}

}  // namespace
}  // namespace mview
