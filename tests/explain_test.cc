#include "obs/explain.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ivm/irrelevance.h"
#include "sql/engine.h"
#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

// Example 4.1: v = π_{A,D}(σ_{(A<10) ∧ (C>5) ∧ (B=C)}(r × s)).
class ExplainExample41Test : public ::testing::Test {
 protected:
  ExplainExample41Test() {
    MakeRelation(&db_, "r", {"A", "B"}, {{1, 2}, {5, 10}});
    MakeRelation(&db_, "s", {"C", "D"}, {{2, 10}, {10, 20}, {12, 15}});
    def_ = ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                          "A < 10 && C > 5 && B = C", {"A", "D"});
    filter_ = std::make_unique<IrrelevanceFilter>(def_, db_);
  }
  Database db_;
  ViewDefinition def_;
  std::unique_ptr<IrrelevanceFilter> filter_;
};

TEST_F(ExplainExample41Test, IrrelevantInsertIsExplained) {
  // The paper's provably irrelevant insert: (11,10) into r.
  obs::IrrelevanceExplanation ex = filter_->Explain(0, T({11, 10}));
  EXPECT_FALSE(ex.relevant);
  EXPECT_EQ(ex.condition, "A < 10 && C > 5 && B = C");
  EXPECT_EQ(ex.substituted_condition, "11 < 10 && C > 5 && 10 = C");
  ASSERT_EQ(ex.disjuncts.size(), 1u);
  const obs::DisjunctTrace& d = ex.disjuncts[0];
  EXPECT_FALSE(d.satisfiable);
  EXPECT_TRUE(d.ground_failed);  // 11 < 10 is false outright
  ASSERT_EQ(d.atoms.size(), 3u);
  // The Definition 4.2 split: A<10 references only substituted variables,
  // C>5 references none, B=C mixes both.
  EXPECT_EQ(d.atoms[0].cls, FormulaClass::kVariantEvaluable);
  EXPECT_TRUE(d.atoms[0].evaluated);
  EXPECT_FALSE(d.atoms[0].value);
  EXPECT_EQ(d.atoms[1].cls, FormulaClass::kInvariant);
  EXPECT_EQ(d.atoms[2].cls, FormulaClass::kVariantNonEvaluable);
  EXPECT_EQ(d.atoms[2].substituted, "10 = C");

  std::string text = ex.ToString();
  EXPECT_NE(text.find("IRRELEVANT"), std::string::npos);
  EXPECT_NE(text.find("11 < 10"), std::string::npos);
  EXPECT_NE(text.find("invariant"), std::string::npos);
  EXPECT_NE(text.find("variant-evaluable"), std::string::npos);
  EXPECT_NE(text.find("variant-non-evaluable"), std::string::npos);
}

TEST_F(ExplainExample41Test, RelevantInsertIsExplained) {
  obs::IrrelevanceExplanation ex = filter_->Explain(0, T({9, 10}));
  EXPECT_TRUE(ex.relevant);
  ASSERT_EQ(ex.disjuncts.size(), 1u);
  EXPECT_TRUE(ex.disjuncts[0].satisfiable);
  EXPECT_TRUE(ex.disjuncts[0].cycle.empty());
  EXPECT_NE(ex.ToString().find("RELEVANT"), std::string::npos);
}

TEST_F(ExplainExample41Test, ConstraintContradictionYieldsCycleWitness) {
  // (3,4) into r: substituted condition 3<10 && C>5 && 4=C.  Each ground
  // atom holds or is open, but C>5 and C=4 contradict — provable only via
  // the constraint graph, so the explanation must carry the cycle.
  obs::IrrelevanceExplanation ex = filter_->Explain(0, T({3, 4}));
  EXPECT_FALSE(ex.relevant);
  ASSERT_EQ(ex.disjuncts.size(), 1u);
  const obs::DisjunctTrace& d = ex.disjuncts[0];
  EXPECT_FALSE(d.satisfiable);
  EXPECT_FALSE(d.ground_failed);
  ASSERT_FALSE(d.cycle.empty());
  EXPECT_LT(d.cycle_weight, 0);
  // The witness mixes the invariant C>5 edge with the substituted 4=C
  // edge, so it is not an invariant-only contradiction.
  EXPECT_FALSE(d.invariant_only);
  int64_t sum = 0;
  for (const obs::CycleStep& s : d.cycle) {
    sum += s.weight;
    EXPECT_FALSE(s.source.empty());
    EXPECT_TRUE(s.from == "0" || s.from == "C") << s.from;
    EXPECT_TRUE(s.to == "0" || s.to == "C") << s.to;
  }
  EXPECT_EQ(sum, d.cycle_weight);
  std::string text = ex.ToString();
  EXPECT_NE(text.find("negative-weight cycle"), std::string::npos);
  EXPECT_NE(text.find("(weight "), std::string::npos);
}

TEST_F(ExplainExample41Test, VerdictAlwaysAgreesWithTheCompiledFilter) {
  for (int64_t a = -2; a <= 13; ++a) {
    for (int64_t b = -2; b <= 13; ++b) {
      Tuple t = T({a, b});
      for (size_t base = 0; base < 2; ++base) {
        SCOPED_TRACE("base " + std::to_string(base) + " tuple (" +
                     std::to_string(a) + "," + std::to_string(b) + ")");
        EXPECT_EQ(filter_->Explain(base, t).relevant,
                  filter_->IsRelevant(base, t));
      }
    }
  }
}

TEST(ExplainTest, PureVariableCycleWitness) {
  // B < C && C < B: substituting r's B = 10 leaves 10 < C && C < 10,
  // whose difference constraints form the two-edge cycle
  // 0 → C (weight 9) and C → 0 (weight −11), total −2.
  Database db;
  MakeRelation(&db, "r", {"A", "B"}, {});
  MakeRelation(&db, "s", {"C", "D"}, {});
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "B < C && C < B");
  IrrelevanceFilter filter(def, db);
  EXPECT_FALSE(filter.IsRelevant(0, T({1, 10})));
  obs::IrrelevanceExplanation ex = filter.Explain(0, T({1, 10}));
  EXPECT_FALSE(ex.relevant);
  ASSERT_EQ(ex.disjuncts.size(), 1u);
  const obs::DisjunctTrace& d = ex.disjuncts[0];
  ASSERT_EQ(d.cycle.size(), 2u);
  EXPECT_EQ(d.cycle_weight, -2);
  EXPECT_FALSE(d.invariant_only);
}

TEST(ExplainTest, DisjunctiveConditionsExplainPerDisjunct) {
  Database db;
  MakeRelation(&db, "r", {"A", "B"}, {});
  ViewDefinition def("v", {BaseRef{"r", {}}},
                     "(A < 0 && B = 1) || (A > 10 && B = 2)");
  IrrelevanceFilter filter(def, db);
  obs::IrrelevanceExplanation ex = filter.Explain(0, T({5, 1}));
  EXPECT_FALSE(ex.relevant);
  ASSERT_EQ(ex.disjuncts.size(), 2u);
  EXPECT_FALSE(ex.disjuncts[0].satisfiable);  // 5 < 0 fails
  EXPECT_FALSE(ex.disjuncts[1].satisfiable);  // 5 > 10 fails
  obs::IrrelevanceExplanation ok = filter.Explain(0, T({-1, 1}));
  EXPECT_TRUE(ok.relevant);
  EXPECT_TRUE(ok.disjuncts[0].satisfiable);
  EXPECT_FALSE(ok.disjuncts[1].satisfiable);
  // Agreement sweep across both disjuncts' boundaries.
  for (int64_t a = -3; a <= 13; ++a) {
    for (int64_t b = 0; b <= 3; ++b) {
      EXPECT_EQ(filter.Explain(0, T({a, b})).relevant,
                filter.IsRelevant(0, T({a, b})));
    }
  }
}

TEST(ExplainTest, AlwaysTrueConditionIsRelevant) {
  Database db;
  MakeRelation(&db, "r", {"A"}, {});
  ViewDefinition def = ViewDefinition::Project("v", "r", {"A"});
  IrrelevanceFilter filter(def, db);
  obs::IrrelevanceExplanation ex = filter.Explain(0, T({123}));
  EXPECT_TRUE(ex.relevant);
}

// --- The SQL surface: EXPLAIN MAINTENANCE. ---

TEST(ExplainMaintenanceSqlTest, AuditsWithoutApplying) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (c INT64, d INT64);"
      "INSERT INTO r VALUES (1, 2), (5, 10);"
      "INSERT INTO s VALUES (2, 10), (10, 20), (12, 15);"
      "CREATE MATERIALIZED VIEW v AS SELECT a, d FROM r, s "
      "WHERE a < 10 AND c > 5 AND b = c;");
  size_t view_rows = engine.views().View("v").size();

  sql::Engine::Result result =
      engine.Execute("EXPLAIN MAINTENANCE INSERT INTO r VALUES (11, 10)");
  ASSERT_EQ(result.kind, sql::Engine::Result::Kind::kMessage);
  EXPECT_NE(result.message.find("view v"), std::string::npos);
  EXPECT_NE(result.message.find("substituted: 11 < 10"), std::string::npos);
  EXPECT_NE(result.message.find("variant-evaluable"), std::string::npos);
  EXPECT_NE(result.message.find("IRRELEVANT"), std::string::npos);
  // Nothing was applied or staged: the table and view are untouched.
  EXPECT_EQ(engine.database().Get("r").size(), 2u);
  EXPECT_EQ(engine.views().View("v").size(), view_rows);
  EXPECT_FALSE(engine.in_transaction());

  // The constraint-graph contradiction carries its cycle witness.
  result = engine.Execute("EXPLAIN MAINTENANCE INSERT INTO r VALUES (3, 4)");
  EXPECT_NE(result.message.find("negative-weight cycle"), std::string::npos);
  EXPECT_NE(result.message.find("-> "), std::string::npos);
  EXPECT_NE(result.message.find("IRRELEVANT"), std::string::npos);

  // A relevant insert is reported as such.
  result = engine.Execute("EXPLAIN MAINTENANCE INSERT INTO r VALUES (9, 10)");
  EXPECT_NE(result.message.find("RELEVANT"), std::string::npos);
}

TEST(ExplainMaintenanceSqlTest, ExplainsDeletesAndUpdates) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "INSERT INTO r VALUES (1, 1), (20, 2);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM r WHERE a < 10;");
  sql::Engine::Result result =
      engine.Execute("EXPLAIN MAINTENANCE DELETE FROM r WHERE b = 2");
  // Deleting (20,2) cannot touch the view: 20 < 10 fails.
  EXPECT_NE(result.message.find("delete"), std::string::npos);
  EXPECT_NE(result.message.find("IRRELEVANT"), std::string::npos);
  EXPECT_EQ(engine.database().Get("r").size(), 2u);

  // An update is audited as delete(old) + insert(new).
  result = engine.Execute(
      "EXPLAIN MAINTENANCE UPDATE r SET a = 30 WHERE b = 2");
  EXPECT_NE(result.message.find("net effect 2 tuple(s)"), std::string::npos);
  EXPECT_EQ(engine.database().Get("r").size(), 2u);
}

TEST(ExplainMaintenanceSqlTest, ReportsTheAccessPath) {
  // The view's equi-join indexes r.b; DML pinning b probes that index,
  // anything else scans.  No statement creates an index of its own.
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (c INT64, d INT64);"
      "INSERT INTO r VALUES (1, 2), (3, 2), (5, 7), (8, 9);"
      "INSERT INTO s VALUES (2, 20), (7, 70);"
      "CREATE MATERIALIZED VIEW v AS SELECT a, d FROM r, s WHERE b = c;");
  sql::Engine::Result result = engine.Execute(
      "EXPLAIN MAINTENANCE DELETE FROM r WHERE b = 2 AND a > 1");
  EXPECT_NE(result.message.find(
                "access path: index on b (2 candidate row(s))\n"),
            std::string::npos)
      << result.message;
  EXPECT_NE(result.message.find("1 row(s) matched"), std::string::npos);

  result = engine.Execute("EXPLAIN MAINTENANCE UPDATE r SET a = 0 WHERE a = 5");
  EXPECT_NE(result.message.find("access path: full scan (4 row(s))\n"),
            std::string::npos)
      << result.message;

  // An indexed equality inside one disjunct of several cannot bound the
  // matches; it scans.
  result = engine.Execute(
      "EXPLAIN MAINTENANCE DELETE FROM r WHERE b = 2 OR a = 8");
  EXPECT_NE(result.message.find("access path: full scan (4 row(s))"),
            std::string::npos)
      << result.message;

  // A missing key probes an empty bucket.
  result = engine.Execute("EXPLAIN MAINTENANCE DELETE FROM r WHERE b = 99");
  EXPECT_NE(result.message.find("index on b (0 candidate row(s))"),
            std::string::npos)
      << result.message;

  // INSERT has no WHERE and no access path line.
  result = engine.Execute("EXPLAIN MAINTENANCE INSERT INTO r VALUES (4, 2)");
  EXPECT_EQ(result.message.find("access path"), std::string::npos);
  EXPECT_EQ(engine.database().Get("r").IndexedAttributes(),
            std::vector<size_t>{1});

  // With both columns indexed the smaller bucket wins, whatever the atom
  // order.
  engine.Execute("CREATE MATERIALIZED VIEW w AS SELECT b, d FROM r, s "
                 "WHERE a = d");
  for (const char* where : {"b = 2 AND a = 3", "a = 3 AND b = 2"}) {
    result = engine.Execute(std::string("EXPLAIN MAINTENANCE DELETE FROM r "
                                        "WHERE ") + where);
    EXPECT_NE(result.message.find("index on a (1 candidate row(s))"),
              std::string::npos)
        << result.message;
  }
}

TEST(ExplainMaintenanceSqlTest, EmptyEffectAndUnreferencedTables) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64);"
      "CREATE TABLE unrelated (x INT64);"
      "INSERT INTO r VALUES (1);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM r WHERE a < 10;");
  // Inserting an already-present tuple has an empty net effect.
  sql::Engine::Result result =
      engine.Execute("EXPLAIN MAINTENANCE INSERT INTO r VALUES (1)");
  EXPECT_NE(result.message.find("net effect is empty"), std::string::npos);
  // A touched relation no view references yields no audits.
  result = engine.Execute(
      "EXPLAIN MAINTENANCE INSERT INTO unrelated VALUES (7)");
  EXPECT_NE(result.message.find("no registered view references"),
            std::string::npos);
}

TEST(ExplainMaintenanceSqlTest, RejectsNonDmlStatements) {
  sql::Engine engine;
  EXPECT_THROW(engine.Execute("EXPLAIN MAINTENANCE SELECT * FROM r"), Error);
  EXPECT_THROW(engine.Execute("EXPLAIN MAINTENANCE CHECKPOINT"), Error);
}

}  // namespace
}  // namespace mview
