#include "ra/planner.h"

#include <gtest/gtest.h>

#include <optional>

#include "predicate/parser.h"
#include "ra/eval.h"
#include "test_util.h"
#include "util/error.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::Rows;
using ::mview::testing::T;
using ::mview::testing::TC;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    r_ = &MakeRelation(&db_, "r", {"A", "B"}, {{1, 2}, {2, 10}, {5, 10}});
    s_ = &MakeRelation(&db_, "s", {"C", "D"}, {{10, 5}, {20, 12}, {2, 7}});
  }

  CountedRelation Run(const std::vector<const RelationInput*>& inputs,
                      const char* condition,
                      std::vector<std::string> projection = {},
                      PlanStats* stats = nullptr) {
    Condition cond = ParseCondition(condition);
    SpjQuery q;
    q.inputs = inputs;
    q.condition = &cond;
    q.projection = std::move(projection);
    return EvaluateSpj(q, stats);
  }

  Database db_;
  Relation* r_;
  Relation* s_;
};

TEST_F(PlannerTest, SingleInputSelect) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "B = 10");
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 10}, 1), TC({5, 10}, 1)}));
}

TEST_F(PlannerTest, SingleInputProject) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "true", {"B"});
  EXPECT_EQ(v.Count(T({10})), 2);
}

TEST_F(PlannerTest, EquiJoinViaHash) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  PlanStats stats;
  auto v = Run({&r, &s}, "B = C", {"A", "D"}, &stats);
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({1, 7}, 1), TC({2, 5}, 1), TC({5, 5}, 1)}));
  EXPECT_GT(stats.rows_scanned, 0);
}

TEST_F(PlannerTest, EquiJoinViaIndexProbe) {
  s_->CreateIndex("C");
  // Make s large enough that the planner prefers probing it.
  for (int64_t i = 100; i < 200; ++i) s_->Insert(T({i, i}));
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  PlanStats stats;
  auto v = Run({&r, &s}, "B = C", {"A", "D"}, &stats);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_GT(stats.probes, 0) << "expected the index-join path";
}

TEST_F(PlannerTest, JoinWithOffset) {
  // B = C + 8: r.B=10 matches s.C=2.
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "B = C + 8", {"A", "C"});
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 2}, 1), TC({5, 2}, 1)}));
}

TEST_F(PlannerTest, CrossProductWhenNoJoinPredicate) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "true");
  EXPECT_EQ(v.size(), 9u);
}

TEST_F(PlannerTest, CrossInputInequalityIsStepFilter) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "B < C", {"A", "C"});
  // B=2 < C∈{10,20}; B=10 < C=20 (twice).
  EXPECT_EQ(v.Count(T({1, 10})), 1);
  EXPECT_EQ(v.Count(T({1, 20})), 1);
  EXPECT_EQ(v.Count(T({2, 20})), 1);
  EXPECT_EQ(v.Count(T({5, 20})), 1);
  EXPECT_EQ(v.size(), 4u);
}

TEST_F(PlannerTest, ResidualDisjunction) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "A = 1 || B = 10");
  EXPECT_EQ(v.size(), 3u);
  // No double counting for tuples satisfying both disjuncts.
  Relation both(Schema::OfInts({"A", "B"}));
  both.Insert(T({1, 10}));
  FullRelationInput b(&both, both.schema());
  auto v2 = Run({&b}, "A = 1 || B = 10");
  EXPECT_EQ(v2.Count(T({1, 10})), 1);
}

TEST_F(PlannerTest, DisjunctionWithCommonJoinCore) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  // B = C is in both disjuncts (the conjunctive core drives the join).
  auto v = Run({&r, &s}, "(B = C && D < 6) || (B = C && D > 6)", {"A", "D"});
  EXPECT_EQ(v.size(), 3u);
}

TEST_F(PlannerTest, FalseConditionYieldsEmpty) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "false");
  EXPECT_TRUE(v.empty());
}

TEST_F(PlannerTest, ThreeWayJoinChain) {
  MakeRelation(&db_, "t", {"E", "F"}, {{5, 100}, {12, 200}});
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  FullRelationInput t(&db_.Get("t"), db_.Get("t").schema());
  auto v = Run({&r, &s, &t}, "B = C && D = E", {"A", "F"});
  // r(2,10)-s(10,5)-t(5,100); r(5,10)-s(10,5)-t(5,100); s(20,12)-t(12,200)
  // needs r.B=20: none.
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 100}, 1), TC({5, 100}, 1)}));
}

TEST_F(PlannerTest, CountsMultiplyThroughJoins) {
  CountedRelation cr(Schema::OfInts({"A"}));
  cr.Add(T({1}), 2);
  CountedRelation cs(Schema::OfInts({"B"}));
  cs.Add(T({1}), 3);
  CountedRelationInput ir(&cr, cr.schema());
  CountedRelationInput is(&cs, cs.schema());
  auto v = Run({&ir, &is}, "A = B");
  EXPECT_EQ(v.Count(T({1, 1})), 6);
}

TEST_F(PlannerTest, MultiplierScalesOutput) {
  FullRelationInput r(r_, r_->schema());
  Condition cond = ParseCondition("true");
  SpjQuery q;
  q.inputs = {&r};
  q.condition = &cond;
  CountedRelation out(r_->schema());
  EvaluateSpjInto(q, &out, 3);
  EXPECT_EQ(out.Count(T({1, 2})), 3);
}

TEST_F(PlannerTest, EmptyProjectionKeepsAllAttributes) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "true");
  EXPECT_EQ(v.schema().size(), 2u);
}

TEST_F(PlannerTest, NoInputsThrows) {
  Condition cond = ParseCondition("true");
  SpjQuery q;
  q.condition = &cond;
  EXPECT_THROW(EvaluateSpj(q), Error);
}

TEST_F(PlannerTest, CacheReusesMaterializations) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  Condition cond = ParseCondition("B = C");
  SpjQuery q;
  q.inputs = {&r, &s};
  q.condition = &cond;
  PlannerCache cache;
  PlanStats first, second;
  CountedRelation out1(CombinedSchema(q));
  CountedRelation out2(CombinedSchema(q));
  EvaluateSpjInto(q, &out1, 1, &first, &cache);
  EvaluateSpjInto(q, &out2, 1, &second, &cache);
  EXPECT_TRUE(out1.SameContents(out2));
  // The second run reuses the hash table: strictly fewer rows scanned.
  EXPECT_LT(second.rows_scanned, first.rows_scanned);
  EXPECT_GE(cache.size(), 1u);
}

// Property: the planner agrees with the naive expression evaluator on
// randomized relations and conditions.
TEST(PlannerPropertyTest, AgreesWithNaiveEvaluator) {
  Rng rng(5150);
  for (int trial = 0; trial < 60; ++trial) {
    Database db;
    WorkloadGenerator gen(rng.Next());
    RelationSpec r{"r", 2, 8, static_cast<size_t>(rng.Uniform(0, 30))};
    RelationSpec s{"s", 2, 8, static_cast<size_t>(rng.Uniform(0, 30))};
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    std::string cond_text;
    switch (rng.Uniform(0, 3)) {
      case 0:
        cond_text = "r_a1 = s_a0";
        break;
      case 1:
        cond_text = "r_a1 = s_a0 && r_a0 < 5";
        break;
      case 2:
        cond_text = "r_a1 = s_a0 && r_a0 < s_a1";
        break;
      default:
        cond_text = "(r_a1 = s_a0 && s_a1 < 4) || (r_a1 = s_a0 && r_a0 > 5)";
        break;
    }
    Condition cond = ParseCondition(cond_text);
    FullRelationInput ir(&db.Get("r"), db.Get("r").schema());
    FullRelationInput is(&db.Get("s"), db.Get("s").schema());
    SpjQuery q;
    q.inputs = {&ir, &is};
    q.condition = &cond;
    q.projection = {"r_a0", "s_a1"};
    CountedRelation fast = EvaluateSpj(q);
    CountedRelation slow = Evaluate(
        *Expr::Project(
            Expr::Select(Expr::Product(Expr::Base("r"), Expr::Base("s")),
                         cond),
            {"r_a0", "s_a1"}),
        db);
    EXPECT_TRUE(fast.SameContents(slow))
        << "condition: " << cond_text << "\nfast:\n"
        << fast.ToString() << "slow:\n"
        << slow.ToString();
  }
}


// A plan compiled once (against schemes built independently of the
// relations, from a condition that is gone before it runs) and executed over
// fresh input objects each round gives the one-shot `EvaluateSpjInto` result
// and work counters — the contract the differential maintainer relies on
// when it reuses one plan for every row of every commit.
TEST(SpjPlanTest, CompiledPlanOverFreshInputsEqualsOneShot) {
  const char* conditions[] = {
      "r_a1 = s_a0 && r_a0 < 5",
      "r_a1 = s_a0 && r_a0 < s_a1 && s_a1 != 3",
      "(r_a1 = s_a0 && s_a1 < 4) || (r_a1 = s_a0 && r_a0 > 5)",
      "r_a0 <= s_a1 + 2",
  };
  Rng rng(4242);
  for (const char* text : conditions) {
    Database db;
    WorkloadGenerator gen(rng.Next());
    gen.Populate(&db, RelationSpec{"r", 2, 8, 20});
    gen.Populate(&db, RelationSpec{"s", 2, 8, 20});
    std::optional<SpjPlan> plan;
    {
      Condition compiled_from = ParseCondition(text);
      plan.emplace(std::vector<Schema>{Schema::OfInts({"r_a0", "r_a1"}),
                                       Schema::OfInts({"s_a0", "s_a1"})},
                   &compiled_from, std::vector<std::string>{"s_a1", "r_a0"});
    }
    EXPECT_EQ(plan->output_schema(), Schema::OfInts({"s_a1", "r_a0"}));
    const Condition cond = ParseCondition(text);
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 5; ++k) {
        db.Get("r").Insert(T({rng.Uniform(0, 8), rng.Uniform(0, 8)}));
        db.Get("s").Insert(T({rng.Uniform(0, 8), rng.Uniform(0, 8)}));
      }
      FullRelationInput ir(&db.Get("r"), db.Get("r").schema());
      FullRelationInput is(&db.Get("s"), db.Get("s").schema());
      CountedRelation compiled(plan->output_schema());
      PlanStats compiled_stats;
      plan->Execute({&ir, &is}, &compiled, 2, &compiled_stats);

      SpjQuery q;
      q.inputs = {&ir, &is};
      q.condition = &cond;
      q.projection = {"s_a1", "r_a0"};
      CountedRelation one_shot(plan->output_schema());
      PlanStats one_shot_stats;
      EvaluateSpjInto(q, &one_shot, 2, &one_shot_stats);

      EXPECT_TRUE(compiled.SameContents(one_shot))
          << text << " round " << round << "\ncompiled:\n"
          << compiled.ToString() << "one-shot:\n" << one_shot.ToString();
      EXPECT_EQ(compiled_stats.rows_scanned, one_shot_stats.rows_scanned);
      EXPECT_EQ(compiled_stats.probes, one_shot_stats.probes);
      EXPECT_EQ(compiled_stats.output_tuples, one_shot_stats.output_tuples);
    }
  }
}

TEST(SpjPlanTest, RejectsInputsOfAnotherScheme) {
  Database db;
  Relation& r = MakeRelation(&db, "r", {"A", "B"}, {{1, 2}});
  Relation& s = MakeRelation(&db, "s", {"C"}, {{1}});
  const Condition cond = ParseCondition("A = 1");
  SpjPlan plan({r.schema()}, &cond, {});
  FullRelationInput ir(&r, r.schema());
  FullRelationInput is(&s, s.schema());
  CountedRelation out(plan.output_schema());
  EXPECT_THROW(plan.Execute({&is}, &out), Error);
  EXPECT_THROW(plan.Execute({&ir, &is}, &out), Error);
  plan.Execute({&ir}, &out);
  EXPECT_EQ(out.Count(T({1, 2})), 1);
  // Compilation reports the errors the one-shot evaluation always did.
  EXPECT_THROW(SpjPlan({r.schema(), r.schema()}, nullptr, {}), Error);
  const Condition unknown = ParseCondition("Z = 1");
  EXPECT_THROW(SpjPlan({r.schema()}, &unknown, {}), Error);
  EXPECT_THROW(SpjPlan({r.schema()}, nullptr, {"Z"}), Error);
}

}  // namespace
}  // namespace mview
