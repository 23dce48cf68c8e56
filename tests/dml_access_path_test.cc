// Equivalence of the DML access paths: a DELETE/UPDATE whose WHERE pins an
// indexed column probes the index bucket instead of scanning.  The
// property: an engine whose views put indexes on the join columns and a
// shadow engine with no views (so no indexes, every WHERE scans) give the
// same affected-row message and the same base contents for every
// statement; the engine's views equal both a from-scratch FullEvaluate and
// the shadow's ad-hoc SELECT of the view body.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sql/engine.h"
#include "sql/session.h"
#include "util/random.h"
#include "util/status.h"

namespace mview {
namespace {

using sql::Engine;

constexpr char kTables[] =
    "CREATE TABLE r (k INT64, g INT64, v INT64);"
    "CREATE TABLE s (g INT64, w INT64);"
    "CREATE TABLE t (name STRING, x INT64);"
    "CREATE TABLE u (name STRING, y INT64);";

struct ViewBody {
  const char* name;
  const char* select;
};

// Join views index r.g, s.g, r.k, s.w, t.name and u.name; r.v and t.x stay
// unindexed.
const ViewBody kViews[] = {
    {"vg", "SELECT k, r.g, v, w FROM r, s WHERE r.g = s.g"},
    {"vk", "SELECT k, v FROM r, s WHERE k = w AND v > 20"},
    {"vs", "SELECT * FROM t, u WHERE t.name = u.name AND x < y"},
    {"vr", "SELECT * FROM r WHERE v >= 50"},
};

const char* const kBases[] = {"r", "s", "t", "u"};

std::string Names(int i) { return "'n" + std::to_string(i) + "'"; }

class DmlAccessPathTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    indexed_.ExecuteScript(kTables);
    shadow_.ExecuteScript(kTables);
    for (const ViewBody& v : kViews) {
      indexed_.Execute(std::string("CREATE MATERIALIZED VIEW ") + v.name +
                       " AS " + v.select);
    }
    // The shadow really scans: no relation of it carries an index.
    for (const char* base : kBases) {
      ASSERT_TRUE(shadow_.database().Get(base).IndexedAttributes().empty());
    }
    ASSERT_EQ(indexed_.database().Get("r").IndexedAttributes(),
              (std::vector<size_t>{0, 1}));
    ASSERT_EQ(indexed_.database().Get("t").IndexedAttributes(),
              std::vector<size_t>{0});
  }

  // Runs `sql` on both engines' sessions; the messages must agree.
  void Both(const std::string& sql) {
    SCOPED_TRACE(sql);
    sql::Result a;
    sql::Result b;
    Status sa = indexed_session_->TryExecute(sql, &a);
    Status sb = shadow_session_->TryExecute(sql, &b);
    ASSERT_EQ(sa.ok, sb.ok) << sa.message << " / " << sb.message;
    ASSERT_TRUE(sa.ok) << sa.message;
    EXPECT_EQ(a.ToString(), b.ToString());
  }

  void ExpectEquivalent() {
    for (const char* base : kBases) {
      EXPECT_EQ(indexed_.database().Get(base).ToString(),
                shadow_.database().Get(base).ToString())
          << "base " << base;
    }
    for (const ViewBody& v : kViews) {
      const CountedRelation& view = indexed_.views().View(v.name);
      CountedRelation cold = indexed_.views().Maintainer(v.name).FullEvaluate();
      EXPECT_TRUE(view.SameContents(cold))
          << "view " << v.name << " drifted from FullEvaluate";
      EXPECT_EQ(indexed_.Execute(std::string("SELECT * FROM ") + v.name)
                    .ToString(),
                shadow_.Execute(v.select).ToString())
          << "view " << v.name << " differs from the shadow's SELECT";
    }
  }

  // One random DELETE/UPDATE from the shapes the access path must
  // distinguish.
  std::string RandomDml(Rng* rng) {
    auto num = [rng](int64_t lo, int64_t hi) {
      return std::to_string(rng->Uniform(lo, hi));
    };
    switch (rng->Uniform(0, 13)) {
      case 0:  // indexed equality
        return "DELETE FROM r WHERE g = " + num(0, 9);
      case 1:  // indexed equality plus extra atoms, one of them var-var
        return "DELETE FROM r WHERE g = " + num(0, 9) + " AND v > " +
               num(0, 99) + " AND k < v";
      case 2:  // two indexed equalities: the smaller bucket is probed
        return "UPDATE r SET v = " + num(0, 99) + " WHERE k = " + num(0, 49) +
               " AND g = " + num(0, 9);
      case 3:  // contradictory equalities on one indexed column
        return "DELETE FROM r WHERE g = 1 AND g = 2";
      case 4:  // indexed equality inside one OR disjunct: must scan
        return "DELETE FROM r WHERE g = " + num(0, 9) + " OR v = " +
               num(0, 99);
      case 5:  // non-indexed equality
        return "UPDATE r SET g = " + num(0, 9) + " WHERE v = " + num(0, 99);
      case 6:  // missing key
        return "DELETE FROM r WHERE k = " + num(1000, 2000);
      case 7:  // UPDATE assigns the probed column itself
        return "UPDATE r SET g = " + num(0, 9) + " WHERE g = " + num(0, 9);
      case 8:  // range on an indexed column: scans
        return "UPDATE r SET v = " + num(0, 99) + " WHERE g < " + num(0, 9);
      case 9:  // string-typed indexed column
        return "DELETE FROM t WHERE name = " + Names(rng->Uniform(0, 7));
      case 10:
        return "UPDATE t SET x = " + num(0, 20) + " WHERE name = " +
               Names(rng->Uniform(0, 7)) + " AND x < " + num(0, 20);
      case 11:  // the other join side
        return "DELETE FROM s WHERE w = " + num(0, 49) + " AND g = " +
               num(0, 9);
      case 12:
        return "UPDATE u SET name = " + Names(rng->Uniform(0, 7)) +
               " WHERE name = " + Names(rng->Uniform(0, 7));
      default:  // no WHERE at all
        return "DELETE FROM u WHERE y > " + num(15, 20);
    }
  }

  std::string RandomInsert(Rng* rng) {
    auto num = [rng](int64_t lo, int64_t hi) {
      return std::to_string(rng->Uniform(lo, hi));
    };
    switch (rng->Uniform(0, 3)) {
      case 0:
        return "INSERT INTO r VALUES (" + num(0, 49) + ", " + num(0, 9) +
               ", " + num(0, 99) + "), (" + num(0, 49) + ", " + num(0, 9) +
               ", " + num(0, 99) + ")";
      case 1:
        return "INSERT INTO s VALUES (" + num(0, 9) + ", " + num(0, 49) + ")";
      case 2:
        return "INSERT INTO t VALUES (" + Names(rng->Uniform(0, 7)) + ", " +
               num(0, 20) + ")";
      default:
        return "INSERT INTO u VALUES (" + Names(rng->Uniform(0, 7)) + ", " +
               num(0, 20) + ")";
    }
  }

  Engine indexed_;
  Engine shadow_;
  std::unique_ptr<sql::Session> indexed_session_ = indexed_.CreateSession();
  std::unique_ptr<sql::Session> shadow_session_ = shadow_.CreateSession();
};

TEST_P(DmlAccessPathTest, IndexedEqualsScan) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) Both(RandomInsert(&rng));
  for (int step = 0; step < 150; ++step) {
    const int kind = static_cast<int>(rng.Uniform(0, 9));
    if (kind < 3) {
      Both(RandomInsert(&rng));
    } else if (kind < 8) {
      Both(RandomDml(&rng));
    } else {
      // A staged transaction: the WHERE is evaluated at staging time
      // against the pre-transaction state, then committed or rolled back.
      Both("BEGIN");
      const int n = static_cast<int>(rng.Uniform(1, 3));
      for (int j = 0; j < n; ++j) {
        Both(rng.Uniform(0, 2) == 0 ? RandomInsert(&rng) : RandomDml(&rng));
      }
      Both(rng.Uniform(0, 1) == 0 ? "COMMIT" : "ROLLBACK");
    }
    if (HasFatalFailure()) return;
    ExpectEquivalent();
  }
  // Ad-hoc SELECTs on the shadow never created indexes behind our back.
  for (const char* base : kBases) {
    EXPECT_TRUE(shadow_.database().Get(base).IndexedAttributes().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlAccessPathTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DmlAccessPathCountersTest, KeyedStatementExaminesOnlyItsBucket) {
  // The headline ratio: with 2,000 rows and 4 per key, a keyed DELETE
  // examines 4 rows, not 2,000.
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE lineitem (l_orderkey INT64, l_linenumber INT64);"
      "CREATE TABLE orders (o_orderkey INT64, o_date INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey;");
  std::string load = "INSERT INTO lineitem VALUES ";
  for (int i = 0; i < 2000; ++i) {
    load += (i == 0 ? "(" : ", (") + std::to_string(i / 4) + ", " +
            std::to_string(i % 4) + ")";
  }
  engine.Execute(load);
  engine.Execute("DELETE FROM lineitem WHERE l_orderkey = 17");
  engine.Execute(
      "UPDATE lineitem SET l_linenumber = 9 WHERE l_orderkey = 18 AND "
      "l_linenumber = 2");
  auto value_of = [&engine](const std::string& metric) {
    for (const auto& [tuple, count] : engine.Execute("SHOW STATS").rows) {
      if (tuple.at(1).AsString() == metric) return tuple.at(2).AsInt64();
    }
    return int64_t{-1};
  };
  EXPECT_EQ(value_of("dml_rows_examined"), 8);
  EXPECT_EQ(value_of("dml_rows_matched"), 5);
  EXPECT_EQ(value_of("dml_index_probes"), 2);
}

TEST(DmlAccessPathCountersTest, ConcurrentStagingCountsEveryRow) {
  // Staging inside BEGIN runs under the shared engine lock, so sessions
  // evaluate WHEREs concurrently; the counters must not lose updates.
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (k INT64, g INT64);"
      "CREATE TABLE s (g INT64, w INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT k, w FROM r, s WHERE r.g = s.g;"
      "INSERT INTO r VALUES (1, 1), (2, 1), (3, 2), (4, 3);");
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine] {
      std::unique_ptr<sql::Session> session = engine.CreateSession();
      for (int i = 0; i < kRounds; ++i) {
        session->Execute("BEGIN");
        session->Execute("DELETE FROM r WHERE g = 1");    // probes 2 rows
        session->Execute("UPDATE r SET g = 9 WHERE k = 4");  // scans 4 rows
        session->Execute("ROLLBACK");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto value_of = [&engine](const std::string& metric) {
    for (const auto& [tuple, count] : engine.Execute("SHOW STATS").rows) {
      if (tuple.at(1).AsString() == metric) return tuple.at(2).AsInt64();
    }
    return int64_t{-1};
  };
  EXPECT_EQ(value_of("dml_rows_examined"), kThreads * kRounds * (2 + 4));
  EXPECT_EQ(value_of("dml_rows_matched"), kThreads * kRounds * (2 + 1));
  EXPECT_EQ(value_of("dml_index_probes"), kThreads * kRounds);
  EXPECT_EQ(engine.database().Get("r").size(), 4u);  // all rolled back
}

}  // namespace
}  // namespace mview
