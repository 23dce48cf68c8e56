#include "util/deadline.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sql/engine.h"
#include "sql/session.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/status.h"

namespace mview {
namespace {

using sql::Engine;
using util::Cancellation;
using util::FaultKind;
using util::FaultRegistry;
using util::FaultSpec;
using util::ScopedFault;

// ----------------------------------------------------------------- token ---

TEST(CancellationTest, DefaultTokenNeverExpires) {
  Cancellation token;
  EXPECT_FALSE(token.Expired());
  EXPECT_FALSE(token.RemainingMillis().has_value());
  EXPECT_NO_THROW(token.Check());
}

TEST(CancellationTest, CancelExpiresFromAnotherThread) {
  Cancellation token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Expired());
  EXPECT_THROW(token.Check(), DeadlineExceededError);
}

TEST(CancellationTest, PastDeadlineExpiresImmediately) {
  Cancellation token = Cancellation::After(0);
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.RemainingMillis().value_or(-1), 0);
  EXPECT_THROW(token.Check(), DeadlineExceededError);
}

TEST(CancellationTest, FutureDeadlineDoesNotExpireYet) {
  Cancellation token = Cancellation::After(60'000);
  EXPECT_FALSE(token.Expired());
  EXPECT_GT(token.RemainingMillis().value_or(0), 0);
  EXPECT_NO_THROW(token.Check());
}

// ---------------------------------------------------------------- engine ---

constexpr char kPreamble[] =
    "CREATE TABLE r (a INT64, b INT64);"
    "CREATE TABLE s (c INT64, d INT64);"
    "CREATE MATERIALIZED VIEW va AS SELECT a, b FROM r WHERE a > 2;"
    "CREATE MATERIALIZED VIEW vj AS SELECT a, d FROM r, s WHERE b = c;"
    "INSERT INTO r VALUES (1, 10), (3, 20), (5, 30);"
    "INSERT INTO s VALUES (10, 100), (20, 200), (30, 300);";

const std::vector<std::string> kRelations = {"r", "s", "va", "vj"};

std::string Dump(Engine& engine, const std::string& rel) {
  return engine.Execute("SELECT * FROM " + rel).ToString();
}

void ExpectSameVisibleState(Engine& a, Engine& b) {
  for (const std::string& rel : kRelations) {
    EXPECT_EQ(Dump(a, rel), Dump(b, rel)) << "relation " << rel;
  }
}

TEST(DeadlineTest, ExpiredDeadlineRejectsStatementWithoutSideEffects) {
  Engine engine;
  engine.ExecuteScript(kPreamble);
  Engine shadow;
  shadow.ExecuteScript(kPreamble);

  std::unique_ptr<sql::Session> session = engine.CreateSession();
  Cancellation expired = Cancellation::After(0);
  Status status = session->TryExecute("INSERT INTO r VALUES (7, 10)",
                                      nullptr, &expired);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.kind, Status::Kind::kDeadlineExceeded);
  ExpectSameVisibleState(engine, shadow);
}

TEST(DeadlineTest, SnapshotReadsIgnoreExpiredDeadlines) {
  // The lock-free view fast path serves from the published epoch without
  // polling — by design: reads that do no work can always be answered.
  Engine engine;
  engine.ExecuteScript(kPreamble);
  std::unique_ptr<sql::Session> session = engine.CreateSession();
  Cancellation expired = Cancellation::After(0);
  sql::Result rows;
  Status status = session->TryExecute("SELECT * FROM va", &rows, &expired);
  EXPECT_TRUE(status.ok) << status.message;
  EXPECT_EQ(rows.NumRows(), 2u);
}

TEST(DeadlineTest, DeadlineAbortsAreCounted) {
  Engine engine;
  engine.ExecuteScript(kPreamble);
  std::unique_ptr<sql::Session> session = engine.CreateSession();
  Cancellation expired = Cancellation::After(0);
  ASSERT_EQ(
      session->TryExecute("INSERT INTO r VALUES (7, 10)", nullptr, &expired)
          .kind,
      Status::Kind::kDeadlineExceeded);
  const std::string stats = engine.Execute("SHOW STATS").ToString();
  EXPECT_NE(stats.find("deadline_exceeded"), std::string::npos);
  const std::string prom = engine.ExportMetricsText();
  EXPECT_NE(prom.find("mview_deadline_exceeded_total 1"), std::string::npos);
}

// The unwind property: whichever poll point a deadline expires at, the
// aborted statement leaves the engine byte-identical to never having
// started it.  We drive the expiry deterministically with the kDeadline
// fault armed on "cancel.poll" (the shared body of every poll site),
// letting k hits pass first — so run k aborts at the (k+1)-th poll point,
// sweeping every unwind site one by one until the statement has fewer
// than k+1 polls and completes.
TEST(DeadlineUnwindPropertyTest, EveryPollPointUnwindsCleanly) {
  // Statements chosen to cross distinct machinery: an auto-commit
  // multi-row insert (join maintenance), a delete, an update, and an
  // explicit transaction commit batching all three.
  // DELETE/UPDATE come keyed (b is indexed for vj's join, so the WHERE
  // probes) and unkeyed (a full scan).
  const std::vector<std::string> statements = {
      "INSERT INTO r VALUES (6, 10), (7, 20), (8, 30)",
      "DELETE FROM r WHERE a = 3",
      "UPDATE r SET b = 30 WHERE a = 1",
      "DELETE FROM r WHERE b = 20",
      "UPDATE r SET a = 4 WHERE b = 10 AND a = 1",
  };
  for (const std::string& statement : statements) {
    SCOPED_TRACE(statement);
    int completed_at = -1;
    for (int k = 0; k < 64; ++k) {
      Engine engine;
      engine.ExecuteScript(kPreamble);
      Engine shadow;
      shadow.ExecuteScript(kPreamble);
      std::unique_ptr<sql::Session> session = engine.CreateSession();

      Status status;
      {
        FaultSpec spec;
        spec.kind = FaultKind::kDeadline;
        spec.hits_before = k;
        ScopedFault fault("cancel.poll", spec);
        Cancellation token;  // armed poll points do the expiring
        status = session->TryExecute(statement, nullptr, &token);
      }

      if (status.ok) {
        // Fewer than k+1 poll points: the statement ran to completion and
        // must now match a shadow that executed it fault-free.
        shadow.Execute(statement);
        ExpectSameVisibleState(engine, shadow);
        completed_at = k;
        break;
      }
      ASSERT_EQ(status.kind, Status::Kind::kDeadlineExceeded)
          << status.message;
      // Aborted at poll point k: byte-identical to never having started.
      ExpectSameVisibleState(engine, shadow);
    }
    // The sweep must terminate: no statement has 64 poll points here.
    EXPECT_GE(completed_at, 1) << "expected at least two poll points";
  }
}

// Staging a DELETE/UPDATE inside BEGIN evaluates its WHERE under the
// shared lock; that evaluation polls too.  Whichever poll aborts it, the
// session stays in its transaction with exactly what it had staged before.
TEST(DeadlineUnwindPropertyTest, StagedDmlUnwindsCleanly) {
  const std::vector<std::string> statements = {
      "DELETE FROM r WHERE a = 3",
      "UPDATE r SET b = 30 WHERE a = 1",
      "DELETE FROM r WHERE b = 20",
      "UPDATE r SET a = 4 WHERE b = 10 AND a = 1",
  };
  const std::string staged_before = "INSERT INTO r VALUES (9, 10)";
  for (const std::string& statement : statements) {
    SCOPED_TRACE(statement);
    int completed_at = -1;
    for (int k = 0; k < 64; ++k) {
      Engine engine;
      engine.ExecuteScript(kPreamble);
      Engine shadow;
      shadow.ExecuteScript(kPreamble);
      std::unique_ptr<sql::Session> session = engine.CreateSession();
      ASSERT_TRUE(session->TryExecute("BEGIN", nullptr).ok);
      ASSERT_TRUE(session->TryExecute(staged_before, nullptr).ok);

      Status status;
      {
        FaultSpec spec;
        spec.kind = FaultKind::kDeadline;
        spec.hits_before = k;
        ScopedFault fault("cancel.poll", spec);
        Cancellation token;
        status = session->TryExecute(statement, nullptr, &token);
      }
      EXPECT_TRUE(session->in_transaction());
      ExpectSameVisibleState(engine, shadow);  // nothing committed yet
      ASSERT_TRUE(session->TryExecute("COMMIT", nullptr).ok);
      if (status.ok) {
        shadow.ExecuteScript("BEGIN; " + staged_before + "; " + statement +
                             "; COMMIT;");
        ExpectSameVisibleState(engine, shadow);
        completed_at = k;
        break;
      }
      ASSERT_EQ(status.kind, Status::Kind::kDeadlineExceeded)
          << status.message;
      // The aborted statement staged nothing; the earlier insert survives.
      shadow.ExecuteScript("BEGIN; " + staged_before + "; COMMIT;");
      ExpectSameVisibleState(engine, shadow);
    }
    // One poll before the lock, one as the WHERE evaluation starts.
    EXPECT_GE(completed_at, 2) << "staged WHERE evaluation must poll";
  }
}

// A staged scan polls every 1,024 rows; a keyed probe examines only its
// bucket.  Counted as the number of poll points the statement passes.
TEST(DeadlineUnwindPropertyTest, StagedScanPollsEvery1024Rows) {
  auto polls_of = [](const std::string& statement) {
    for (int k = 0; k < 64; ++k) {
      Engine engine;
      std::string load = "INSERT INTO big VALUES ";
      for (int i = 0; i < 3000; ++i) {
        load += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
                std::to_string(i % 100) + ")";
      }
      engine.ExecuteScript(
          "CREATE TABLE big (k INT64, g INT64);"
          "CREATE TABLE dim (g INT64, name INT64);"
          "CREATE MATERIALIZED VIEW j AS SELECT k, name FROM big, dim "
          "WHERE big.g = dim.g;" +
          load + ";");
      std::unique_ptr<sql::Session> session = engine.CreateSession();
      EXPECT_TRUE(session->TryExecute("BEGIN", nullptr).ok);
      FaultSpec spec;
      spec.kind = FaultKind::kDeadline;
      spec.hits_before = k;
      ScopedFault fault("cancel.poll", spec);
      Cancellation token;
      if (session->TryExecute(statement, nullptr, &token).ok) return k;
    }
    return -1;
  };
  // 1 pre-lock poll + polls at rows 0, 1024 and 2048.
  EXPECT_EQ(polls_of("DELETE FROM big WHERE k = 5"), 4);
  EXPECT_EQ(polls_of("UPDATE big SET k = 0 WHERE k < 10"), 4);
  // big.g is indexed for the view's join: a 30-row bucket, one poll.
  EXPECT_EQ(polls_of("DELETE FROM big WHERE g = 7"), 2);
  EXPECT_EQ(polls_of("UPDATE big SET k = 0 WHERE g = 7 AND k < 100"), 2);
}

// An ad-hoc SELECT over base tables runs the full SPJ evaluator under the
// shared lock; its join steps and batches poll the statement's token, so a
// deadline (or a drain force-cancel) stops it mid-evaluation instead of
// only before the lock.
TEST(DeadlineUnwindPropertyTest, AdHocJoinSelectPollsDuringEvaluation) {
  const std::string select = "SELECT a, d FROM r, s WHERE b = c";
  Engine engine;
  engine.ExecuteScript(kPreamble);
  Engine shadow;
  shadow.ExecuteScript(kPreamble);
  const std::string expected = engine.Execute(select).ToString();
  int completed_at = -1;
  for (int k = 0; k < 64; ++k) {
    std::unique_ptr<sql::Session> session = engine.CreateSession();
    sql::Result rows;
    Status status;
    {
      FaultSpec spec;
      spec.kind = FaultKind::kDeadline;
      spec.hits_before = k;
      ScopedFault fault("cancel.poll", spec);
      Cancellation token;
      status = session->TryExecute(select, &rows, &token);
    }
    ExpectSameVisibleState(engine, shadow);
    if (status.ok) {
      EXPECT_EQ(rows.ToString(), expected);
      completed_at = k;
      break;
    }
    ASSERT_EQ(status.kind, Status::Kind::kDeadlineExceeded) << status.message;
  }
  // The pre-lock poll, then at least one per join step.
  EXPECT_GE(completed_at, 3) << "the evaluation itself must poll";
}

TEST(DeadlineUnwindPropertyTest, AbortedCommitKeepsTransactionIntegrity) {
  // A BEGIN…COMMIT whose COMMIT dies at each poll point: the staged
  // transaction must be fully preserved (still pending, retryable), and
  // nothing of it may be visible.
  int completed_at = -1;
  for (int k = 0; k < 64; ++k) {
    Engine engine;
    engine.ExecuteScript(kPreamble);
    Engine shadow;
    shadow.ExecuteScript(kPreamble);
    std::unique_ptr<sql::Session> session = engine.CreateSession();
    ASSERT_TRUE(session->TryExecute("BEGIN", nullptr).ok);
    ASSERT_TRUE(
        session->TryExecute("INSERT INTO r VALUES (9, 10)", nullptr).ok);
    ASSERT_TRUE(session->TryExecute("DELETE FROM s WHERE c = 30", nullptr).ok);

    Status status;
    {
      FaultSpec spec;
      spec.kind = FaultKind::kDeadline;
      spec.hits_before = k;
      ScopedFault fault("cancel.poll", spec);
      Cancellation token;
      status = session->TryExecute("COMMIT", nullptr, &token);
    }

    if (status.ok) {
      shadow.ExecuteScript(
          "BEGIN; INSERT INTO r VALUES (9, 10);"
          "DELETE FROM s WHERE c = 30; COMMIT;");
      ExpectSameVisibleState(engine, shadow);
      completed_at = k;
      break;
    }
    ASSERT_EQ(status.kind, Status::Kind::kDeadlineExceeded) << status.message;
    ExpectSameVisibleState(engine, shadow);  // nothing leaked
    EXPECT_TRUE(session->in_transaction());  // still pending…
    ASSERT_TRUE(session->TryExecute("COMMIT", nullptr).ok);  // …and retryable
    shadow.ExecuteScript(
        "BEGIN; INSERT INTO r VALUES (9, 10);"
        "DELETE FROM s WHERE c = 30; COMMIT;");
    ExpectSameVisibleState(engine, shadow);
  }
  EXPECT_GE(completed_at, 1);
}

}  // namespace
}  // namespace mview
