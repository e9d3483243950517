// TPC-H-style differential gate for the ordered-query stack: a scaled-down
// customer/orders/lineitem database (tests/test_util.h generators), with
// multi-join + GROUP BY + HAVING + ORDER BY/LIMIT SQL queries shaped after
// the TPC-H workload, each executed under
//
//   * the definitional evaluator (use_physical_exec = false) — the oracle,
//   * the default physical plans (in-memory hash joins and sorts),
//   * forced spill (sort_spill_bytes = 64): every sort merges runs and
//     every hash join joins its build chunk by chunk,
//
// and asserted bag-identical across all three.  The ORDER BY columns double
// as a determinism check: re-running a query must emit the same relation.

#include <gtest/gtest.h>

#include "mra/lang/interpreter.h"
#include "mra/sql/sql_parser.h"
#include "mra/sql/translator.h"
#include "test_util.h"

namespace mra {
namespace sql {
namespace {

using ::mra::testing::TpchMiniDb;

// Loads one generated relation into `db` via a literal-insert statement —
// the same path a translated INSERT takes, but without rendering several
// hundred rows (dates, decimals) back into SQL literal text.
void Load(Database* db, const Relation& rel) {
  ASSERT_OK(db->CreateRelation(rel.schema()));
  lang::Interpreter interp(db);
  auto txn_or = db->Begin();
  ASSERT_OK(txn_or);
  lang::Stmt stmt;
  stmt.kind = lang::Stmt::Kind::kInsert;
  stmt.target = rel.schema().name();
  auto node = std::make_shared<lang::RelExpr>();
  node->kind = lang::RelExpr::Kind::kLiteral;
  node->literal = rel;
  stmt.expr = std::move(node);
  ASSERT_OK(interp.ExecuteStmt(stmt, **txn_or, nullptr));
  ASSERT_OK((*txn_or)->Commit());
}

// The workload: joins across all three tables, aggregation, HAVING, and
// ORDER BY ... LIMIT — every query ends in an ordering so the sort node
// is on the critical path of each plan.
const char* const kQueries[] = {
    // Q1-like: pricing summary per return flag.
    "SELECT returnflag, COUNT(*) AS n, SUM(extprice) AS revenue "
    "FROM lineitem WHERE shipdate < DATE '1994-09-02' "
    "GROUP BY returnflag ORDER BY returnflag",
    // Q3-like: top orders by revenue.
    "SELECT orderkey, SUM(extprice) AS revenue, orderdate "
    "FROM orders, lineitem WHERE orderkey = l_orderkey "
    "GROUP BY orderkey, orderdate "
    "ORDER BY revenue DESC, orderdate LIMIT 10",
    // Q5-like: revenue per nation through a 3-way join.
    "SELECT nation, SUM(extprice) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE custkey = o_custkey AND orderkey = l_orderkey "
    "GROUP BY nation ORDER BY revenue DESC",
    // Q13-like: order counts per customer, aliased ordering key.
    "SELECT custkey, COUNT(*) AS c_count "
    "FROM customer, orders WHERE custkey = o_custkey "
    "GROUP BY custkey ORDER BY c_count DESC, custkey LIMIT 15",
    // HAVING + ORDER BY on a group key: big-ticket priorities only.
    "SELECT priority, COUNT(*) AS n FROM orders "
    "GROUP BY priority HAVING SUM(totalprice) > 1000 "
    "ORDER BY priority DESC",
    // Plain scan ordering with a compound key and weighted LIMIT: the
    // Top-K heap rides directly on base-table multiplicities.
    "SELECT * FROM lineitem ORDER BY shipdate, l_orderkey DESC LIMIT 25",
    // DISTINCT below the sort: ordering applies to the deduplicated bag.
    "SELECT DISTINCT nation FROM customer ORDER BY nation DESC",
};

class TpchMiniTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    TpchMiniDb data(GetParam());
    Load(db_.get(), data.customer);
    Load(db_.get(), data.orders);
    Load(db_.get(), data.lineitem);
  }

  Result<Relation> RunOne(const std::string& query,
                          const ExecConfig& config) {
    SqlSession session(db_.get(), config);
    MRA_ASSIGN_OR_RETURN(std::vector<Relation> results,
                         session.ExecuteCollect(query));
    if (results.size() != 1) {
      return Status::Internal("expected one result set");
    }
    return results[0];
  }

  std::unique_ptr<Database> db_;
};

TEST_P(TpchMiniTest, AllPlanShapesAgreeWithDefinitionalEvaluation) {
  ExecConfig definitional;
  definitional.exec.use_physical_exec = false;
  ExecConfig hash_plan;
  ExecConfig spill_plan;
  spill_plan.exec.sort_spill_bytes = 64;

  for (const char* query : kQueries) {
    auto oracle = RunOne(query, definitional);
    ASSERT_OK(oracle);
    struct Named {
      const char* label;
      const ExecConfig* config;
    };
    for (const Named& plan :
         {Named{"hash", &hash_plan}, Named{"hash+spill", &spill_plan}}) {
      auto got = RunOne(query, *plan.config);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *oracle)
          << "plan " << plan.label << " diverged on:\n  " << query;
    }
    // Determinism: the ordered query re-runs to the identical bag.
    auto again = RunOne(query, hash_plan);
    ASSERT_OK(again);
    EXPECT_REL_EQ(*again, *oracle) << "rerun diverged on:\n  " << query;
  }
}

TEST_P(TpchMiniTest, LimitIsAWeightedPrefixOfTheFullOrder) {
  // LIMIT k agrees with the unlimited query: every limited row must appear
  // in the full result with at least its multiplicity, and the limited
  // weighted size is exactly min(k, full size).
  ExecConfig config;
  auto full = RunOne(
      "SELECT orderkey, totalprice FROM orders ORDER BY totalprice DESC",
      config);
  ASSERT_OK(full);
  auto limited = RunOne(
      "SELECT orderkey, totalprice FROM orders "
      "ORDER BY totalprice DESC LIMIT 7",
      config);
  ASSERT_OK(limited);
  EXPECT_EQ(limited->size(), std::min<uint64_t>(7, full->size()));
  for (const auto& [tuple, count] : *limited) {
    EXPECT_GE(full->Multiplicity(tuple), count)
        << "limited row not in full order: " << tuple.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TpchMiniTest,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

// --- Front-end details the sweep cannot see. -----------------------------

class TpchFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    TpchMiniDb data(99, /*num_customers=*/5, /*num_orders=*/10);
    Load(db_.get(), data.customer);
    Load(db_.get(), data.orders);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(TpchFrontEndTest, OrderByResolvesAliasColumnAndQualifiedName) {
  SqlSession session(db_.get());
  EXPECT_OK(session.ExecuteCollect(
      "SELECT custkey AS k FROM customer ORDER BY k").status());
  EXPECT_OK(session.ExecuteCollect(
      "SELECT custkey, name FROM customer ORDER BY name DESC").status());
  EXPECT_OK(session.ExecuteCollect(
      "SELECT * FROM customer ORDER BY customer.acctbal").status());
  EXPECT_OK(session.ExecuteCollect(
      "SELECT nation, COUNT(*) AS n FROM customer "
      "GROUP BY nation ORDER BY n DESC, nation LIMIT 3").status());
}

TEST_F(TpchFrontEndTest, OrderByRejectsColumnsOutsideTheOutput) {
  SqlSession session(db_.get());
  // `name` was projected away: ORDER BY sees the output frame only.
  auto s = session.ExecuteCollect(
      "SELECT custkey FROM customer ORDER BY name");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("not in the select list"),
            std::string::npos);
  // Aggregates are addressable by alias only.
  EXPECT_FALSE(session.ExecuteCollect(
      "SELECT nation, COUNT(*) AS n FROM customer "
      "GROUP BY nation ORDER BY acctbal").ok());
}

TEST_F(TpchFrontEndTest, LimitZeroAndNegativeAreRejected) {
  SqlSession session(db_.get());
  EXPECT_FALSE(session.ExecuteCollect(
      "SELECT * FROM customer LIMIT 0").ok());
  EXPECT_FALSE(session.ExecuteCollect(
      "SELECT * FROM customer LIMIT -3").ok());
}

TEST_F(TpchFrontEndTest, TranslationRendersASortNode) {
  auto stmts = ParseSql(
      "SELECT custkey FROM customer ORDER BY custkey DESC LIMIT 4");
  ASSERT_OK(stmts);
  auto translated =
      TranslateStatement((*stmts)[0], db_->catalog());
  ASSERT_OK(translated);
  std::string text = translated->ToString();
  EXPECT_NE(text.find("sort([-%1]"), std::string::npos) << text;
  EXPECT_NE(text.find(", 4)"), std::string::npos) << text;
}

}  // namespace
}  // namespace sql
}  // namespace mra
