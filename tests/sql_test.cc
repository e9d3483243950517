// Tests for the SQL front end: parsing, translation into the algebra (the
// paper's "formal background for SQL" claim, with Examples 3.2 and 4.1 as
// the reference translations) and end-to-end execution.

#include <gtest/gtest.h>

#include <string>

#include "mra/common/limits.h"
#include "mra/sql/sql_parser.h"
#include "mra/sql/translator.h"
#include "test_util.h"

namespace mra {
namespace sql {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    session_ = std::make_unique<SqlSession>(db_.get());
    ASSERT_OK(session_->Execute(
        "CREATE TABLE beer (name STRING, brewery STRING, alcperc REAL);"
        "CREATE TABLE brewery (name STRING, city STRING, country STRING);"
        "INSERT INTO beer VALUES"
        "  ('pils', 'Guineken', 5.0), ('pils', 'Guineken', 5.0),"
        "  ('dubbel', 'Guineken', 6.5), ('dubbel', 'Bavapils', 7.0),"
        "  ('stout', 'Kirin', 4.2);"
        "INSERT INTO brewery VALUES"
        "  ('Guineken', 'Amsterdam', 'NL'), ('Bavapils', 'Lieshout', 'NL'),"
        "  ('Kirin', 'Tokyo', 'JP');"));
  }

  Result<Relation> One(const std::string& sql) {
    MRA_ASSIGN_OR_RETURN(std::vector<Relation> results,
                         session_->ExecuteCollect(sql));
    if (results.size() != 1) {
      return Status::Internal("expected one result set");
    }
    return results[0];
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlTest, ParserHandlesStatementKinds) {
  auto stmts = ParseSql(
      "SELECT * FROM t;"
      "SELECT DISTINCT a, b FROM t WHERE x = 1 GROUP BY a, b;"
      "INSERT INTO t VALUES (1, 'x');"
      "UPDATE t SET a = a + 1 WHERE b < 2;"
      "DELETE FROM t WHERE a <> 0;"
      "CREATE TABLE t (a INT, b VARCHAR(20));"
      "DROP TABLE t;"
      "BEGIN; COMMIT; ROLLBACK;");
  ASSERT_OK(stmts);
  EXPECT_EQ(stmts->size(), 10u);
  EXPECT_TRUE(std::holds_alternative<SelectStmt>((*stmts)[0]));
  EXPECT_TRUE(std::holds_alternative<InsertStmt>((*stmts)[2]));
  EXPECT_TRUE(std::holds_alternative<UpdateStmt>((*stmts)[3]));
  EXPECT_TRUE(std::holds_alternative<DeleteStmt>((*stmts)[4]));
  EXPECT_TRUE(std::holds_alternative<CreateTableStmt>((*stmts)[5]));
  EXPECT_TRUE(std::holds_alternative<DropTableStmt>((*stmts)[6]));
  EXPECT_EQ(std::get<TxnControl>((*stmts)[7]), TxnControl::kBegin);
}

TEST_F(SqlTest, ParserKeywordsCaseInsensitive) {
  EXPECT_OK(ParseSql("select * from beer where name = 'pils'"));
  EXPECT_OK(ParseSql("SeLeCt * FrOm beer"));
}

TEST_F(SqlTest, ParserRejectsMalformed) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t (1)").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t SELECT").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(*) FROM t").ok());
}

TEST_F(SqlTest, SelectStarPreservesDuplicates) {
  auto result = One("SELECT * FROM beer");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 5u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("pils"),
                                        Value::Str("Guineken"),
                                        Value::Real(5.0)})),
            2u);
}

TEST_F(SqlTest, ProjectionKeepsDuplicatesWithoutDistinct) {
  // SQL bag semantics: SELECT name keeps duplicates, DISTINCT removes.
  auto bag = One("SELECT name FROM beer");
  ASSERT_OK(bag);
  EXPECT_EQ(bag->size(), 5u);
  auto set = One("SELECT DISTINCT name FROM beer");
  ASSERT_OK(set);
  EXPECT_EQ(set->size(), 3u);
}

TEST_F(SqlTest, WhereAndQualifiedColumns) {
  auto result = One(
      "SELECT beer.name FROM beer, brewery"
      " WHERE beer.brewery = brewery.name AND brewery.country = 'NL'");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 4u);  // Example 3.1 in SQL
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("dubbel")})), 2u);
}

TEST_F(SqlTest, AmbiguousColumnRejected) {
  // `name` exists in both tables.
  EXPECT_EQ(One("SELECT name FROM beer, brewery").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, UnknownColumnAndTableRejected) {
  EXPECT_EQ(One("SELECT ghost FROM beer").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(One("SELECT * FROM ghost").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SqlTest, Example32GroupByAvg) {
  // The paper's own SQL equivalent of Example 3.2.
  auto result = One(
      "SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Str("NL"), Value::Real(5.875)})),
            1u);
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Str("JP"), Value::Real(4.2)})),
            1u);
}

TEST_F(SqlTest, AggregateSelectListOrderRespected) {
  auto result = One(
      "SELECT AVG(alcperc) AS a, country FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country");
  ASSERT_OK(result);
  EXPECT_EQ(result->schema().attribute(0).name, "a");
  EXPECT_EQ(result->schema().attribute(1).name, "country");
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Real(5.875), Value::Str("NL")})),
            1u);
}

TEST_F(SqlTest, CountStarAndGlobalAggregates) {
  auto result = One("SELECT COUNT(*) FROM beer");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Int(5)})), 1u);
  auto minmax = One("SELECT MIN(alcperc), MAX(alcperc) FROM beer");
  ASSERT_OK(minmax);
  EXPECT_EQ(minmax->Multiplicity(
                Tuple({Value::Real(4.2), Value::Real(7.0)})),
            1u);
}

TEST_F(SqlTest, NonGroupedColumnRejected) {
  EXPECT_EQ(One("SELECT city, AVG(alcperc) FROM beer, brewery"
                " WHERE beer.brewery = brewery.name GROUP BY country")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, Example41Update) {
  // UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Guineken'.
  ASSERT_OK(session_->Execute(
      "UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Guineken'"));
  auto result = One("SELECT alcperc FROM beer WHERE name = 'pils'");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Real(5.0 * 1.1)})), 2u);
  // Non-matching rows untouched.
  auto stout = One("SELECT alcperc FROM beer WHERE name = 'stout'");
  ASSERT_OK(stout);
  EXPECT_EQ(stout->Multiplicity(Tuple({Value::Real(4.2)})), 1u);
}

TEST_F(SqlTest, UpdateTranslationMatchesPaperForm) {
  // The translated statement must be exactly Example 4.1's
  // update(beer, select(...), [...]) shape.
  auto stmts = ParseSql(
      "UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Guineken'");
  ASSERT_OK(stmts);
  auto translated = TranslateStatement((*stmts)[0], db_->catalog());
  ASSERT_OK(translated);
  EXPECT_EQ(translated->ToString(),
            "update(beer, select((%2 = 'Guineken'), beer), "
            "[%1, %2, (%3 * 1.1)])");
}

TEST_F(SqlTest, SelectTranslationShowsAlgebraForm) {
  auto stmts = ParseSql(
      "SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country");
  ASSERT_OK(stmts);
  auto translated = TranslateStatement((*stmts)[0], db_->catalog());
  ASSERT_OK(translated);
  EXPECT_EQ(translated->ToString(),
            "? groupby([%6], avg(%3), "
            "select((%2 = %4), product(beer, brewery)))");
}

TEST_F(SqlTest, DeleteWithAndWithoutWhere) {
  ASSERT_OK(session_->Execute("DELETE FROM beer WHERE name = 'pils'"));
  auto rest = One("SELECT COUNT(*) FROM beer");
  ASSERT_OK(rest);
  EXPECT_EQ(rest->Multiplicity(Tuple({Value::Int(3)})), 1u);
  ASSERT_OK(session_->Execute("DELETE FROM beer"));
  auto none = One("SELECT COUNT(*) FROM beer");
  ASSERT_OK(none);
  EXPECT_EQ(none->Multiplicity(Tuple({Value::Int(0)})), 1u);
}

TEST_F(SqlTest, InsertCoercesWideningLiterals) {
  ASSERT_OK(session_->Execute(
      "CREATE TABLE price (item STRING, cost DECIMAL, weight REAL);"
      "INSERT INTO price VALUES ('hop', 3, 2)"));  // int → decimal, real
  auto result = One("SELECT cost, weight FROM price");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Decimal(3), Value::Real(2.0)})),
            1u);
  // Narrowing (string into real) is rejected and nothing is inserted.
  EXPECT_EQ(session_->Execute("INSERT INTO price VALUES ('x', 'y', 'z')")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(SqlTest, InsertArityMismatchRejected) {
  EXPECT_EQ(session_->Execute("INSERT INTO beer VALUES ('a', 'b')").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, ExplicitTransactionCommitAndRollback) {
  ASSERT_OK(session_->Execute(
      "BEGIN;"
      "DELETE FROM beer;"
      "ROLLBACK;"));
  EXPECT_EQ(One("SELECT COUNT(*) FROM beer")
                ->Multiplicity(Tuple({Value::Int(5)})),
            1u);
  ASSERT_OK(session_->Execute(
      "BEGIN;"
      "DELETE FROM beer WHERE name = 'stout';"
      "COMMIT;"));
  EXPECT_EQ(One("SELECT COUNT(*) FROM beer")
                ->Multiplicity(Tuple({Value::Int(4)})),
            1u);
}

TEST_F(SqlTest, ReadYourOwnWritesInsideTransaction) {
  std::vector<Relation> results;
  ASSERT_OK(session_->Execute(
      "BEGIN;"
      "INSERT INTO beer VALUES ('tripel', 'Guineken', 9.5);"
      "SELECT COUNT(*) FROM beer;"
      "ROLLBACK;",
      [&results](const std::string&, const Relation& r) {
        results.push_back(r);
      }));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].Multiplicity(Tuple({Value::Int(6)})), 1u);
  // And the rollback removed it again.
  EXPECT_EQ(One("SELECT COUNT(*) FROM beer")
                ->Multiplicity(Tuple({Value::Int(5)})),
            1u);
}

TEST_F(SqlTest, FailingStatementAbortsExplicitTransaction) {
  Status s = session_->Execute(
      "BEGIN;"
      "DELETE FROM beer;"
      "SELECT * FROM ghost;");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(One("SELECT COUNT(*) FROM beer")
                ->Multiplicity(Tuple({Value::Int(5)})),
            1u);
}

TEST_F(SqlTest, TxnControlErrors) {
  EXPECT_EQ(session_->Execute("COMMIT").code(), StatusCode::kTxnError);
  EXPECT_EQ(session_->Execute("ROLLBACK").code(), StatusCode::kTxnError);
  ASSERT_OK(session_->Execute("BEGIN"));
  EXPECT_EQ(session_->Execute("BEGIN").code(), StatusCode::kTxnError);
  EXPECT_EQ(session_->Execute("CREATE TABLE t (x INT)").code(),
            StatusCode::kTxnError);
  ASSERT_OK(session_->Execute("ROLLBACK"));
}

TEST_F(SqlTest, ArithmeticAndBooleanExpressions) {
  auto result = One(
      "SELECT name, alcperc * 2 + 1 FROM beer"
      " WHERE NOT (alcperc < 5.0) AND (name = 'pils' OR name = 'dubbel')");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Str("pils"), Value::Real(11.0)})),
            2u);
  EXPECT_EQ(result->size(), 4u);
}

TEST_F(SqlTest, DateAndDecimalLiterals) {
  ASSERT_OK(session_->Execute(
      "CREATE TABLE batch (brewed DATE, cost DECIMAL);"
      "INSERT INTO batch VALUES (DATE '1994-02-14', DECIMAL '19.99')"));
  auto result = One("SELECT * FROM batch WHERE brewed < DATE '2000-01-01'");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(SqlTest, HavingFiltersGroups) {
  // σ over Γ: countries averaging above 5.0.
  auto result = One(
      "SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country"
      " HAVING AVG(alcperc) > 5.0");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 1u);  // NL (5.875) stays, JP (4.2) drops
  EXPECT_EQ(result->Multiplicity(
                Tuple({Value::Str("NL"), Value::Real(5.875)})),
            1u);
}

TEST_F(SqlTest, HavingWithHiddenAggregate) {
  // The HAVING aggregate (COUNT) is not in the select list: a hidden
  // aggregate is added to Γ and projected away afterwards.
  auto result = One(
      "SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country"
      " HAVING COUNT(*) > 1");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 1u);  // only NL has more than one beer
  EXPECT_EQ(result->schema().arity(), 2u);  // hidden COUNT projected away
}

TEST_F(SqlTest, HavingMayReferenceGroupedColumns) {
  auto result = One(
      "SELECT country, COUNT(*) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country"
      " HAVING country <> 'JP' AND COUNT(*) >= 1");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("NL"), Value::Int(4)})),
            1u);
}

TEST_F(SqlTest, HavingErrors) {
  // HAVING without grouping/aggregates.
  EXPECT_EQ(One("SELECT name FROM beer HAVING COUNT(*) > 1").status().code(),
            StatusCode::kInvalidArgument);
  // Non-grouped column inside HAVING.
  EXPECT_EQ(One("SELECT country, COUNT(*) FROM beer, brewery"
                " WHERE beer.brewery = brewery.name GROUP BY country"
                " HAVING city = 'Tokyo'")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Aggregates are not allowed in WHERE.
  EXPECT_EQ(One("SELECT name FROM beer WHERE COUNT(*) > 1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, HavingTranslationShape) {
  auto stmts = ParseSql(
      "SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country"
      " HAVING AVG(alcperc) > 5.0");
  ASSERT_OK(stmts);
  auto translated = TranslateStatement((*stmts)[0], db_->catalog());
  ASSERT_OK(translated);
  EXPECT_EQ(translated->ToString(),
            "? select((%2 > 5.0), groupby([%6], avg(%3), "
            "select((%2 = %4), product(beer, brewery))))");
}

TEST_F(SqlTest, ExplainSelectRendersPlans) {
  auto rel = One("EXPLAIN SELECT * FROM beer WHERE alcperc > 5.0");
  ASSERT_OK(rel);
  EXPECT_EQ(rel->schema().name(), "explain");
  ASSERT_EQ(rel->distinct_size(), 1u);
  const std::string& text = rel->begin()->first.at(0).string_value();
  EXPECT_NE(text.find("logical plan:"), std::string::npos);
  EXPECT_NE(text.find("physical plan:"), std::string::npos);
  EXPECT_EQ(text.find("analyzed"), std::string::npos);
}

TEST_F(SqlTest, ExplainAnalyzeSelectExecutesAndReportsActuals) {
  auto rel = One(
      "EXPLAIN ANALYZE SELECT country, AVG(alcperc) FROM beer, brewery"
      " WHERE beer.brewery = brewery.name GROUP BY country");
  ASSERT_OK(rel);
  EXPECT_EQ(rel->schema().name(), "explain");
  const std::string& text = rel->begin()->first.at(0).string_value();
  EXPECT_NE(text.find("physical plan (analyzed):"), std::string::npos);
  EXPECT_NE(text.find("est="), std::string::npos);
  EXPECT_NE(text.find("actual rows="), std::string::npos);
}

TEST_F(SqlTest, ExplainRequiresSelect) {
  EXPECT_FALSE(ParseSql("EXPLAIN DROP TABLE beer").ok());
}

TEST_F(SqlTest, DropTable) {
  ASSERT_OK(session_->Execute("DROP TABLE brewery"));
  EXPECT_EQ(One("SELECT * FROM brewery").status().code(),
            StatusCode::kNotFound);
}

// --- Depth cap (kMaxParseDepth). ---

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// `SELECT name FROM beer WHERE C` whose WHERE tree is `depth` levels deep:
// each shape of C adds its nesting above `alcperc > 0` (two levels).
std::string DeepSelect(const std::string& shape, int depth) {
  const int n = depth - 2;
  std::string cond;
  if (shape == "chain") cond = "alcperc" + Repeat(" + 1", n) + " > 0";
  if (shape == "parens") {
    cond = Repeat("(", n) + "alcperc > 0" + Repeat(")", n);
  }
  if (shape == "not") cond = Repeat("NOT ", n) + "alcperc > 0";
  if (shape == "and") cond = "alcperc > 0" + Repeat(" AND alcperc > 0", n);
  return "SELECT name FROM beer WHERE " + cond;
}

class SqlParseDepthTest : public SqlTest,
                          public ::testing::WithParamInterface<const char*> {
};

TEST_P(SqlParseDepthTest, DeepestAcceptedTreeEvaluatesAndTheCapIsRefused) {
  auto deepest = session_->ExecuteCollect(
      DeepSelect(GetParam(), kMaxParseDepth - 1));
  ASSERT_OK(deepest);
  ASSERT_EQ(deepest->size(), 1u);

  for (int depth : {kMaxParseDepth, 100000}) {
    SCOPED_TRACE(depth);
    auto refused = ParseSql(DeepSelect(GetParam(), depth));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
    EXPECT_NE(refused.status().message().find(
                  std::to_string(kMaxParseDepth) + " levels"),
              std::string::npos)
        << refused.status().ToString();
    EXPECT_EQ(session_->Execute(DeepSelect(GetParam(), depth)).code(),
              StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SqlParseDepthTest,
                         ::testing::Values("chain", "parens", "not", "and"));

// A FROM list of n tables translates to a product chain n levels deep.
TEST(SqlParseDepth, FromListSharesTheDepthCap) {
  auto from = [](int tables) {
    return "SELECT * FROM t" + Repeat(", t", tables - 1);
  };
  ASSERT_OK(ParseSql(from(kMaxParseDepth - 1)));
  for (int tables : {kMaxParseDepth, 100000}) {
    EXPECT_EQ(ParseSql(from(tables)).status().code(),
              StatusCode::kParseError)
        << tables;
  }
}

}  // namespace
}  // namespace sql
}  // namespace mra
