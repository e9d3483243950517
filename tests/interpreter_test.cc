// End-to-end tests for the XRA interpreter: §4's statements, programs and
// transactions running against a database, including the paper's worked
// examples in their textual form.

#include "mra/lang/interpreter.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mra {
namespace lang {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    interp_ = std::make_unique<Interpreter>(db_.get());
    ASSERT_OK(interp_->ExecuteScript(
        "create beer(name: string, brewery: string, alcperc: real);"
        "create brewery(name: string, city: string, country: string);"
        "insert(beer, {('pils', 'Guineken', 5.0) : 2,"
        "              ('dubbel', 'Guineken', 6.5),"
        "              ('dubbel', 'Bavapils', 7.0),"
        "              ('stout', 'Kirin', 4.2)});"
        "insert(brewery, {('Guineken', 'Amsterdam', 'NL'),"
        "                 ('Bavapils', 'Lieshout', 'NL'),"
        "                 ('Kirin', 'Tokyo', 'JP')});",
        nullptr));
  }

  Result<Relation> Query(const std::string& text) {
    return interp_->Query(text);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
};

TEST_F(InterpreterTest, Example31DutchBeerNames) {
  auto result = Query(
      "project([%1], select(%6 = 'NL', join(%2 = %4, beer, brewery)))");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 4u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("dubbel")})), 2u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("pils")})), 2u);
}

TEST_F(InterpreterTest, Example32AvgAlcPerCountry) {
  auto full = Query(
      "groupby([%6], avg(%3), join(%2 = %4, beer, brewery))");
  ASSERT_OK(full);
  auto early = Query(
      "groupby([%2], avg(%1),"
      " project([%3, %6], join(%2 = %4, beer, brewery)))");
  ASSERT_OK(early);
  // Bag semantics: both forms agree (the point of Example 3.2).
  EXPECT_REL_EQ(*full, *early);
  EXPECT_EQ(full->Multiplicity(
                Tuple({Value::Str("NL"), Value::Real(5.875)})),
            1u);
  EXPECT_EQ(full->Multiplicity(
                Tuple({Value::Str("JP"), Value::Real(4.2)})),
            1u);
}

TEST_F(InterpreterTest, Example41GuinekenUpdate) {
  // update(beer, σ_{brewery='Guineken'} beer, (name, brewery, alcperc*1.1)).
  ASSERT_OK(interp_->ExecuteScript(
      "update(beer, select(%2 = 'Guineken', beer), [%1, %2, %3 * 1.1]);",
      nullptr));
  auto result = Query("select(%2 = 'Guineken', beer)");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("pils"),
                                        Value::Str("Guineken"),
                                        Value::Real(5.0 * 1.1)})),
            2u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Str("dubbel"),
                                        Value::Str("Guineken"),
                                        Value::Real(6.5 * 1.1)})),
            1u);
  // Kirin untouched.
  auto other = Query("select(%2 = 'Kirin', beer)");
  ASSERT_OK(other);
  EXPECT_EQ(other->Multiplicity(Tuple({Value::Str("stout"),
                                       Value::Str("Kirin"),
                                       Value::Real(4.2)})),
            1u);
}

TEST_F(InterpreterTest, InsertAccumulatesPerDefinition41) {
  // insert is ⊎, so inserting an existing tuple raises its multiplicity.
  ASSERT_OK(interp_->ExecuteScript(
      "insert(beer, {('pils', 'Guineken', 5.0)});", nullptr));
  auto result = Query("select(%1 = 'pils', beer)");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 3u);
}

TEST_F(InterpreterTest, DeleteSubtractsMultiplicities) {
  ASSERT_OK(interp_->ExecuteScript(
      "delete(beer, {('pils', 'Guineken', 5.0)});", nullptr));
  auto result = Query("select(%1 = 'pils', beer)");
  ASSERT_OK(result);
  EXPECT_EQ(result->size(), 1u);  // one of the two copies removed
}

TEST_F(InterpreterTest, QueryCallbackReceivesResults) {
  std::vector<std::string> queries;
  std::vector<uint64_t> sizes;
  ASSERT_OK(interp_->ExecuteScript("? beer; ? brewery;",
                                   [&](const std::string& q,
                                       const Relation& r) {
                                     queries.push_back(q);
                                     sizes.push_back(r.size());
                                   }));
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0], "? beer");
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], 3u);
}

TEST_F(InterpreterTest, AssignmentCreatesTemporaries) {
  auto results = interp_->ExecuteScriptCollect(
      "begin"
      "  nl := select(%3 = 'NL', brewery);"
      "  ? join(%2 = %4, beer, nl)"
      " end;");
  ASSERT_OK(results);
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].size(), 4u);
}

TEST_F(InterpreterTest, TemporariesVanishAfterTransaction) {
  ASSERT_OK(interp_->ExecuteScript(
      "begin x := beer; ? x end;", nullptr));
  // x is gone in the next bracket.
  EXPECT_EQ(interp_->ExecuteScriptCollect("? x;").status().code(),
            StatusCode::kNotFound);
}

TEST_F(InterpreterTest, AssignmentCannotShadowDatabaseRelation) {
  EXPECT_EQ(interp_->ExecuteScript("beer := brewery;", nullptr).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(InterpreterTest, TransactionAtomicityOnFailure) {
  // The second statement fails (unknown relation); the first must roll
  // back (Definition 4.3: T(D) = D on abort).
  Status s = interp_->ExecuteScript(
      "begin"
      "  delete(beer, beer);"
      "  insert(ghost, {(1)})"
      " end;",
      nullptr);
  EXPECT_FALSE(s.ok());
  auto beer = Query("beer");
  ASSERT_OK(beer);
  EXPECT_EQ(beer->size(), 5u);  // delete rolled back
}

TEST_F(InterpreterTest, FailedAutocommitStatementHasNoEffect) {
  // Division by zero inside the update's α aborts the statement.
  Status s = interp_->ExecuteScript(
      "update(beer, beer, [%1, %2, %3 / (%3 - %3)]);", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kEvalError);
  auto beer = Query("beer");
  ASSERT_OK(beer);
  EXPECT_EQ(beer->Multiplicity(Tuple({Value::Str("stout"),
                                      Value::Str("Kirin"),
                                      Value::Real(4.2)})),
            1u);
}

TEST_F(InterpreterTest, UpdateRequiresStructurePreservingAlpha) {
  // α yielding (string, string) for a (string, string, real) relation.
  Status s = interp_->ExecuteScript(
      "update(beer, beer, [%1, %2]);", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(InterpreterTest, LogicalTimeAdvancesPerTransaction) {
  uint64_t t0 = db_->logical_time();
  ASSERT_OK(interp_->ExecuteScript(
      "begin insert(beer, {('x', 'Kirin', 1.0)});"
      " delete(beer, {('x', 'Kirin', 1.0)}) end;",
      nullptr));
  EXPECT_EQ(db_->logical_time(), t0 + 1);  // one bracket → one transition
}

TEST_F(InterpreterTest, DdlInsideTransactionRejected) {
  EXPECT_EQ(interp_->ExecuteScript(
                    "begin create t(x: int); insert(t, {(1)}) end;", nullptr)
                .code(),
            StatusCode::kTxnError);
}

TEST_F(InterpreterTest, ReferenceAndPhysicalModesAgree) {
  Interpreter::Options reference_options;
  reference_options.exec.use_physical_exec = false;
  reference_options.planner.optimize = false;
  Interpreter reference(db_.get(), reference_options);
  const char* query =
      "groupby([%6], avg(%3), cnt(%1),"
      " join(%2 = %4, beer, brewery))";
  auto a = interp_->Query(query);
  auto b = reference.Query(query);
  ASSERT_OK(a);
  ASSERT_OK(b);
  EXPECT_REL_EQ(*a, *b);
}

TEST_F(InterpreterTest, AggregatesOverEmptyGroupsErrorCleanly) {
  EXPECT_EQ(interp_->ExecuteScriptCollect(
                    "? groupby([], avg(%3), select(%1 = 'nope', beer));")
                .status()
                .code(),
            StatusCode::kUndefined);
}

TEST_F(InterpreterTest, RelationLiteralSchemaMismatchRejected) {
  EXPECT_FALSE(
      interp_->ExecuteScript("insert(beer, {(1, 2, 3)});", nullptr).ok());
}

TEST_F(InterpreterTest, ExplainAnalyzeReportsActualsAgainstEstimates) {
  auto out = interp_->ExplainAnalyze(
      "groupby([%6], avg(%3), join(%2 = %4, beer, brewery))");
  ASSERT_OK(out);
  EXPECT_NE(out->find("logical plan:"), std::string::npos);
  EXPECT_NE(out->find("optimized plan:"), std::string::npos);
  EXPECT_NE(out->find("physical plan (analyzed):"), std::string::npos);
  EXPECT_NE(out->find("est="), std::string::npos);
  EXPECT_NE(out->find("err="), std::string::npos);
  EXPECT_NE(out->find("actual rows="), std::string::npos);
  EXPECT_NE(out->find("result: "), std::string::npos);

  // The analyzed run fills the programmatic stats, preorder, with a
  // cardinality estimate annotated on every node.
  QueryStats stats = interp_->last_query_stats();
  ASSERT_TRUE(stats.valid);
  ASSERT_FALSE(stats.operators.empty());
  EXPECT_EQ(stats.operators[0].depth, 0u);
  for (const auto& op : stats.operators) {
    EXPECT_GE(op.estimated_rows, 0.0) << op.name;
  }

  // Actual cardinalities match an independent execution of the same query.
  auto result = Query("groupby([%6], avg(%3), join(%2 = %4, beer, brewery))");
  ASSERT_OK(result);
  EXPECT_EQ(stats.result_rows, result->size());
  EXPECT_EQ(stats.operators[0].metrics.weighted_rows, result->size());
}

TEST_F(InterpreterTest, QueryStatsCaptureLastPhysicalExecution) {
  auto result = Query("join(%2 = %4, beer, brewery)");
  ASSERT_OK(result);
  const QueryStats& stats = interp_->last_query_stats();
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.result_rows, result->size());
  ASSERT_FALSE(stats.operators.empty());
  EXPECT_EQ(stats.operators[0].metrics.weighted_rows, result->size());
  // Plain queries carry estimates too: the production lowering path wires
  // the statistics estimator in, because it drives the parallel-degree
  // decision (docs/PARALLELISM.md) — not just EXPLAIN ANALYZE display.
  EXPECT_GE(stats.operators[0].estimated_rows, 0.0);
  // The hash join reports its materialised build side.
  bool saw_join = false;
  for (const auto& op : stats.operators) {
    if (op.name.find("HashJoin") != std::string::npos) {
      saw_join = true;
      EXPECT_GT(op.metrics.peak_hash_entries, 0u);
    }
  }
  EXPECT_TRUE(saw_join);
}

// EXPLAIN ANALYZE runs the plan the query runs: with the optimizer off,
// the σ stays above the ⋈ in both.
TEST_F(InterpreterTest, ExplainAnalyzeRunsTheQuerysPlanWithoutTheOptimizer) {
  ASSERT_OK(interp_->SetOption("optimize", "false"));
  const std::string q = "select(%6 = 'NL', join(%2 = %4, beer, brewery))";
  ASSERT_OK(interp_->ExplainAnalyze(q));
  const QueryStats explained = interp_->last_query_stats();
  ASSERT_TRUE(explained.valid);
  ASSERT_OK(Query(q));
  const QueryStats& queried = interp_->last_query_stats();
  ASSERT_EQ(explained.operators.size(), queried.operators.size());
  for (size_t i = 0; i < queried.operators.size(); ++i) {
    EXPECT_EQ(explained.operators[i].name, queried.operators[i].name) << i;
    EXPECT_EQ(explained.operators[i].depth, queried.operators[i].depth) << i;
  }
  EXPECT_EQ(explained.result_rows, queried.result_rows);
}

// A definitional evaluation runs no physical plan, so it leaves no stats:
// the last physical query's do not survive it.
TEST_F(InterpreterTest, DefinitionalQueryResetsQueryStats) {
  ASSERT_OK(Query("join(%2 = %4, beer, brewery)"));
  ASSERT_TRUE(interp_->last_query_stats().valid);
  ASSERT_OK(interp_->SetOption("use_physical_exec", "false"));
  ASSERT_OK(Query("select(%3 > 4.5, beer)"));
  EXPECT_FALSE(interp_->last_query_stats().valid);
  EXPECT_TRUE(interp_->last_query_stats().operators.empty());
}

TEST_F(InterpreterTest, ExplainAnalyzeStatementReturnsPlanRelation) {
  auto results = interp_->ExecuteScriptCollect(
      "explain analyze select(%3 > 4.5, beer);");
  ASSERT_OK(results);
  ASSERT_EQ(results->size(), 1u);
  const Relation& rel = (*results)[0];
  EXPECT_EQ(rel.schema().name(), "explain");
  ASSERT_EQ(rel.distinct_size(), 1u);
  const std::string& text = rel.begin()->first.at(0).string_value();
  EXPECT_NE(text.find("physical plan (analyzed):"), std::string::npos);
  EXPECT_NE(text.find("Scan"), std::string::npos);
}

TEST_F(InterpreterTest, ExplainStatementWithoutAnalyzeSkipsExecution) {
  auto results = interp_->ExecuteScriptCollect("explain select(%3 > 4.5, beer);");
  ASSERT_OK(results);
  ASSERT_EQ(results->size(), 1u);
  const std::string& text = (*results)[0].begin()->first.at(0).string_value();
  EXPECT_NE(text.find("physical plan:"), std::string::npos);
  EXPECT_EQ(text.find("analyzed"), std::string::npos);
  EXPECT_EQ(text.find("actual rows="), std::string::npos);
}

}  // namespace
}  // namespace lang
}  // namespace mra
