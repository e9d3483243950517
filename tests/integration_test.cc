// Whole-stack integration scenarios: the XRA language, the SQL front end,
// the optimizer, the physical engine, transactions and durability working
// against one database — including restart/recovery in the middle of a
// scenario.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "mra/lang/interpreter.h"
#include "mra/sql/translator.h"
#include "test_util.h"

namespace mra {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("mra_integration_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(IntegrationTest, XraAndSqlShareOneDatabase) {
  auto db = Database::Open();
  ASSERT_OK(db);
  lang::Interpreter xra(db->get());
  sql::SqlSession sql(db->get());

  // Schema + data through XRA…
  ASSERT_OK(xra.ExecuteScript(
      "create beer(name: string, brewery: string, alcperc: real);"
      "insert(beer, {('pils', 'Guineken', 5.0) : 2,"
      "              ('stout', 'Kirin', 4.2)});",
      nullptr));
  // …more data through SQL…
  ASSERT_OK(sql.Execute("INSERT INTO beer VALUES ('tripel', 'Guineken', 9.0)"));
  // …and both front ends agree on the result of the same query.
  auto via_xra = xra.Query("select(%2 = 'Guineken', beer)");
  auto via_sql = sql.ExecuteCollect(
      "SELECT * FROM beer WHERE brewery = 'Guineken'");
  ASSERT_OK(via_xra);
  ASSERT_OK(via_sql);
  ASSERT_EQ(via_sql->size(), 1u);
  EXPECT_REL_EQ(*via_xra, (*via_sql)[0]);
  EXPECT_EQ(via_xra->size(), 3u);
}

TEST(IntegrationTest, DurableScenarioSurvivesRestartMidway) {
  TempDir dir;
  // Session 1: build an inventory through SQL, mutate through XRA, crash
  // (no checkpoint) with one transaction aborted.
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    sql::SqlSession sql(db->get());
    ASSERT_OK(sql.Execute(
        "CREATE TABLE stock (item STRING, qty INT, price DECIMAL);"
        "INSERT INTO stock VALUES ('hops', 120, 3), ('malt', 80, 2),"
        "                         ('yeast', 40, 9)"));
    lang::Interpreter xra(db->get());
    // Committed bracket: sell 20 hops.
    ASSERT_OK(xra.ExecuteScript(
        "begin"
        "  delete(stock, select(%1 = 'hops', stock));"
        "  insert(stock, {('hops', 100, dec'3')})"
        " end;",
        nullptr));
    // Aborted bracket: a failing statement rolls the whole thing back.
    Status failed = xra.ExecuteScript(
        "begin delete(stock, stock); insert(missing, {(1)}) end;", nullptr);
    EXPECT_FALSE(failed.ok());
  }
  // Session 2: recover, verify, continue with SQL.
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    sql::SqlSession sql(db->get());
    auto rows = sql.ExecuteCollect("SELECT qty FROM stock WHERE item = 'hops'");
    ASSERT_OK(rows);
    EXPECT_EQ((*rows)[0].Multiplicity(Tuple({Value::Int(100)})), 1u);
    auto count = sql.ExecuteCollect("SELECT COUNT(*) FROM stock");
    ASSERT_OK(count);
    EXPECT_EQ((*count)[0].Multiplicity(Tuple({Value::Int(3)})), 1u);
    ASSERT_OK((*db)->Checkpoint());
  }
  // Session 3: recovery from the checkpoint alone.
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    EXPECT_TRUE((*db)->catalog().HasRelation("stock"));
    EXPECT_EQ((*db)->catalog().GetRelation("stock").value()->size(), 3u);
  }
}

TEST(IntegrationTest, OptimizedAndUnoptimizedAgreeOnComplexScript) {
  // The same script under four interpreter configurations must deliver the
  // same query results (int aggregates keep this bit-exact).
  const char* script =
      "create orders(customer: string, item: string, qty: int);"
      "create items(item: string, price: int);"
      "insert(orders, {('ann', 'hops', 3) : 2, ('ann', 'malt', 1),"
      "                ('bob', 'hops', 5), ('bob', 'yeast', 2) : 3});"
      "insert(items, {('hops', 10), ('malt', 7), ('yeast', 12)});"
      "? groupby([%1], sum(%3), cnt(%1),"
      "    select(%3 > 1, join(%2 = %4, orders, items)));"
      "? unique(project([%2], orders));"
      "? diff(project([%1], orders), project([%1], orders));";

  std::vector<std::vector<Relation>> outcomes;
  for (bool optimize : {false, true}) {
    for (bool physical : {false, true}) {
      auto db = Database::Open();
      ASSERT_OK(db);
      ExecConfig options;
      options.planner.optimize = optimize;
      options.exec.use_physical_exec = physical;
      lang::Interpreter interp(db->get(), options);
      auto results = interp.ExecuteScriptCollect(script);
      ASSERT_OK(results);
      outcomes.push_back(*results);
    }
  }
  for (size_t config = 1; config < outcomes.size(); ++config) {
    ASSERT_EQ(outcomes[config].size(), outcomes[0].size());
    for (size_t q = 0; q < outcomes[0].size(); ++q) {
      EXPECT_REL_EQ(outcomes[config][q], outcomes[0][q])
          << "config " << config << ", query " << q;
    }
  }
}

TEST(IntegrationTest, ParallelExecutionAgreesWithSerialResults) {
  // The same statements through a serial interpreter and through one with
  // morsel-driven parallelism forced on (workers=3, threshold dropped so
  // even this tiny input fans out) must agree bag-for-bag.
  const char* script =
      "create m(g: int, v: int);"
      "insert(m, {(1, 10) : 3, (1, 20), (2, 5) : 2, (3, 7)});";
  const char* queries[] = {
      "groupby([%1], sum(%2), m)",
      "unique(project([%1], m))",
      "join(%1 = %3, m, m)",
  };
  auto serial_db = Database::Open();
  ASSERT_OK(serial_db);
  lang::Interpreter serial(serial_db->get());
  ASSERT_OK(serial.ExecuteScript(script, nullptr));

  auto parallel_db = Database::Open();
  ASSERT_OK(parallel_db);
  ExecConfig parallel_config;
  parallel_config.exec.workers = 3;
  parallel_config.exec.parallel_threshold = 1;
  lang::Interpreter parallel(parallel_db->get(), parallel_config);
  ASSERT_OK(parallel.ExecuteScript(script, nullptr));

  for (const char* query : queries) {
    auto serial_result = serial.Query(query);
    auto parallel_result = parallel.Query(query);
    ASSERT_OK(serial_result);
    ASSERT_OK(parallel_result);
    EXPECT_REL_EQ(*serial_result, *parallel_result) << query;
  }
}

TEST(IntegrationTest, SetStatementRetunesTheSession) {
  // `set <knob> = <value>;` flips ExecConfig mid-session across both front
  // ends; an unknown knob is rejected without damaging the session.
  auto db = Database::Open();
  ASSERT_OK(db);
  lang::Interpreter xra(db->get());
  ASSERT_OK(xra.ExecuteScript(
      "create t(x: int); insert(t, {(1), (2) : 2}); set workers = 4;"
      "set parallel_threshold = 1;", nullptr));
  EXPECT_EQ(xra.options().exec.workers, 4u);
  EXPECT_EQ(xra.options().exec.parallel_threshold, 1u);
  auto rows = xra.Query("unique(project([%1], t))");
  ASSERT_OK(rows);
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_EQ(xra.ExecuteScript("set no_such_knob = 7;", nullptr).code(),
            StatusCode::kInvalidArgument);
  // Inside a bracket SET is rejected: config is not transactional.
  EXPECT_EQ(xra.ExecuteScript("begin set workers = 1 end;", nullptr).code(),
            StatusCode::kTxnError);

  sql::SqlSession sql(db->get());
  ASSERT_OK(sql.Execute("SET batch_size = 7"));
  auto count = sql.ExecuteCollect("SELECT COUNT(*) FROM t");
  ASSERT_OK(count);
  EXPECT_EQ((*count)[0].Multiplicity(Tuple({Value::Int(3)})), 1u);
}

TEST(IntegrationTest, ClosureOverDataBuiltThroughSql) {
  auto db = Database::Open();
  ASSERT_OK(db);
  sql::SqlSession sql(db->get());
  ASSERT_OK(sql.Execute(
      "CREATE TABLE reports_to (emp STRING, mgr STRING);"
      "INSERT INTO reports_to VALUES ('carol', 'bob'), ('bob', 'ann'),"
      "                              ('dave', 'ann')"));
  lang::Interpreter xra(db->get());
  auto chain = xra.Query(
      "project([%1], select(%2 = 'ann', closure(reports_to)))");
  ASSERT_OK(chain);
  // Everyone ultimately reports to ann.
  EXPECT_EQ(chain->size(), 3u);
  EXPECT_TRUE(chain->Contains(Tuple({Value::Str("carol")})));
}

TEST(IntegrationTest, LargeGeneratedWorkloadEndToEnd) {
  // A thousand-transaction workload through the language layer, verified
  // against a directly computed expectation.
  auto db = Database::Open();
  ASSERT_OK(db);
  lang::Interpreter interp(db->get());
  ASSERT_OK(interp.ExecuteScript("create counter(slot: int, n: int);",
                                 nullptr));
  for (int i = 0; i < 300; ++i) {
    std::string stmt = "insert(counter, {(" + std::to_string(i % 10) +
                       ", 1)});";
    ASSERT_OK(interp.ExecuteScript(stmt, nullptr));
  }
  auto totals = interp.Query("groupby([%1], cnt(%2), counter)");
  ASSERT_OK(totals);
  EXPECT_EQ(totals->size(), 10u);
  for (const auto& [tuple, count] : *totals) {
    EXPECT_EQ(tuple.at(1).int_value(), 30);
  }
  EXPECT_EQ((*db)->logical_time(), 300u);  // DDL does not tick; 300 inserts do
}

}  // namespace
}  // namespace mra
