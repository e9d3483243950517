// Tests for plan/expression serialization: round trips for every node
// kind, corruption detection, and the durable-constraint path it enables.

#include "mra/storage/plan_serializer.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "mra/algebra/evaluator.h"
#include "mra/catalog/catalog.h"
#include "mra/lang/interpreter.h"
#include "test_util.h"

namespace mra {
namespace storage {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::PaperBeerDb;

ExprPtr RoundTripExpr(const ExprPtr& expr) {
  Encoder enc;
  EncodeExpr(&enc, *expr);
  Decoder dec(enc.buffer());
  auto back = DecodeExpr(&dec);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(dec.AtEnd());
  return back.ok() ? *back : nullptr;
}

TEST(ExprSerializerTest, AllNodeKindsRoundTrip) {
  std::vector<ExprPtr> exprs = {
      Attr(3),
      Lit(Value::Str("Guineken")),
      Lit(Value::DecimalScaled(-12345)),
      Neg(Attr(0)),
      Not(Lt(Attr(1), Lit(int64_t{7}))),
      And(Or(Eq(Attr(0), Attr(1)), Ge(Attr(2), Lit(2.5))),
          Ne(Mod(Attr(3), Lit(int64_t{4})), Lit(int64_t{0}))),
      Div(Mul(Add(Attr(0), Attr(1)), Sub(Attr(2), Attr(3))),
          Lit(int64_t{10})),
  };
  for (const ExprPtr& e : exprs) {
    ExprPtr back = RoundTripExpr(e);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(ExprEquals(e, back)) << e->ToString();
  }
}

TEST(ExprSerializerTest, CorruptTagsRejected) {
  Encoder enc;
  EncodeExpr(&enc, *Attr(0));
  std::string data = enc.buffer();
  data[0] = 99;  // bad ExprKind
  Decoder dec(data);
  EXPECT_EQ(DecodeExpr(&dec).status().code(), StatusCode::kCorruption);
}

PlanPtr RoundTripPlan(const PlanPtr& plan) {
  auto back = DecodePlanFromString(EncodePlanToString(*plan));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? *back : nullptr;
}

TEST(PlanSerializerTest, EveryPlanKindRoundTrips) {
  PaperBeerDb db;
  PlanPtr beer = Plan::Scan("beer", db.beer.schema());
  PlanPtr brewery = Plan::Scan("brewery", db.brewery.schema());
  PlanPtr edges = Plan::ConstRel(IntRel("e", {{1, 2}, {2, 3}}, 2));

  std::vector<PlanPtr> plans;
  auto add = [&plans](Result<PlanPtr> p) {
    ASSERT_OK(p);
    plans.push_back(*p);
  };
  plans.push_back(beer);
  plans.push_back(edges);
  add(Plan::Union(beer, beer));
  add(Plan::Difference(beer, beer));
  add(Plan::Intersect(beer, beer));
  add(Plan::Product(beer, brewery));
  add(Plan::Join(Eq(Attr(1), Attr(3)), beer, brewery));
  add(Plan::Select(Gt(Attr(2), Lit(5.0)), beer));
  add(Plan::Project({Attr(0), Mul(Attr(2), Lit(1.1))}, beer,
                    {"name", "stronger"}));
  add(Plan::Unique(beer));
  add(Plan::GroupBy({1}, {{AggKind::kAvg, 2, "avg"}, {AggKind::kCnt, 0, "n"}},
                    beer));
  add(Plan::Closure(edges));
  // A deep composite.
  auto join = Plan::Join(Eq(Attr(1), Attr(3)), beer, brewery);
  ASSERT_OK(join);
  auto sel = Plan::Select(Eq(Attr(5), Lit("NL")), *join);
  ASSERT_OK(sel);
  add(Plan::GroupBy({5}, {{AggKind::kAvg, 2, "avg"}}, *sel));

  Catalog catalog;
  ASSERT_OK(catalog.CreateRelation(db.beer.schema()));
  ASSERT_OK(catalog.SetRelation("beer", db.beer));
  ASSERT_OK(catalog.CreateRelation(db.brewery.schema()));
  ASSERT_OK(catalog.SetRelation("brewery", db.brewery));

  for (const PlanPtr& plan : plans) {
    PlanPtr back = RoundTripPlan(plan);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(PlanEquals(plan, back)) << plan->ToString();
    // Decoded plans evaluate identically.
    auto original = EvaluatePlan(*plan, catalog);
    auto decoded = EvaluatePlan(*back, catalog);
    ASSERT_OK(original);
    ASSERT_OK(decoded);
    EXPECT_REL_EQ(*original, *decoded);
    // Schema (incl. attribute names) survives.
    EXPECT_EQ(plan->schema().ToString(), back->schema().ToString());
  }
}

TEST(PlanSerializerTest, TruncationAndTrailingBytesRejected) {
  PaperBeerDb db;
  PlanPtr plan = Plan::Select(Eq(Attr(0), Lit("pils")),
                              Plan::Scan("beer", db.beer.schema()))
                     .value();
  std::string data = EncodePlanToString(*plan);
  EXPECT_EQ(DecodePlanFromString(std::string_view(data.data(), data.size() / 2))
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodePlanFromString(data + "junk").status().code(),
            StatusCode::kCorruption);
}

TEST(PlanSerializerTest, DecodedPlansAreRevalidated) {
  // Encode a valid select, then corrupt the attribute index so the decoded
  // condition no longer type-checks: the builder must reject it.
  PlanPtr scan = Plan::Scan("r", RelationSchema("r", {{"x", Type::Int()}}));
  PlanPtr plan = Plan::Select(Gt(Attr(0), Lit(int64_t{0})), scan).value();
  Encoder enc;
  EncodePlan(&enc, *plan);
  std::string data = enc.TakeBuffer();
  // The attr index is the 8 bytes following [kSelect][kBinary][kGt? no —
  // op][kAttrRef]; rather than byte-surgery, rebuild with a bad plan
  // directly: select over arity-1 scan referencing %5.
  Encoder bad;
  bad.PutU8(static_cast<uint8_t>(PlanKind::kSelect));
  EncodeExpr(&bad, *Gt(Attr(4), Lit(int64_t{0})));
  bad.PutU8(static_cast<uint8_t>(PlanKind::kScan));
  bad.PutString("r");
  bad.PutSchema(RelationSchema("r", {{"x", Type::Int()}}));
  EXPECT_FALSE(DecodePlanFromString(bad.buffer()).ok());
}

TEST(DurableConstraintTest, ConstraintsSurviveReopen) {
  auto dir = std::filesystem::temp_directory_path() /
             ("mra_dur_constraint_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    lang::Interpreter interp(db->get());
    ASSERT_OK(interp.ExecuteScript(
        "create account(owner: string, balance: int);"
        "insert(account, {('ann', 10)});"
        "constraint nonneg (select(%2 < 0, account));",
        nullptr));
  }
  {
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    EXPECT_EQ((*db)->ConstraintNames(),
              (std::vector<std::string>{"nonneg"}));
    lang::Interpreter interp(db->get());
    // Still enforced after recovery from the WAL.
    EXPECT_EQ(interp.ExecuteScript("insert(account, {('eve', -1)});", nullptr)
                  .code(),
              StatusCode::kConstraintViolation);
    ASSERT_OK((*db)->Checkpoint());
  }
  {
    // And after recovery from the checkpoint (WAL truncated).
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    EXPECT_EQ((*db)->ConstraintNames(),
              (std::vector<std::string>{"nonneg"}));
    lang::Interpreter interp(db->get());
    EXPECT_EQ(interp.ExecuteScript("insert(account, {('eve', -1)});", nullptr)
                  .code(),
              StatusCode::kConstraintViolation);
    ASSERT_OK(interp.ExecuteScript("drop constraint nonneg;", nullptr));
  }
  {
    // The drop is durable too.
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    EXPECT_TRUE((*db)->ConstraintNames().empty());
  }
  std::filesystem::remove_all(dir);
}

// σ_{%1 + 1 + … + 1 < 0}(r) with `additions` left-nested additions: the
// decoder reads the comparison at depth 0 and the innermost %1 at depth
// additions + 1.
PlanPtr DeepViolationQuery(int additions) {
  ExprPtr sum = Attr(0);
  for (int i = 0; i < additions; ++i) {
    sum = Add(std::move(sum), Lit(int64_t{1}));
  }
  return Plan::Select(
             Lt(std::move(sum), Lit(int64_t{0})),
             Plan::Scan("r", RelationSchema("r", {{"x", Type::Int()}})))
      .value();
}

// A constraint is accepted only if recovery can read its plan back: one
// its own decoder would refuse ("expression nesting too deep") is refused
// up front, before anything reaches the WAL, so the database still opens.
// The deepest plan the decoder accepts survives a checkpoint and reopens.
TEST(DurableConstraintTest, OnlyConstraintsThatDecodeAreAccepted) {
  auto dir = std::filesystem::temp_directory_path() /
             ("mra_deep_constraint_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    lang::Interpreter interp(db->get());
    ASSERT_OK(interp.ExecuteScript("create r(x: int); insert(r, {(1)});",
                                   nullptr));
    for (int additions : {512, 600}) {
      Status refused =
          (*db)->AddConstraint("deep", DeepViolationQuery(additions));
      EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << additions;
      EXPECT_NE(refused.message().find("nesting too deep"), std::string::npos)
          << refused.ToString();
    }
    ASSERT_OK((*db)->AddConstraint("deepest", DeepViolationQuery(511)));
  }
  {
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    EXPECT_EQ((*db)->ConstraintNames(), (std::vector<std::string>{"deepest"}));
    ASSERT_OK((*db)->Checkpoint());
  }
  {
    auto db = Database::Open({.directory = dir.string()});
    ASSERT_OK(db);
    EXPECT_EQ((*db)->ConstraintNames(), (std::vector<std::string>{"deepest"}));
    lang::Interpreter interp(db->get());
    // Still enforced: -5 + 511 < 0 is false, -600 + 511 < 0 is true.
    ASSERT_OK(interp.ExecuteScript("insert(r, {(-5)});", nullptr));
    EXPECT_EQ(interp.ExecuteScript("insert(r, {(-600)});", nullptr).code(),
              StatusCode::kConstraintViolation);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace storage
}  // namespace mra
