// Tests for the rewrite rules and the optimizer driver.  Shape assertions
// check that the intended rewrites fire; randomized semantic tests check
// that optimization never changes a plan's meaning (the executable form of
// the paper's claim that the classical equivalences hold for bags).

#include "mra/opt/optimizer.h"

#include <gtest/gtest.h>

#include <random>

#include "mra/algebra/evaluator.h"
#include "mra/catalog/catalog.h"
#include "mra/common/annotation.h"
#include "mra/exec/physical_planner.h"
#include "mra/opt/rules.h"
#include "test_util.h"

namespace mra {
namespace opt {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::PaperBeerDb;
using ::mra::testing::RandomIntRelation;

class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PaperBeerDb db;
    ASSERT_OK(catalog_.CreateRelation(db.beer.schema()));
    ASSERT_OK(catalog_.SetRelation("beer", db.beer));
    ASSERT_OK(catalog_.CreateRelation(db.brewery.schema()));
    ASSERT_OK(catalog_.SetRelation("brewery", db.brewery));
    beer_ = Plan::Scan("beer", db.beer.schema());
    brewery_ = Plan::Scan("brewery", db.brewery.schema());
  }

  // Evaluates pre- and post-rewrite plans and requires identical results.
  void ExpectSameSemantics(const PlanPtr& before, const PlanPtr& after) {
    auto r1 = EvaluatePlan(*before, catalog_);
    auto r2 = EvaluatePlan(*after, catalog_);
    ASSERT_OK(r1);
    ASSERT_OK(r2);
    EXPECT_REL_EQ(*r1, *r2) << "before:\n"
                            << before->ToString() << "after:\n"
                            << after->ToString();
  }

  Catalog catalog_;
  PlanPtr beer_;
  PlanPtr brewery_;
};

TEST_F(RuleTest, MergeSelects) {
  auto inner = Plan::Select(Eq(Attr(1), Lit("Guineken")), beer_);
  ASSERT_OK(inner);
  auto outer = Plan::Select(Gt(Attr(2), Lit(5.0)), *inner);
  ASSERT_OK(outer);
  auto merged = TryMergeSelects(*outer);
  ASSERT_OK(merged);
  ASSERT_NE(*merged, nullptr);
  EXPECT_EQ((*merged)->kind(), PlanKind::kSelect);
  EXPECT_EQ((*merged)->child(0)->kind(), PlanKind::kScan);
  ExpectSameSemantics(*outer, *merged);
}

TEST_F(RuleTest, SelectPushdownThroughUnion) {
  auto u = Plan::Union(beer_, beer_);
  ASSERT_OK(u);
  auto sel = Plan::Select(Eq(Attr(1), Lit("Guineken")), *u);
  ASSERT_OK(sel);
  auto pushed = TrySelectPushdown(*sel);
  ASSERT_OK(pushed);
  ASSERT_NE(*pushed, nullptr);
  EXPECT_EQ((*pushed)->kind(), PlanKind::kUnion);
  EXPECT_EQ((*pushed)->child(0)->kind(), PlanKind::kSelect);
  ExpectSameSemantics(*sel, *pushed);
}

TEST_F(RuleTest, SelectOverProductBecomesJoinWithPushedSides) {
  // σ(beer.brewery = brewery.name AND country = 'NL' AND alcperc > 5)
  // over beer × brewery: the one-sided conjuncts must descend, the
  // cross-side one becomes the join condition (Theorem 3.1).
  auto prod = Plan::Product(beer_, brewery_);
  ASSERT_OK(prod);
  ExprPtr cond = And(And(Eq(Attr(1), Attr(3)), Eq(Attr(5), Lit("NL"))),
                     Gt(Attr(2), Lit(5.0)));
  auto sel = Plan::Select(cond, *prod);
  ASSERT_OK(sel);
  auto pushed = TrySelectPushdown(*sel);
  ASSERT_OK(pushed);
  ASSERT_NE(*pushed, nullptr);
  EXPECT_EQ((*pushed)->kind(), PlanKind::kJoin);
  EXPECT_EQ((*pushed)->child(0)->kind(), PlanKind::kSelect);  // alcperc > 5
  EXPECT_EQ((*pushed)->child(1)->kind(), PlanKind::kSelect);  // country = NL
  ExpectSameSemantics(*sel, *pushed);
}

TEST_F(RuleTest, BareJoinConditionPushdown) {
  ExprPtr cond = And(Eq(Attr(1), Attr(3)), Eq(Attr(5), Lit("NL")));
  auto join = Plan::Join(cond, beer_, brewery_);
  ASSERT_OK(join);
  auto pushed = TrySelectPushdown(*join);
  ASSERT_OK(pushed);
  ASSERT_NE(*pushed, nullptr);
  EXPECT_EQ((*pushed)->kind(), PlanKind::kJoin);
  EXPECT_EQ((*pushed)->child(1)->kind(), PlanKind::kSelect);
  ExpectSameSemantics(*join, *pushed);
}

TEST_F(RuleTest, SelectPushdownThroughProjection) {
  auto proj = Plan::ProjectIndexes({2, 0}, beer_);
  ASSERT_OK(proj);
  auto sel = Plan::Select(Gt(Attr(0), Lit(5.0)), *proj);
  ASSERT_OK(sel);
  auto pushed = TrySelectPushdown(*sel);
  ASSERT_OK(pushed);
  ASSERT_NE(*pushed, nullptr);
  EXPECT_EQ((*pushed)->kind(), PlanKind::kProject);
  EXPECT_EQ((*pushed)->child(0)->kind(), PlanKind::kSelect);
  // The condition was rewritten to the pre-projection frame: %1 → %3.
  EXPECT_EQ((*pushed)->child(0)->condition()->ToString(), "(%3 > 5.0)");
  ExpectSameSemantics(*sel, *pushed);
}

TEST_F(RuleTest, SelectNotPushedThroughExpensiveProjection) {
  // The projection computes alcperc * 1.1; substituting it into the
  // condition would duplicate work, so the rule declines.
  auto proj = Plan::Project({Mul(Attr(2), Lit(1.1))}, beer_);
  ASSERT_OK(proj);
  auto sel = Plan::Select(Gt(Attr(0), Lit(6.0)), *proj);
  ASSERT_OK(sel);
  auto pushed = TrySelectPushdown(*sel);
  ASSERT_OK(pushed);
  EXPECT_EQ(*pushed, nullptr);
}

TEST_F(RuleTest, SelectPushdownThroughDiffIntersectUnique) {
  for (auto make : {&Plan::Difference, &Plan::Intersect}) {
    auto combined = (*make)(beer_, beer_);
    ASSERT_OK(combined);
    auto sel = Plan::Select(Eq(Attr(0), Lit("pils")), *combined);
    ASSERT_OK(sel);
    auto pushed = TrySelectPushdown(*sel);
    ASSERT_OK(pushed);
    ASSERT_NE(*pushed, nullptr);
    ExpectSameSemantics(*sel, *pushed);
  }
  auto uniq = Plan::Unique(beer_);
  ASSERT_OK(uniq);
  auto sel = Plan::Select(Eq(Attr(0), Lit("pils")), *uniq);
  ASSERT_OK(sel);
  auto pushed = TrySelectPushdown(*sel);
  ASSERT_OK(pushed);
  ASSERT_NE(*pushed, nullptr);
  EXPECT_EQ((*pushed)->kind(), PlanKind::kUnique);
  ExpectSameSemantics(*sel, *pushed);
}

TEST_F(RuleTest, MergeProjects) {
  auto inner = Plan::ProjectIndexes({2, 1, 0}, beer_);
  ASSERT_OK(inner);
  auto outer = Plan::ProjectIndexes({2}, *inner);
  ASSERT_OK(outer);
  auto merged = TryMergeProjects(*outer);
  ASSERT_OK(merged);
  ASSERT_NE(*merged, nullptr);
  EXPECT_EQ((*merged)->child(0)->kind(), PlanKind::kScan);
  ExpectSameSemantics(*outer, *merged);
}

TEST_F(RuleTest, UniqueSimplifications) {
  auto uu = Plan::Unique(Plan::Unique(beer_).value());
  ASSERT_OK(uu);
  auto simplified = TryUniqueSimplify(*uu);
  ASSERT_OK(simplified);
  ASSERT_NE(*simplified, nullptr);
  EXPECT_EQ((*simplified)->kind(), PlanKind::kUnique);
  EXPECT_EQ((*simplified)->child(0)->kind(), PlanKind::kScan);

  auto g = Plan::GroupBy({1}, {{AggKind::kCnt, 0, ""}}, beer_);
  ASSERT_OK(g);
  auto ug = Plan::Unique(*g);
  ASSERT_OK(ug);
  auto dropped = TryUniqueSimplify(*ug);
  ASSERT_OK(dropped);
  ASSERT_NE(*dropped, nullptr);
  EXPECT_EQ((*dropped)->kind(), PlanKind::kGroupBy);

  auto prod = Plan::Product(beer_, brewery_);
  ASSERT_OK(prod);
  auto up = Plan::Unique(*prod);
  ASSERT_OK(up);
  auto distributed = TryUniqueSimplify(*up);
  ASSERT_OK(distributed);
  ASSERT_NE(*distributed, nullptr);
  EXPECT_EQ((*distributed)->kind(), PlanKind::kProduct);
  EXPECT_EQ((*distributed)->child(0)->kind(), PlanKind::kUnique);
  ExpectSameSemantics(*up, *distributed);
}

TEST_F(RuleTest, PreDedupUnionRule) {
  auto u = Plan::Union(beer_, beer_);
  ASSERT_OK(u);
  auto du = Plan::Unique(*u);
  ASSERT_OK(du);
  auto rewritten = TryUniquePreDedupUnion(*du);
  ASSERT_OK(rewritten);
  ASSERT_NE(*rewritten, nullptr);
  EXPECT_EQ((*rewritten)->kind(), PlanKind::kUnique);
  EXPECT_EQ((*rewritten)->child(0)->child(0)->kind(), PlanKind::kUnique);
  ExpectSameSemantics(*du, *rewritten);
  // Applying again must not fire (guard against infinite rewriting).
  auto again = TryUniquePreDedupUnion(*rewritten);
  ASSERT_OK(again);
  EXPECT_EQ(*again, nullptr);
}

TEST_F(RuleTest, ConstantSimplify) {
  auto always = Plan::Select(Lit(true), beer_);
  ASSERT_OK(always);
  auto s1 = TryConstantSimplify(*always);
  ASSERT_OK(s1);
  EXPECT_EQ((*s1)->kind(), PlanKind::kScan);

  auto never = Plan::Select(Lit(false), beer_);
  ASSERT_OK(never);
  auto s2 = TryConstantSimplify(*never);
  ASSERT_OK(s2);
  EXPECT_EQ((*s2)->kind(), PlanKind::kConstRel);
  EXPECT_TRUE((*s2)->const_relation().empty());

  auto folded = Plan::Select(
      Gt(Attr(2), Add(Lit(2.0), Lit(3.0))), beer_);
  ASSERT_OK(folded);
  auto s3 = TryConstantSimplify(*folded);
  ASSERT_OK(s3);
  ASSERT_NE(*s3, nullptr);
  EXPECT_EQ((*s3)->condition()->ToString(), "(%3 > 5.0)");

  auto identity = Plan::ProjectIndexes({0, 1, 2}, beer_);
  ASSERT_OK(identity);
  auto s4 = TryConstantSimplify(*identity);
  ASSERT_OK(s4);
  EXPECT_EQ((*s4)->kind(), PlanKind::kScan);

  auto true_join = Plan::Join(Lit(true), beer_, brewery_);
  ASSERT_OK(true_join);
  auto s5 = TryConstantSimplify(*true_join);
  ASSERT_OK(s5);
  EXPECT_EQ((*s5)->kind(), PlanKind::kProduct);
}

TEST_F(RuleTest, JoinCommutePutsSmallerBuildSideRight) {
  // beer has 5 tuples (with multiplicities), brewery 3 — make a lopsided
  // pair by unioning beer with itself.
  auto big = Plan::Union(beer_, beer_);
  ASSERT_OK(big);
  // Join with the big side RIGHT (bad build side).
  auto join = Plan::Join(Eq(Attr(1), Attr(4)), brewery_, *big);
  ASSERT_OK(join);
  auto commuted = TryJoinCommute(*join, catalog_);
  ASSERT_OK(commuted);
  ASSERT_NE(*commuted, nullptr);
  ExpectSameSemantics(*join, *commuted);
  // A well-ordered join is left alone.
  auto good = Plan::Join(Eq(Attr(1), Attr(3)), *big, brewery_);
  ASSERT_OK(good);
  auto untouched = TryJoinCommute(*good, catalog_);
  ASSERT_OK(untouched);
  EXPECT_EQ(*untouched, nullptr);
}

TEST_F(RuleTest, PruneColumnsInsertsEarlyProjection) {
  // Example 3.2: Γ over a join needs only alcperc and country; pruning
  // must narrow the join inputs.
  auto join = Plan::Join(Eq(Attr(1), Attr(3)), beer_, brewery_);
  ASSERT_OK(join);
  auto grouped = Plan::GroupBy({5}, {{AggKind::kAvg, 2, "avg"}}, *join);
  ASSERT_OK(grouped);
  auto pruned = PruneColumns(*grouped);
  ASSERT_OK(pruned);
  ExpectSameSemantics(*grouped, *pruned);
  // The join inside the pruned plan must be narrower than 6 columns.
  const Plan* node = pruned->get();
  while (node->kind() != PlanKind::kJoin) {
    ASSERT_GT(node->num_children(), 0u);
    node = node->child(0).get();
  }
  EXPECT_LT(node->schema().arity(), 6u);
}

TEST_F(RuleTest, PruneColumnsKeepsDifferenceWhole) {
  // π does not distribute over −: pruning must not descend.
  auto diff = Plan::Difference(beer_, beer_);
  ASSERT_OK(diff);
  auto proj = Plan::ProjectIndexes({0}, *diff);
  ASSERT_OK(proj);
  auto pruned = PruneColumns(*proj);
  ASSERT_OK(pruned);
  ExpectSameSemantics(*proj, *pruned);
  const Plan* node = pruned->get();
  while (node->kind() != PlanKind::kDifference) {
    ASSERT_GT(node->num_children(), 0u);
    node = node->child(0).get();
  }
  EXPECT_EQ(node->schema().arity(), 3u);  // still full beer schema
}

class OptimizerSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerSemanticsTest, OptimizedPlansPreserveSemantics) {
  std::mt19937_64 rng(GetParam());
  Catalog catalog;
  Relation r = RandomIntRelation(rng, 2, 25, 8, 3);
  Relation s = RandomIntRelation(rng, 2, 25, 8, 3);
  Relation t = RandomIntRelation(rng, 2, 25, 8, 3);
  for (auto [name, rel] : {std::pair<const char*, Relation*>{"r", &r},
                           {"s", &s},
                           {"t", &t}}) {
    RelationSchema schema = rel->schema();
    schema.set_name(name);
    ASSERT_OK(catalog.CreateRelation(schema));
    ASSERT_OK(catalog.SetRelation(name, *rel));
  }
  PlanPtr scan_r = Plan::Scan("r", catalog.GetRelation("r").value()->schema());
  PlanPtr scan_s = Plan::Scan("s", catalog.GetRelation("s").value()->schema());
  PlanPtr scan_t = Plan::Scan("t", catalog.GetRelation("t").value()->schema());

  std::vector<PlanPtr> plans;
  auto add = [&plans](Result<PlanPtr> p) {
    ASSERT_OK(p);
    plans.push_back(*p);
  };

  // σ over × with pushable conjuncts.
  auto prod = Plan::Product(scan_r, scan_s);
  ASSERT_OK(prod);
  add(Plan::Select(And(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Lit(int64_t{5}))),
                       Gt(Attr(3), Lit(int64_t{2}))),
                   *prod));
  // σ over ⊎.
  auto u = Plan::Union(scan_r, scan_s);
  ASSERT_OK(u);
  add(Plan::Select(Le(Attr(0), Lit(int64_t{4})), *u));
  // Γ over a three-way join: column pruning and join commute both apply.
  auto j1 = Plan::Join(Eq(Attr(0), Attr(2)), scan_r, scan_s);
  ASSERT_OK(j1);
  auto j2 = Plan::Join(Eq(Attr(3), Attr(4)), *j1, scan_t);
  ASSERT_OK(j2);
  add(Plan::GroupBy({0}, {{AggKind::kSum, 5, ""}}, *j2));
  // δ over ⊎ and over ×.
  add(Plan::Unique(*u));
  add(Plan::Unique(*prod));
  // Project chains.
  auto p1 = Plan::ProjectIndexes({1, 0}, scan_r);
  ASSERT_OK(p1);
  add(Plan::Project({Add(Attr(0), Attr(1)), Attr(0)}, *p1));
  // σ over δ over −.
  auto d = Plan::Difference(scan_r, scan_s);
  ASSERT_OK(d);
  auto ud = Plan::Unique(*d);
  ASSERT_OK(ud);
  add(Plan::Select(Gt(Attr(1), Lit(int64_t{3})), *ud));

  for (bool pre_dedup : {false, true}) {
    OptimizerOptions options;
    options.pre_dedup_union = pre_dedup;
    Optimizer optimizer(&catalog, options);
    for (const PlanPtr& plan : plans) {
      auto optimized = optimizer.Optimize(plan);
      ASSERT_OK(optimized);
      auto before = EvaluatePlan(*plan, catalog);
      auto after = EvaluatePlan(**optimized, catalog);
      ASSERT_OK(before);
      ASSERT_OK(after);
      EXPECT_REL_EQ(*before, *after)
          << "plan:\n"
          << plan->ToString() << "optimized:\n"
          << (*optimized)->ToString();
      // The optimized plan must also execute identically on the physical
      // engine.
      auto physical = exec::ExecutePlan(*optimized, catalog);
      ASSERT_OK(physical);
      EXPECT_REL_EQ(*physical, *before);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSemanticsTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- Annotation format (satellite of optimizer v2). ---
//
// Every planner and optimizer annotation goes through the helpers in
// mra/common/annotation.h; this is the one test that pins the exact
// format, so EXPLAIN output stays machine-greppable.
TEST(AnnotationFormatTest, PinnedExactly) {
  EXPECT_EQ(AnnotationText("rule", "merge_selects"), "rule: merge_selects");
  EXPECT_EQ(BracketAnnotation("keys: %2=%4"), "[keys: %2=%4]");
  EXPECT_EQ(RenderAnnotation("fallback", "hash ops disabled"),
            "[fallback: hash ops disabled]");
  EXPECT_EQ(RenderAnnotation("reordered", "t ⋈ r ⋈ s"),
            "[reordered: t ⋈ r ⋈ s]");
  EXPECT_EQ(BracketAnnotation(AnnotationText("rule", "subplan_reuse")),
            RenderAnnotation("rule", "subplan_reuse"));
}

TEST(OptimizerReportTest, AddDeduplicatesEntries) {
  OptimizerReport report;
  report.Add("rule", "split_select");
  report.Add("rule", "split_select");
  report.Add("reordered", "r ⋈ s");
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0], "rule: split_select");
  EXPECT_EQ(report.entries[1], "reordered: r ⋈ s");
}

TEST_F(RuleTest, SplitSelectUnpacksConjunctions) {
  auto sel = Plan::Select(And(Eq(Attr(1), Lit("Guineken")),
                              Gt(Attr(2), Lit(5.0))),
                          beer_);
  ASSERT_OK(sel);
  auto split = TrySplitSelect(*sel);
  ASSERT_OK(split);
  ASSERT_NE(*split, nullptr);
  // A chain of single-conjunct selections over the scan.
  EXPECT_EQ((*split)->kind(), PlanKind::kSelect);
  EXPECT_EQ((*split)->child(0)->kind(), PlanKind::kSelect);
  EXPECT_EQ((*split)->child(0)->child(0)->kind(), PlanKind::kScan);
  ExpectSameSemantics(*sel, *split);
  // A single-conjunct selection is already split: no rewrite.
  auto single = Plan::Select(Gt(Attr(2), Lit(5.0)), beer_);
  ASSERT_OK(single);
  auto none = TrySplitSelect(*single);
  ASSERT_OK(none);
  EXPECT_EQ(*none, nullptr);
}

TEST_F(RuleTest, OptimizerReportsItsTrail) {
  // A conjunction over a product must at least fire the split and
  // pushdown family; the report must carry the trail in the pinned
  // "kind: detail" form.
  auto prod = Plan::Product(beer_, brewery_);
  ASSERT_OK(prod);
  auto sel = Plan::Select(And(Eq(Attr(1), Attr(3)), Eq(Attr(5), Lit("NL"))),
                          *prod);
  ASSERT_OK(sel);
  Optimizer optimizer(&catalog_);
  OptimizerReport report;
  auto optimized = optimizer.Optimize(*sel, &report);
  ASSERT_OK(optimized);
  EXPECT_FALSE(report.entries.empty());
  for (const std::string& entry : report.entries) {
    EXPECT_NE(entry.find(": "), std::string::npos) << entry;
  }
  ExpectSameSemantics(*sel, *optimized);
}

// --- Subplan reuse (common-subexpression elimination at lowering). ---

TEST_F(RuleTest, SubplanReuseLowersDuplicateJoinOnce) {
  auto join = Plan::Join(Eq(Attr(1), Attr(3)), beer_, brewery_);
  ASSERT_OK(join);
  auto twice = Plan::Union(*join, *join);
  ASSERT_OK(twice);
  auto lowered = exec::LowerPlan(*twice, catalog_);
  ASSERT_OK(lowered);
  std::string tree = (*lowered)->ToString();
  EXPECT_NE(tree.find("SubplanCache"), std::string::npos) << tree;
  EXPECT_NE(tree.find(AnnotationText("rule", "subplan_reuse")),
            std::string::npos)
      << tree;
  // The owner site renders the join subtree; the reuse site must not —
  // the shared subplan appears exactly once.
  size_t first = tree.find("HashJoin");
  ASSERT_NE(first, std::string::npos) << tree;
  EXPECT_EQ(tree.find("HashJoin", first + 1), std::string::npos) << tree;
  // Streaming the cached result is bag-preserving.
  auto executed = exec::ExecuteToRelation(**lowered);
  ASSERT_OK(executed);
  auto reference = EvaluatePlan(**twice, catalog_);
  ASSERT_OK(reference);
  EXPECT_REL_EQ(*executed, *reference);
}

TEST_F(RuleTest, SubplanReuseSkipsCheapDuplicates) {
  // Bare scans are not worth caching: no SubplanCache for δ-free repeats
  // of a leaf.
  auto twice = Plan::Union(beer_, beer_);
  ASSERT_OK(twice);
  auto lowered = exec::LowerPlan(*twice, catalog_);
  ASSERT_OK(lowered);
  EXPECT_EQ((*lowered)->ToString().find("SubplanCache"), std::string::npos);
}

// --- EXPLAIN cardinality placeholders (satellite of optimizer v2). ---

TEST_F(RuleTest, ExplainRendersDashWithoutEstimate) {
  // An estimator that cannot answer must surface as "(est=-, err=-)",
  // never as a fabricated default.
  exec::CardinalityEstimator none = [](const Plan&) { return kNoEstimate; };
  auto lowered = exec::LowerPlan(beer_, catalog_, &none);
  ASSERT_OK(lowered);
  auto executed = exec::ExecuteToRelation(**lowered);
  ASSERT_OK(executed);
  std::string text = exec::RenderPlanWithMetrics(**lowered);
  EXPECT_NE(text.find("(est=-, err=-)"), std::string::npos) << text;

  // With a real estimate the same node renders numbers.
  exec::CardinalityEstimator five = [](const Plan&) { return 5.0; };
  auto with = exec::LowerPlan(beer_, catalog_, &five);
  ASSERT_OK(with);
  ASSERT_OK(exec::ExecuteToRelation(**with));
  std::string text2 = exec::RenderPlanWithMetrics(**with);
  EXPECT_NE(text2.find("est=5"), std::string::npos) << text2;
  EXPECT_EQ(text2.find("est=-"), std::string::npos) << text2;
}

TEST_F(RuleTest, OptimizerEndToEndExample32) {
  // The unoptimized Example 3.2 plan: Γ over the full join.  After
  // optimization a narrowing projection must appear below the group-by.
  auto join = Plan::Join(Eq(Attr(1), Attr(3)), beer_, brewery_);
  ASSERT_OK(join);
  auto grouped = Plan::GroupBy({5}, {{AggKind::kAvg, 2, "avg_alcperc"}},
                               *join);
  ASSERT_OK(grouped);
  Optimizer optimizer(&catalog_);
  auto optimized = optimizer.Optimize(*grouped);
  ASSERT_OK(optimized);
  ExpectSameSemantics(*grouped, *optimized);
}

}  // namespace
}  // namespace opt
}  // namespace mra
