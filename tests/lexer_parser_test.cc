// Tests for the XRA lexer and parser.

#include <gtest/gtest.h>

#include <string>

#include "mra/common/limits.h"
#include "mra/lang/interpreter.h"
#include "mra/lang/lexer.h"
#include "mra/lang/parser.h"
#include "test_util.h"

namespace mra {
namespace lang {
namespace {

TEST(LexerTest, TokenizesPunctuationAndOperators) {
  auto tokens = Tokenize("( ) [ ] { } , ; : := ? = <> < <= > >= + - * /");
  ASSERT_OK(tokens);
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kLParen, TokenKind::kRParen,
                       TokenKind::kLBracket, TokenKind::kRBracket,
                       TokenKind::kLBrace, TokenKind::kRBrace,
                       TokenKind::kComma, TokenKind::kSemicolon,
                       TokenKind::kColon, TokenKind::kAssign,
                       TokenKind::kQuery, TokenKind::kEq, TokenKind::kNe,
                       TokenKind::kLt, TokenKind::kLe, TokenKind::kGt,
                       TokenKind::kGe, TokenKind::kPlus, TokenKind::kMinus,
                       TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kEnd}));
}

TEST(LexerTest, KeywordsVersusIdentifiers) {
  auto tokens = Tokenize("select beers union unions");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKwSelect);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "beers");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kKwUnion);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
}

TEST(LexerTest, AttrRefsAreOneBased) {
  auto tokens = Tokenize("%1 %12");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kAttrRef);
  EXPECT_EQ((*tokens)[0].attr_index, 0u);
  EXPECT_EQ((*tokens)[1].attr_index, 11u);
  EXPECT_FALSE(Tokenize("%0").ok());
}

TEST(LexerTest, BarePercentIsModulo) {
  auto tokens = Tokenize("%1 % 2");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kPercent);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 3.14 'hello' 'it''s'");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIntLit);
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kRealLit);
  EXPECT_EQ((*tokens)[1].text, "3.14");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kStringLit);
  EXPECT_EQ((*tokens)[2].text, "hello");
  EXPECT_EQ((*tokens)[3].text, "it's");
}

TEST(LexerTest, PrefixedLiterals) {
  auto tokens = Tokenize("date'1994-02-14' dec'12.34'");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kDateLit);
  EXPECT_EQ((*tokens)[0].text, "1994-02-14");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDecimalLit);
  EXPECT_EQ((*tokens)[1].text, "12.34");
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = Tokenize("1 -- the rest is ignored ';' \n 2");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[1].text, "2");
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("@").ok());
}

TEST(ParserTest, ScalarPrecedence) {
  auto e = ParseScalarExpr("%1 + %2 * 3 = 7 and not %4 or %5 < 1");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(),
            "((((%1 + (%2 * 3)) = 7) and (not %4)) or (%5 < 1))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto e = ParseScalarExpr("(%1 + %2) * 3");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(), "((%1 + %2) * 3)");
}

TEST(ParserTest, UnaryMinusAndModulo) {
  auto e = ParseScalarExpr("-%1 % 2");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(), "((-%1) %% 2)");
}

TEST(ParserTest, RelationalOperators) {
  auto e = ParseRelExpr(
      "project([%1], select((%6 = 'NL'), join((%2 = %4), beer, brewery)))");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->kind, RelExpr::Kind::kProject);
  EXPECT_EQ((*e)->children[0]->kind, RelExpr::Kind::kSelect);
  EXPECT_EQ((*e)->children[0]->children[0]->kind, RelExpr::Kind::kJoin);
  // Round-trips through ToString.
  EXPECT_EQ((*e)->ToString(),
            "project([%1], select((%6 = 'NL'), "
            "join((%2 = %4), beer, brewery)))");
}

TEST(ParserTest, SetOperators) {
  for (const char* text :
       {"union(a, b)", "diff(a, b)", "intersect(a, b)", "product(a, b)",
        "unique(a)"}) {
    auto e = ParseRelExpr(text);
    ASSERT_OK(e);
    EXPECT_EQ((*e)->ToString(), text);
  }
}

TEST(ParserTest, GroupBySingleAndMultiAggregate) {
  auto e = ParseRelExpr("groupby([%6], avg(%3), beer)");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->kind, RelExpr::Kind::kGroupBy);
  EXPECT_EQ((*e)->keys, (std::vector<size_t>{5}));
  ASSERT_EQ((*e)->aggs.size(), 1u);
  EXPECT_EQ((*e)->aggs[0].kind, AggKind::kAvg);
  EXPECT_EQ((*e)->aggs[0].attr, 2u);

  auto multi = ParseRelExpr("groupby([], cnt(%1), sum(%2), min(%2), r)");
  ASSERT_OK(multi);
  EXPECT_TRUE((*multi)->keys.empty());
  EXPECT_EQ((*multi)->aggs.size(), 3u);
}

TEST(ParserTest, GroupByRequiresAggregate) {
  EXPECT_FALSE(ParseRelExpr("groupby([%1], beer)").ok());
}

TEST(ParserTest, RelationLiterals) {
  auto e = ParseRelExpr("{(1, 'a') : 2, (2, 'b')}");
  ASSERT_OK(e);
  EXPECT_EQ((*e)->kind, RelExpr::Kind::kLiteral);
  const Relation& r = (*e)->literal;
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.Multiplicity(Tuple({Value::Int(1), Value::Str("a")})), 2u);
  EXPECT_EQ(r.schema().TypeOf(0), Type::Int());
  EXPECT_EQ(r.schema().TypeOf(1), Type::String());
}

TEST(ParserTest, RelationLiteralWithTypedValues) {
  auto e = ParseRelExpr("{(true, date'2026-07-06', dec'9.99', -1.5, -3)}");
  ASSERT_OK(e);
  const Relation& r = (*e)->literal;
  EXPECT_EQ(r.schema().TypeOf(0), Type::Bool());
  EXPECT_EQ(r.schema().TypeOf(1), Type::Date());
  EXPECT_EQ(r.schema().TypeOf(2), Type::Decimal());
  EXPECT_EQ(r.schema().TypeOf(3), Type::Real());
  EXPECT_EQ(r.schema().TypeOf(4), Type::Int());
}

TEST(ParserTest, NonUniformLiteralRejected) {
  EXPECT_FALSE(ParseRelExpr("{(1), ('a')}").ok());
  EXPECT_FALSE(ParseRelExpr("{(1), (1, 2)}").ok());
}

TEST(ParserTest, EmptyLiteralNeedsSchema) {
  EXPECT_FALSE(ParseRelExpr("{}").ok());
  auto e = ParseRelExpr("empty(x: int, s: string)");
  ASSERT_OK(e);
  EXPECT_TRUE((*e)->literal.empty());
  EXPECT_EQ((*e)->literal.schema().arity(), 2u);
  EXPECT_EQ((*e)->literal.schema().attribute(1).name, "s");
}

TEST(ParserTest, Statements) {
  auto script = ParseScript(
      "create beer(name: string, brewery: string, alcperc: real);\n"
      "insert(beer, {('pils', 'Guineken', 5.0)});\n"
      "delete(beer, select((%1 = 'pils'), beer));\n"
      "update(beer, select((%2 = 'Guineken'), beer), [%1, %2, %3 * 1.1]);\n"
      "x := unique(project([%1], beer));\n"
      "? x;\n"
      "drop beer;\n");
  ASSERT_OK(script);
  ASSERT_EQ(script->items.size(), 7u);
  EXPECT_EQ(script->items[0].stmts[0].kind, Stmt::Kind::kCreate);
  EXPECT_EQ(script->items[0].stmts[0].schema.arity(), 3u);
  EXPECT_EQ(script->items[1].stmts[0].kind, Stmt::Kind::kInsert);
  EXPECT_EQ(script->items[2].stmts[0].kind, Stmt::Kind::kDelete);
  EXPECT_EQ(script->items[3].stmts[0].kind, Stmt::Kind::kUpdate);
  EXPECT_EQ(script->items[3].stmts[0].alpha.size(), 3u);
  EXPECT_EQ(script->items[4].stmts[0].kind, Stmt::Kind::kAssign);
  EXPECT_EQ(script->items[4].stmts[0].target, "x");
  EXPECT_EQ(script->items[5].stmts[0].kind, Stmt::Kind::kQuery);
  EXPECT_EQ(script->items[6].stmts[0].kind, Stmt::Kind::kDrop);
}

TEST(ParserTest, TransactionBrackets) {
  auto script = ParseScript(
      "begin\n"
      "  insert(r, {(1)});\n"
      "  delete(r, {(2)})\n"
      "end;\n"
      "? r;");
  ASSERT_OK(script);
  ASSERT_EQ(script->items.size(), 2u);
  EXPECT_TRUE(script->items[0].is_transaction);
  EXPECT_EQ(script->items[0].stmts.size(), 2u);
  EXPECT_FALSE(script->items[1].is_transaction);
}

TEST(ParserTest, EmptyTransactionRejected) {
  EXPECT_FALSE(ParseScript("begin end").ok());
}

TEST(ParserTest, ErrorsCarryLineInfo) {
  auto bad = ParseScript("insert(beer {(1)})");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, StatementToStringRoundTrip) {
  const char* text =
      "update(beer, select((%2 = 'Guineken'), beer), [%1, %2, (%3 * 1.1)])";
  auto script = ParseScript(text);
  ASSERT_OK(script);
  EXPECT_EQ(script->items[0].stmts[0].ToString(), text);
}

// --- Depth cap (kMaxParseDepth). ---

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// `? select(C, r)` whose tree is `depth` levels deep: σ is one level, and
// each shape of C adds its nesting above a comparison `%1 > 0` (two
// levels).  Chain and `and` nest by iteration, parentheses and `not` by
// recursion.
std::string DeepQuery(const std::string& shape, int depth) {
  const int n = depth - 3;
  std::string cond;
  if (shape == "chain") cond = "%1" + Repeat(" + 1", n) + " > 0";
  if (shape == "parens") cond = Repeat("(", n) + "%1 > 0" + Repeat(")", n);
  if (shape == "not") cond = Repeat("not ", n) + "%1 > 0";
  if (shape == "and") cond = "%1 > 0" + Repeat(" and %1 > 0", n);
  if (shape == "unique") {
    return "? " + Repeat("unique(", depth - 1) + "r" + Repeat(")", depth - 1);
  }
  return "? select(" + cond + ", r)";
}

class ParseDepthTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseDepthTest, DeepestAcceptedTreeEvaluatesAndTheCapIsRefused) {
  auto db = Database::Open();
  ASSERT_OK(db);
  Interpreter interp(db->get());
  ASSERT_OK(interp.ExecuteScript("create r(a: int); insert(r, {(1)});",
                                 nullptr));
  auto deepest = interp.ExecuteScriptCollect(
      DeepQuery(GetParam(), kMaxParseDepth - 1));
  ASSERT_OK(deepest);
  ASSERT_EQ(deepest->size(), 1u);

  for (int depth : {kMaxParseDepth, 100000}) {
    SCOPED_TRACE(depth);
    auto refused = ParseScript(DeepQuery(GetParam(), depth));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
    EXPECT_NE(refused.status().message().find(
                  std::to_string(kMaxParseDepth) + " levels"),
              std::string::npos)
        << refused.status().ToString();
    EXPECT_EQ(interp.ExecuteScript(DeepQuery(GetParam(), depth), nullptr)
                  .code(),
              StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParseDepthTest,
                         ::testing::Values("chain", "parens", "not", "and",
                                           "unique"));

TEST(ParserTest, ScalarExpressionsShareTheDepthCap) {
  ASSERT_OK(ParseScalarExpr("1" + Repeat(" * 2", kMaxParseDepth - 2)));
  EXPECT_EQ(ParseScalarExpr("1" + Repeat(" * 2", kMaxParseDepth - 1))
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseScalarExpr(Repeat("-", 100000) + "1").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace lang
}  // namespace mra
