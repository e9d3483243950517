#include "mra/lang/parser.h"

#include "mra/common/limits.h"
#include "mra/lang/lexer.h"

namespace mra {
namespace lang {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> ParseScript() {
    Script script;
    while (!Check(TokenKind::kEnd)) {
      Script::Item item;
      if (Check(TokenKind::kKwBegin)) {
        Advance();
        item.is_transaction = true;
        while (!Check(TokenKind::kKwEnd)) {
          MRA_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
          item.stmts.push_back(std::move(stmt));
          if (Check(TokenKind::kSemicolon)) {
            Advance();
          } else {
            break;
          }
        }
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kKwEnd));
        if (Check(TokenKind::kSemicolon)) Advance();
        if (item.stmts.empty()) {
          return Error("empty transaction bracket");
        }
      } else {
        MRA_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
        item.stmts.push_back(std::move(stmt));
        if (Check(TokenKind::kSemicolon)) Advance();
      }
      script.items.push_back(std::move(item));
    }
    return script;
  }

  Result<RelExprPtr> ParseSingleRelExpr() {
    MRA_ASSIGN_OR_RETURN(RelExprPtr e, ParseRelExpr());
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return e;
  }

  Result<ExprPtr> ParseSingleScalar() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseScalar());
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (found " + Peek().Describe() +
                              " at line " + std::to_string(Peek().line) + ")");
  }

  Status Expect(TokenKind kind) {
    if (!Check(kind)) {
      return Error("expected " + std::string(TokenKindName(kind)));
    }
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (!Check(TokenKind::kIdentifier)) return Error("expected an identifier");
    return Advance().text;
  }

  // Refuses a subtree `height` levels tall at the parse position.
  Status CheckDepth(uint32_t height) const {
    if (nesting_.Fits(height)) return Status::OK();
    return Error(ParseNesting::LimitMessage());
  }

  // --- Statements. ---

  Result<Stmt> ParseStmt() {
    Stmt stmt;
    stmt.line = Peek().line;
    switch (Peek().kind) {
      case TokenKind::kKwCreate: {
        Advance();
        stmt.kind = Stmt::Kind::kCreate;
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_ASSIGN_OR_RETURN(std::vector<Attribute> attrs, ParseAttrDecls());
        stmt.schema = RelationSchema(stmt.target, std::move(attrs));
        return stmt;
      }
      case TokenKind::kKwDrop: {
        Advance();
        if (Check(TokenKind::kKwConstraint)) {
          Advance();
          stmt.kind = Stmt::Kind::kDropConstraint;
        } else {
          stmt.kind = Stmt::Kind::kDrop;
        }
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        return stmt;
      }
      case TokenKind::kKwConstraint: {
        Advance();
        stmt.kind = Stmt::Kind::kConstraint;
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return stmt;
      }
      case TokenKind::kKwInsert:
      case TokenKind::kKwDelete: {
        stmt.kind = Peek().kind == TokenKind::kKwInsert ? Stmt::Kind::kInsert
                                                        : Stmt::Kind::kDelete;
        Advance();
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return stmt;
      }
      case TokenKind::kKwUpdate: {
        Advance();
        stmt.kind = Stmt::Kind::kUpdate;
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(stmt.alpha, ParseScalarList());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return stmt;
      }
      case TokenKind::kQuery: {
        Advance();
        stmt.kind = Stmt::Kind::kQuery;
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        return stmt;
      }
      case TokenKind::kKwAnalyze: {
        Advance();
        stmt.kind = Stmt::Kind::kAnalyze;
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        return stmt;
      }
      case TokenKind::kKwSet: {
        Advance();
        stmt.kind = Stmt::Kind::kSet;
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kEq));
        // The value travels verbatim; ExecConfig::Set parses it against
        // the knob's type (number or boolean).
        switch (Peek().kind) {
          case TokenKind::kIntLit:
          case TokenKind::kIdentifier:
          case TokenKind::kKwTrue:
          case TokenKind::kKwFalse:
            stmt.value = Advance().text;
            return stmt;
          default:
            return Error("expected a knob value");
        }
      }
      case TokenKind::kKwExplain: {
        Advance();
        stmt.kind = Stmt::Kind::kExplain;
        if (Check(TokenKind::kKwAnalyze)) {
          Advance();
          stmt.analyze = true;
        }
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        return stmt;
      }
      case TokenKind::kIdentifier: {
        stmt.kind = Stmt::Kind::kAssign;
        MRA_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kAssign));
        MRA_ASSIGN_OR_RETURN(stmt.expr, ParseRelExpr());
        return stmt;
      }
      default:
        return Error("expected a statement");
    }
  }

  Result<std::vector<Attribute>> ParseAttrDecls() {
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    std::vector<Attribute> attrs;
    while (true) {
      MRA_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      MRA_RETURN_IF_ERROR(Expect(TokenKind::kColon));
      MRA_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      MRA_ASSIGN_OR_RETURN(Type type, Type::FromName(type_name));
      attrs.push_back({std::move(name), type});
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return attrs;
  }

  // --- Relation expressions. ---

  Result<RelExprPtr> ParseRelExpr() {
    MRA_RETURN_IF_ERROR(CheckDepth(1));
    ParseNesting::Level level(&nesting_);
    auto node = std::make_shared<RelExpr>();
    node->line = Peek().line;
    switch (Peek().kind) {
      case TokenKind::kIdentifier:
        node->kind = RelExpr::Kind::kName;
        node->name = Advance().text;
        return RelExprPtr(node);
      case TokenKind::kLBrace:
        return ParseRelationLiteral();
      case TokenKind::kKwEmpty: {
        Advance();
        MRA_ASSIGN_OR_RETURN(std::vector<Attribute> attrs, ParseAttrDecls());
        node->kind = RelExpr::Kind::kLiteral;
        node->literal = Relation(RelationSchema(std::move(attrs)));
        return RelExprPtr(node);
      }
      case TokenKind::kKwUnion:
      case TokenKind::kKwDiff:
      case TokenKind::kKwIntersect:
      case TokenKind::kKwProduct: {
        TokenKind op = Advance().kind;
        node->kind = op == TokenKind::kKwUnion      ? RelExpr::Kind::kUnion
                     : op == TokenKind::kKwDiff     ? RelExpr::Kind::kDiff
                     : op == TokenKind::kKwIntersect ? RelExpr::Kind::kIntersect
                                                     : RelExpr::Kind::kProduct;
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(RelExprPtr l, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(RelExprPtr r, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        node->children = {std::move(l), std::move(r)};
        return RelExprPtr(node);
      }
      case TokenKind::kKwJoin: {
        Advance();
        node->kind = RelExpr::Kind::kJoin;
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(node->condition, ParseScalar());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(RelExprPtr l, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(RelExprPtr r, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        node->children = {std::move(l), std::move(r)};
        return RelExprPtr(node);
      }
      case TokenKind::kKwSelect: {
        Advance();
        node->kind = RelExpr::Kind::kSelect;
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(node->condition, ParseScalar());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(RelExprPtr input, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        node->children = {std::move(input)};
        return RelExprPtr(node);
      }
      case TokenKind::kKwProject: {
        Advance();
        node->kind = RelExpr::Kind::kProject;
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(node->projections, ParseScalarList());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        MRA_ASSIGN_OR_RETURN(RelExprPtr input, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        node->children = {std::move(input)};
        return RelExprPtr(node);
      }
      case TokenKind::kKwClosure:
      case TokenKind::kKwUnique: {
        node->kind = Peek().kind == TokenKind::kKwClosure
                         ? RelExpr::Kind::kClosure
                         : RelExpr::Kind::kUnique;
        Advance();
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MRA_ASSIGN_OR_RETURN(RelExprPtr input, ParseRelExpr());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        node->children = {std::move(input)};
        return RelExprPtr(node);
      }
      case TokenKind::kKwGroupby:
        return ParseGroupBy();
      case TokenKind::kKwSort:
        return ParseSort();
      default:
        return Error("expected a relation expression");
    }
  }

  Result<RelExprPtr> ParseGroupBy() {
    auto node = std::make_shared<RelExpr>();
    node->line = Peek().line;
    node->kind = RelExpr::Kind::kGroupBy;
    Advance();  // 'groupby'
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    if (!Check(TokenKind::kRBracket)) {
      while (true) {
        if (!Check(TokenKind::kAttrRef)) {
          return Error("grouping list expects attribute references (%i)");
        }
        node->keys.push_back(Advance().attr_index);
        if (Check(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    // One or more aggregate calls, then the input expression.
    while (true) {
      AggKind agg_kind;
      switch (Peek().kind) {
        case TokenKind::kKwCnt:
          agg_kind = AggKind::kCnt;
          break;
        case TokenKind::kKwSum:
          agg_kind = AggKind::kSum;
          break;
        case TokenKind::kKwAvg:
          agg_kind = AggKind::kAvg;
          break;
        case TokenKind::kKwMin:
          agg_kind = AggKind::kMin;
          break;
        case TokenKind::kKwMax:
          agg_kind = AggKind::kMax;
          break;
        default:
          if (node->aggs.empty()) {
            return Error("groupby expects at least one aggregate call");
          }
          goto aggregates_done;
      }
      Advance();
      MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      if (!Check(TokenKind::kAttrRef)) {
        return Error("aggregate call expects an attribute reference (%i)");
      }
      node->aggs.push_back(AggSpec{agg_kind, Advance().attr_index, {}});
      MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    }
  aggregates_done:
    MRA_ASSIGN_OR_RETURN(RelExprPtr input, ParseRelExpr());
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    node->children = {std::move(input)};
    return RelExprPtr(node);
  }

  /// sort([%1, -%2], E)  |  sort([%1], E, 10)
  /// A '-' prefix on a key sorts that key descending; the optional trailing
  /// integer is the multiplicity-weighted LIMIT.
  Result<RelExprPtr> ParseSort() {
    auto node = std::make_shared<RelExpr>();
    node->line = Peek().line;
    node->kind = RelExpr::Kind::kSort;
    Advance();  // 'sort'
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    if (!Check(TokenKind::kRBracket)) {
      while (true) {
        bool desc = false;
        if (Check(TokenKind::kMinus)) {
          Advance();
          desc = true;
        }
        if (!Check(TokenKind::kAttrRef)) {
          return Error("sort key list expects attribute references (%i)");
        }
        node->keys.push_back(Advance().attr_index);
        node->sort_desc.push_back(desc);
        if (Check(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    MRA_ASSIGN_OR_RETURN(RelExprPtr input, ParseRelExpr());
    if (Check(TokenKind::kComma)) {
      Advance();
      if (!Check(TokenKind::kIntLit)) {
        return Error("sort limit expects an integer");
      }
      node->limit = std::stoull(Advance().text);
      if (node->limit == 0) {
        return Error("sort limit must be >= 1 (omit it for no limit)");
      }
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    if (node->keys.empty() && node->limit == 0) {
      return Error("sort with no keys needs a limit");
    }
    node->children = {std::move(input)};
    return RelExprPtr(node);
  }

  Result<RelExprPtr> ParseRelationLiteral() {
    auto node = std::make_shared<RelExpr>();
    node->line = Peek().line;
    node->kind = RelExpr::Kind::kLiteral;
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    if (Check(TokenKind::kRBrace)) {
      return Error(
          "empty relation literal needs a schema: use empty(attr: type, …)");
    }
    std::vector<std::pair<Tuple, uint64_t>> entries;
    while (true) {
      MRA_ASSIGN_OR_RETURN(Tuple t, ParseTupleLiteral());
      uint64_t count = 1;
      if (Check(TokenKind::kColon)) {
        Advance();
        if (!Check(TokenKind::kIntLit)) {
          return Error("tuple multiplicity expects an integer");
        }
        count = std::stoull(Advance().text);
      }
      entries.emplace_back(std::move(t), count);
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    // Infer the schema from the first tuple; attribute names are positional.
    const Tuple& first = entries.front().first;
    std::vector<Attribute> attrs;
    attrs.reserve(first.arity());
    for (size_t i = 0; i < first.arity(); ++i) {
      attrs.push_back({"a" + std::to_string(i + 1), first.at(i).type()});
    }
    Relation rel((RelationSchema(std::move(attrs))));
    for (auto& [tuple, count] : entries) {
      Status s = rel.Insert(tuple, count);
      if (!s.ok()) {
        return Status::ParseError("relation literal at line " +
                                  std::to_string(node->line) +
                                  " is not uniform: " + s.message());
      }
    }
    node->literal = std::move(rel);
    return RelExprPtr(node);
  }

  Result<Tuple> ParseTupleLiteral() {
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    std::vector<Value> values;
    while (true) {
      MRA_ASSIGN_OR_RETURN(Value v, ParseValueLiteral());
      values.push_back(std::move(v));
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Tuple(std::move(values));
  }

  Result<Value> ParseValueLiteral() {
    bool negate = false;
    if (Check(TokenKind::kMinus)) {
      Advance();
      negate = true;
    }
    switch (Peek().kind) {
      case TokenKind::kIntLit: {
        int64_t v = std::stoll(Advance().text);
        return Value::Int(negate ? -v : v);
      }
      case TokenKind::kRealLit: {
        double v = std::stod(Advance().text);
        return Value::Real(negate ? -v : v);
      }
      case TokenKind::kStringLit:
        if (negate) return Error("cannot negate a string literal");
        return Value::Str(Advance().text);
      case TokenKind::kDateLit:
        if (negate) return Error("cannot negate a date literal");
        return Value::DateFromString(Advance().text);
      case TokenKind::kDecimalLit: {
        MRA_ASSIGN_OR_RETURN(Value v, Value::DecimalFromString(Advance().text));
        return negate ? Value::DecimalScaled(-v.decimal_scaled()) : v;
      }
      case TokenKind::kKwTrue:
        if (negate) return Error("cannot negate a boolean literal");
        Advance();
        return Value::Bool(true);
      case TokenKind::kKwFalse:
        if (negate) return Error("cannot negate a boolean literal");
        Advance();
        return Value::Bool(false);
      default:
        return Error("expected a value literal");
    }
  }

  // --- Scalar expressions. ---

  Result<std::vector<ExprPtr>> ParseScalarList() {
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    std::vector<ExprPtr> exprs;
    while (true) {
      MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseScalar());
      exprs.push_back(std::move(e));
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    MRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    return exprs;
  }

  Result<ExprPtr> ParseScalar() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseAnd());
    while (Check(TokenKind::kKwOr)) {
      Advance();
      MRA_ASSIGN_OR_RETURN(ExprPtr r, ParseAnd());
      e = Or(std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height()));
    }
    return e;
  }

  Result<ExprPtr> ParseAnd() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
    while (Check(TokenKind::kKwAnd)) {
      Advance();
      MRA_ASSIGN_OR_RETURN(ExprPtr r, ParseNot());
      e = And(std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height()));
    }
    return e;
  }

  Result<ExprPtr> ParseNot() {
    if (Check(TokenKind::kKwNot)) {
      MRA_RETURN_IF_ERROR(CheckDepth(1));
      Advance();
      ParseNesting::Level level(&nesting_);
      MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return e;
    }
    Advance();
    MRA_ASSIGN_OR_RETURN(ExprPtr r, ParseAdditive());
    e = std::make_shared<BinaryExpr>(op, std::move(e), std::move(r));
    MRA_RETURN_IF_ERROR(CheckDepth(e->height()));
    return e;
  }

  Result<ExprPtr> ParseAdditive() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseMultiplicative());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      BinaryOp op = Advance().kind == TokenKind::kPlus ? BinaryOp::kAdd
                                                       : BinaryOp::kSub;
      MRA_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
      e = std::make_shared<BinaryExpr>(op, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height()));
    }
    return e;
  }

  Result<ExprPtr> ParseMultiplicative() {
    MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      TokenKind t = Advance().kind;
      BinaryOp op = t == TokenKind::kStar    ? BinaryOp::kMul
                    : t == TokenKind::kSlash ? BinaryOp::kDiv
                                             : BinaryOp::kMod;
      MRA_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
      e = std::make_shared<BinaryExpr>(op, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height()));
    }
    return e;
  }

  Result<ExprPtr> ParseUnary() {
    if (Check(TokenKind::kMinus)) {
      MRA_RETURN_IF_ERROR(CheckDepth(1));
      Advance();
      ParseNesting::Level level(&nesting_);
      MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Neg(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    MRA_RETURN_IF_ERROR(CheckDepth(1));
    switch (Peek().kind) {
      case TokenKind::kAttrRef:
        return Attr(Advance().attr_index);
      case TokenKind::kIntLit:
        return Lit(Value::Int(std::stoll(Advance().text)));
      case TokenKind::kRealLit:
        return Lit(Value::Real(std::stod(Advance().text)));
      case TokenKind::kStringLit:
        return Lit(Value::Str(Advance().text));
      case TokenKind::kDateLit: {
        MRA_ASSIGN_OR_RETURN(Value v, Value::DateFromString(Advance().text));
        return Lit(std::move(v));
      }
      case TokenKind::kDecimalLit: {
        MRA_ASSIGN_OR_RETURN(Value v, Value::DecimalFromString(Advance().text));
        return Lit(std::move(v));
      }
      case TokenKind::kKwTrue:
        Advance();
        return Lit(Value::Bool(true));
      case TokenKind::kKwFalse:
        Advance();
        return Lit(Value::Bool(false));
      case TokenKind::kLParen: {
        Advance();
        ParseNesting::Level level(&nesting_);
        MRA_ASSIGN_OR_RETURN(ExprPtr e, ParseScalar());
        MRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return e;
      }
      default:
        return Error("expected a scalar expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParseNesting nesting_;  // Against kMaxParseDepth.
};

}  // namespace

Result<Script> ParseScript(std::string_view source) {
  MRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseScript();
}

Result<RelExprPtr> ParseRelExpr(std::string_view source) {
  MRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleRelExpr();
}

Result<ExprPtr> ParseScalarExpr(std::string_view source) {
  MRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleScalar();
}

}  // namespace lang
}  // namespace mra
