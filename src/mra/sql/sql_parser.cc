#include "mra/sql/sql_parser.h"

#include "mra/common/limits.h"
#include "mra/sql/sql_lexer.h"

namespace mra {
namespace sql {

namespace {

class SqlParser {
 public:
  explicit SqlParser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::vector<SqlStatement>> Run() {
    std::vector<SqlStatement> out;
    while (!Check(SqlTokenKind::kEnd)) {
      if (Check(SqlTokenKind::kSemicolon)) {
        Advance();
        continue;
      }
      MRA_ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatement());
      out.push_back(std::move(stmt));
      if (Check(SqlTokenKind::kSemicolon)) {
        Advance();
      } else if (!Check(SqlTokenKind::kEnd)) {
        return Error("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  const SqlToken& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const SqlToken& Advance() { return tokens_[pos_++]; }
  bool Check(SqlTokenKind kind) const { return Peek().kind == kind; }
  bool CheckKw(std::string_view kw, size_t ahead = 0) const {
    return Peek(ahead).kind == SqlTokenKind::kIdentifier &&
           Peek(ahead).upper == kw;
  }
  bool AcceptKw(std::string_view kw) {
    if (!CheckKw(kw)) return false;
    Advance();
    return true;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (found " + Peek().Describe() +
                              " at line " + std::to_string(Peek().line) + ")");
  }

  // Refuses a subtree `height` levels tall at the parse position.
  Status CheckDepth(uint32_t height) const {
    if (nesting_.Fits(height)) return Status::OK();
    return Error(ParseNesting::LimitMessage());
  }

  Status ExpectKw(std::string_view kw) {
    if (!AcceptKw(kw)) return Error("expected " + std::string(kw));
    return Status::OK();
  }

  Status Expect(SqlTokenKind kind, const char* what) {
    if (!Check(kind)) return Error(std::string("expected ") + what);
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectName(const char* what) {
    if (!Check(SqlTokenKind::kIdentifier)) {
      return Error(std::string("expected ") + what);
    }
    return Advance().text;
  }

  Result<SqlStatement> ParseStatement() {
    if (AcceptKw("EXPLAIN")) {
      ExplainStmt stmt;
      stmt.analyze = AcceptKw("ANALYZE");
      if (!CheckKw("SELECT")) {
        return Error("expected SELECT after EXPLAIN");
      }
      MRA_ASSIGN_OR_RETURN(SqlStatement select, ParseSelect());
      stmt.select =
          std::make_shared<SelectStmt>(std::get<SelectStmt>(std::move(select)));
      return SqlStatement(std::move(stmt));
    }
    if (CheckKw("SELECT")) return ParseSelect();
    if (CheckKw("INSERT")) return ParseInsert();
    if (CheckKw("UPDATE")) return ParseUpdate();
    if (CheckKw("DELETE")) return ParseDelete();
    if (CheckKw("CREATE")) return ParseCreate();
    if (CheckKw("DROP")) return ParseDrop();
    if (AcceptKw("ANALYZE")) {
      AnalyzeStmt stmt;
      MRA_ASSIGN_OR_RETURN(stmt.table, ExpectName("table name"));
      return SqlStatement(std::move(stmt));
    }
    // Statement-initial SET is unambiguous: UPDATE's SET clause only
    // appears after UPDATE <table>.
    if (AcceptKw("SET")) {
      SetStmt stmt;
      MRA_ASSIGN_OR_RETURN(stmt.knob, ExpectName("knob name"));
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kEq, "="));
      // The value travels verbatim; ExecConfig::Set parses it against the
      // knob's type (number or boolean).
      if (Check(SqlTokenKind::kIntLit) || Check(SqlTokenKind::kIdentifier)) {
        stmt.value = Advance().text;
        return SqlStatement(std::move(stmt));
      }
      return Error("expected a knob value");
    }
    if (AcceptKw("BEGIN")) {
      (void)(AcceptKw("WORK") || AcceptKw("TRANSACTION"));
      return SqlStatement(TxnControl::kBegin);
    }
    if (AcceptKw("COMMIT")) {
      (void)(AcceptKw("WORK") || AcceptKw("TRANSACTION"));
      return SqlStatement(TxnControl::kCommit);
    }
    if (AcceptKw("ROLLBACK")) {
      (void)(AcceptKw("WORK") || AcceptKw("TRANSACTION"));
      return SqlStatement(TxnControl::kRollback);
    }
    return Error("expected a SQL statement");
  }

  static Result<AggKind> AggFromKeyword(const std::string& upper) {
    if (upper == "COUNT") return AggKind::kCnt;
    if (upper == "SUM") return AggKind::kSum;
    if (upper == "AVG") return AggKind::kAvg;
    if (upper == "MIN") return AggKind::kMin;
    if (upper == "MAX") return AggKind::kMax;
    return Status::NotFound("not an aggregate");
  }

  bool AtAggregateCall() const {
    if (Peek().kind != SqlTokenKind::kIdentifier) return false;
    if (!AggFromKeyword(Peek().upper).ok()) return false;
    return Peek(1).kind == SqlTokenKind::kLParen;
  }

  Result<SqlStatement> ParseSelect() {
    MRA_RETURN_IF_ERROR(ExpectKw("SELECT"));
    SelectStmt stmt;
    stmt.distinct = AcceptKw("DISTINCT");
    if (AcceptKw("ALL")) stmt.distinct = false;

    while (true) {
      SelectItem item;
      if (Check(SqlTokenKind::kStar)) {
        Advance();
        item.kind = SelectItem::Kind::kStar;
      } else if (AtAggregateCall()) {
        MRA_ASSIGN_OR_RETURN(item.agg, AggFromKeyword(Advance().upper));
        item.kind = SelectItem::Kind::kAggregate;
        MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kLParen, "'('"));
        if (Check(SqlTokenKind::kStar)) {
          Advance();  // COUNT(*)
          if (item.agg != AggKind::kCnt) {
            return Error("only COUNT accepts *");
          }
        } else {
          MRA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        }
        MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
      } else {
        item.kind = SelectItem::Kind::kExpr;
        MRA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      if (AcceptKw("AS")) {
        MRA_ASSIGN_OR_RETURN(item.alias, ExpectName("alias"));
      }
      stmt.items.push_back(std::move(item));
      if (Check(SqlTokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }

    MRA_RETURN_IF_ERROR(ExpectKw("FROM"));
    while (true) {
      // n tables translate to a product chain n levels deep.
      MRA_RETURN_IF_ERROR(
          CheckDepth(static_cast<uint32_t>(stmt.tables.size()) + 1));
      MRA_ASSIGN_OR_RETURN(std::string table, ExpectName("table name"));
      stmt.tables.push_back(std::move(table));
      if (Check(SqlTokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }

    if (AcceptKw("WHERE")) {
      MRA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKw("GROUP")) {
      MRA_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        MRA_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        stmt.group_by.push_back(std::move(ref));
        if (Check(SqlTokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (AcceptKw("HAVING")) {
      MRA_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (AcceptKw("ORDER")) {
      MRA_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        OrderItem item;
        MRA_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        if (AcceptKw("DESC")) {
          item.desc = true;
        } else {
          (void)AcceptKw("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (Check(SqlTokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (AcceptKw("LIMIT")) {
      if (!Check(SqlTokenKind::kIntLit)) {
        return Error("expected a row count after LIMIT");
      }
      stmt.limit = std::stoull(Advance().text);
      if (stmt.limit == 0) {
        return Error("LIMIT must be >= 1 (omit it for no limit)");
      }
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseInsert() {
    MRA_RETURN_IF_ERROR(ExpectKw("INSERT"));
    MRA_RETURN_IF_ERROR(ExpectKw("INTO"));
    InsertStmt stmt;
    MRA_ASSIGN_OR_RETURN(stmt.table, ExpectName("table name"));
    MRA_RETURN_IF_ERROR(ExpectKw("VALUES"));
    while (true) {
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kLParen, "'('"));
      std::vector<Value> row;
      while (true) {
        MRA_ASSIGN_OR_RETURN(Value v, ParseValueLiteral());
        row.push_back(std::move(v));
        if (Check(SqlTokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
      stmt.rows.push_back(std::move(row));
      if (Check(SqlTokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseUpdate() {
    MRA_RETURN_IF_ERROR(ExpectKw("UPDATE"));
    UpdateStmt stmt;
    MRA_ASSIGN_OR_RETURN(stmt.table, ExpectName("table name"));
    MRA_RETURN_IF_ERROR(ExpectKw("SET"));
    while (true) {
      MRA_ASSIGN_OR_RETURN(std::string column, ExpectName("column name"));
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kEq, "'='"));
      MRA_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(column), std::move(value));
      if (Check(SqlTokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    if (AcceptKw("WHERE")) {
      MRA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseDelete() {
    MRA_RETURN_IF_ERROR(ExpectKw("DELETE"));
    MRA_RETURN_IF_ERROR(ExpectKw("FROM"));
    DeleteStmt stmt;
    MRA_ASSIGN_OR_RETURN(stmt.table, ExpectName("table name"));
    if (AcceptKw("WHERE")) {
      MRA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return SqlStatement(std::move(stmt));
  }

  Result<Type> ParseSqlType() {
    MRA_ASSIGN_OR_RETURN(std::string name, ExpectName("type name"));
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    Type type = Type::Int();
    if (upper == "INT" || upper == "INTEGER" || upper == "BIGINT") {
      type = Type::Int();
    } else if (upper == "REAL" || upper == "FLOAT" || upper == "DOUBLE") {
      type = Type::Real();
    } else if (upper == "BOOL" || upper == "BOOLEAN") {
      type = Type::Bool();
    } else if (upper == "STRING" || upper == "TEXT" || upper == "VARCHAR" ||
               upper == "CHAR") {
      type = Type::String();
    } else if (upper == "DATE") {
      type = Type::Date();
    } else if (upper == "DECIMAL" || upper == "NUMERIC" || upper == "MONEY") {
      type = Type::Decimal();
    } else {
      return Error("unknown SQL type " + name);
    }
    // Optional length/precision arguments, accepted and ignored.
    if (Check(SqlTokenKind::kLParen)) {
      Advance();
      while (!Check(SqlTokenKind::kRParen) && !Check(SqlTokenKind::kEnd)) {
        Advance();
      }
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
    }
    return type;
  }

  Result<SqlStatement> ParseCreate() {
    MRA_RETURN_IF_ERROR(ExpectKw("CREATE"));
    MRA_RETURN_IF_ERROR(ExpectKw("TABLE"));
    MRA_ASSIGN_OR_RETURN(std::string name, ExpectName("table name"));
    MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kLParen, "'('"));
    std::vector<Attribute> attrs;
    while (true) {
      MRA_ASSIGN_OR_RETURN(std::string column, ExpectName("column name"));
      MRA_ASSIGN_OR_RETURN(Type type, ParseSqlType());
      attrs.push_back({std::move(column), type});
      if (Check(SqlTokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
    CreateTableStmt stmt;
    stmt.schema = RelationSchema(std::move(name), std::move(attrs));
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseDrop() {
    MRA_RETURN_IF_ERROR(ExpectKw("DROP"));
    MRA_RETURN_IF_ERROR(ExpectKw("TABLE"));
    DropTableStmt stmt;
    MRA_ASSIGN_OR_RETURN(stmt.table, ExpectName("table name"));
    return SqlStatement(std::move(stmt));
  }

  // --- Scalar expressions. ---

  Result<ColumnRef> ParseColumnRef() {
    MRA_ASSIGN_OR_RETURN(std::string first, ExpectName("column name"));
    ColumnRef ref;
    if (Check(SqlTokenKind::kDot)) {
      Advance();
      ref.table = std::move(first);
      MRA_ASSIGN_OR_RETURN(ref.column, ExpectName("column name"));
    } else {
      ref.column = std::move(first);
    }
    return ref;
  }

  Result<Value> ParseValueLiteral() {
    bool negate = false;
    if (Check(SqlTokenKind::kMinus)) {
      Advance();
      negate = true;
    }
    if (Check(SqlTokenKind::kIntLit)) {
      int64_t v = std::stoll(Advance().text);
      return Value::Int(negate ? -v : v);
    }
    if (Check(SqlTokenKind::kRealLit)) {
      double v = std::stod(Advance().text);
      return Value::Real(negate ? -v : v);
    }
    if (negate) return Error("cannot negate a non-numeric literal");
    if (Check(SqlTokenKind::kStringLit)) return Value::Str(Advance().text);
    if (AcceptKw("TRUE")) return Value::Bool(true);
    if (AcceptKw("FALSE")) return Value::Bool(false);
    if (CheckKw("DATE") && Peek(1).kind == SqlTokenKind::kStringLit) {
      Advance();
      return Value::DateFromString(Advance().text);
    }
    if (CheckKw("DECIMAL") && Peek(1).kind == SqlTokenKind::kStringLit) {
      Advance();
      return Value::DecimalFromString(Advance().text);
    }
    return Error("expected a literal value");
  }

  bool AtLiteral() const {
    switch (Peek().kind) {
      case SqlTokenKind::kIntLit:
      case SqlTokenKind::kRealLit:
      case SqlTokenKind::kStringLit:
        return true;
      default:
        return CheckKw("TRUE") || CheckKw("FALSE") ||
               ((CheckKw("DATE") || CheckKw("DECIMAL")) &&
                Peek(1).kind == SqlTokenKind::kStringLit);
    }
  }

  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }

  Result<SqlExprPtr> ParseOr() {
    MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseAnd());
    while (AcceptKw("OR")) {
      MRA_ASSIGN_OR_RETURN(SqlExprPtr r, ParseAnd());
      e = SqlBinary(BinaryOp::kOr, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height));
    }
    return e;
  }

  Result<SqlExprPtr> ParseAnd() {
    MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseNot());
    while (AcceptKw("AND")) {
      MRA_ASSIGN_OR_RETURN(SqlExprPtr r, ParseNot());
      e = SqlBinary(BinaryOp::kAnd, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height));
    }
    return e;
  }

  Result<SqlExprPtr> ParseNot() {
    if (AcceptKw("NOT")) {
      MRA_RETURN_IF_ERROR(CheckDepth(1));
      ParseNesting::Level level(&nesting_);
      MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseNot());
      return SqlUnary(UnaryOp::kNot, std::move(e));
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case SqlTokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case SqlTokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case SqlTokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case SqlTokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case SqlTokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case SqlTokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return e;
    }
    Advance();
    MRA_ASSIGN_OR_RETURN(SqlExprPtr r, ParseAdditive());
    e = SqlBinary(op, std::move(e), std::move(r));
    MRA_RETURN_IF_ERROR(CheckDepth(e->height));
    return e;
  }

  Result<SqlExprPtr> ParseAdditive() {
    MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseMultiplicative());
    while (Check(SqlTokenKind::kPlus) || Check(SqlTokenKind::kMinus)) {
      BinaryOp op = Advance().kind == SqlTokenKind::kPlus ? BinaryOp::kAdd
                                                          : BinaryOp::kSub;
      MRA_ASSIGN_OR_RETURN(SqlExprPtr r, ParseMultiplicative());
      e = SqlBinary(op, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height));
    }
    return e;
  }

  Result<SqlExprPtr> ParseMultiplicative() {
    MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseUnary());
    while (Check(SqlTokenKind::kStar) || Check(SqlTokenKind::kSlash) ||
           Check(SqlTokenKind::kPercent)) {
      SqlTokenKind t = Advance().kind;
      BinaryOp op = t == SqlTokenKind::kStar    ? BinaryOp::kMul
                    : t == SqlTokenKind::kSlash ? BinaryOp::kDiv
                                                : BinaryOp::kMod;
      MRA_ASSIGN_OR_RETURN(SqlExprPtr r, ParseUnary());
      e = SqlBinary(op, std::move(e), std::move(r));
      MRA_RETURN_IF_ERROR(CheckDepth(e->height));
    }
    return e;
  }

  Result<SqlExprPtr> ParseUnary() {
    if (Check(SqlTokenKind::kMinus)) {
      MRA_RETURN_IF_ERROR(CheckDepth(1));
      Advance();
      ParseNesting::Level level(&nesting_);
      MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseUnary());
      return SqlUnary(UnaryOp::kNeg, std::move(e));
    }
    return ParsePrimary();
  }

  Result<SqlExprPtr> ParsePrimary() {
    MRA_RETURN_IF_ERROR(CheckDepth(1));
    // One level for a parenthesis' contents or an aggregate's argument.
    ParseNesting::Level level(&nesting_);
    if (Check(SqlTokenKind::kLParen)) {
      Advance();
      MRA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
      return e;
    }
    if (AtLiteral()) {
      MRA_ASSIGN_OR_RETURN(Value v, ParseValueLiteral());
      return SqlLiteral(std::move(v));
    }
    if (AtAggregateCall()) {
      // Aggregate call in an expression context (valid in HAVING; the
      // translator rejects it in WHERE).
      MRA_ASSIGN_OR_RETURN(AggKind agg, AggFromKeyword(Advance().upper));
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kLParen, "'('"));
      SqlExprPtr arg;
      if (Check(SqlTokenKind::kStar)) {
        Advance();
        if (agg != AggKind::kCnt) return Error("only COUNT accepts *");
      } else {
        MRA_ASSIGN_OR_RETURN(arg, ParseExpr());
      }
      MRA_RETURN_IF_ERROR(Expect(SqlTokenKind::kRParen, "')'"));
      return SqlAggregate(agg, std::move(arg));
    }
    if (Check(SqlTokenKind::kIdentifier)) {
      MRA_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      return SqlColumn(std::move(ref));
    }
    return Error("expected an expression");
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  ParseNesting nesting_;  // Against kMaxParseDepth.
};

}  // namespace

Result<std::vector<SqlStatement>> ParseSql(std::string_view source) {
  MRA_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, SqlTokenize(source));
  return SqlParser(std::move(tokens)).Run();
}

}  // namespace sql
}  // namespace mra
