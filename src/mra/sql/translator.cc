#include "mra/sql/translator.h"

#include "mra/sql/sql_parser.h"

namespace mra {
namespace sql {

Result<NameScope> NameScope::ForTables(const std::vector<std::string>& tables,
                                       const RelationProvider& provider) {
  if (tables.empty()) {
    return Status::InvalidArgument("FROM list must name at least one table");
  }
  NameScope scope;
  RelationSchema combined;
  for (const std::string& table : tables) {
    MRA_ASSIGN_OR_RETURN(const Relation* rel, provider.GetRelation(table));
    scope.tables_.push_back(
        {table, combined.arity(), rel->schema().arity()});
    combined = combined.Concat(rel->schema());
  }
  scope.combined_ = std::move(combined);
  return scope;
}

Result<size_t> NameScope::Resolve(const ColumnRef& ref) const {
  size_t found = combined_.arity();
  for (const TableEntry& table : tables_) {
    if (!ref.table.empty() && ref.table != table.name) continue;
    for (size_t i = 0; i < table.arity; ++i) {
      size_t global = table.offset + i;
      if (combined_.attribute(global).name != ref.column) continue;
      if (found != combined_.arity()) {
        return Status::InvalidArgument("ambiguous column reference " +
                                       ref.ToString());
      }
      found = global;
    }
  }
  if (found == combined_.arity()) {
    return Status::NotFound("unknown column " + ref.ToString());
  }
  return found;
}

Result<ExprPtr> TranslateExpr(const SqlExpr& expr, const NameScope& scope) {
  switch (expr.kind) {
    case SqlExpr::Kind::kColumn: {
      MRA_ASSIGN_OR_RETURN(size_t index, scope.Resolve(expr.column));
      return Attr(index);
    }
    case SqlExpr::Kind::kLiteral:
      return Lit(expr.literal);
    case SqlExpr::Kind::kUnary: {
      MRA_ASSIGN_OR_RETURN(ExprPtr operand, TranslateExpr(*expr.lhs, scope));
      return expr.unary_op == UnaryOp::kNeg ? Neg(std::move(operand))
                                            : Not(std::move(operand));
    }
    case SqlExpr::Kind::kBinary: {
      MRA_ASSIGN_OR_RETURN(ExprPtr lhs, TranslateExpr(*expr.lhs, scope));
      MRA_ASSIGN_OR_RETURN(ExprPtr rhs, TranslateExpr(*expr.rhs, scope));
      return ExprPtr(std::make_shared<BinaryExpr>(expr.binary_op,
                                                  std::move(lhs),
                                                  std::move(rhs)));
    }
    case SqlExpr::Kind::kAggregate:
      return Status::InvalidArgument(
          "aggregate " + expr.ToString() +
          " is only allowed in select lists and HAVING clauses");
  }
  return Status::Internal("bad SQL expression kind");
}

namespace {

// Builds the FROM-list product chain: t1 × t2 × … (left associated).
lang::RelExprPtr FromProduct(const std::vector<std::string>& tables) {
  auto name_node = [](const std::string& name) {
    auto node = std::make_shared<lang::RelExpr>();
    node->kind = lang::RelExpr::Kind::kName;
    node->name = name;
    return lang::RelExprPtr(node);
  };
  lang::RelExprPtr acc = name_node(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) {
    auto node = std::make_shared<lang::RelExpr>();
    node->kind = lang::RelExpr::Kind::kProduct;
    node->children = {std::move(acc), name_node(tables[i])};
    acc = node;
  }
  return acc;
}

lang::RelExprPtr WrapSelect(ExprPtr condition, lang::RelExprPtr input) {
  auto node = std::make_shared<lang::RelExpr>();
  node->kind = lang::RelExpr::Kind::kSelect;
  node->condition = std::move(condition);
  node->children = {std::move(input)};
  return node;
}

lang::RelExprPtr WrapProject(std::vector<ExprPtr> projections,
                             lang::RelExprPtr input) {
  auto node = std::make_shared<lang::RelExpr>();
  node->kind = lang::RelExpr::Kind::kProject;
  node->projections = std::move(projections);
  node->children = {std::move(input)};
  return node;
}

lang::RelExprPtr WrapUnique(lang::RelExprPtr input) {
  auto node = std::make_shared<lang::RelExpr>();
  node->kind = lang::RelExpr::Kind::kUnique;
  node->children = {std::move(input)};
  return node;
}

bool HasAggregates(const SelectStmt& stmt) {
  for (const SelectItem& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kAggregate) return true;
  }
  return false;
}

bool ContainsAggregate(const SqlExpr& expr) {
  switch (expr.kind) {
    case SqlExpr::Kind::kAggregate:
      return true;
    case SqlExpr::Kind::kUnary:
      return ContainsAggregate(*expr.lhs);
    case SqlExpr::Kind::kBinary:
      return ContainsAggregate(*expr.lhs) || ContainsAggregate(*expr.rhs);
    default:
      return false;
  }
}

// Resolves one aggregate call to a position in `aggs`, appending a hidden
// AggSpec when the call has no select-list twin.
Result<size_t> ResolveAggregateCall(const SqlExpr& call,
                                    const NameScope& scope,
                                    std::vector<AggSpec>* aggs) {
  AggSpec spec;
  spec.kind = call.agg;
  if (call.lhs == nullptr) {
    spec.attr = 0;  // COUNT(*): dummy attribute.
  } else {
    if (call.lhs->kind != SqlExpr::Kind::kColumn) {
      return Status::InvalidArgument("aggregate argument must be a column: " +
                                     call.ToString());
    }
    MRA_ASSIGN_OR_RETURN(spec.attr, scope.Resolve(call.lhs->column));
  }
  for (size_t i = 0; i < aggs->size(); ++i) {
    if ((*aggs)[i].kind == spec.kind && (*aggs)[i].attr == spec.attr) {
      return i;
    }
  }
  aggs->push_back(std::move(spec));
  return aggs->size() - 1;
}

// Translates a HAVING expression into the group-by OUTPUT frame: grouped
// columns map to their key positions, aggregate calls to key-count + agg
// position (hidden aggregates are appended to `aggs` as needed).
Result<ExprPtr> TranslateHavingExpr(const SqlExpr& expr,
                                    const NameScope& scope,
                                    const std::vector<size_t>& keys,
                                    std::vector<AggSpec>* aggs) {
  switch (expr.kind) {
    case SqlExpr::Kind::kColumn: {
      MRA_ASSIGN_OR_RETURN(size_t index, scope.Resolve(expr.column));
      for (size_t k = 0; k < keys.size(); ++k) {
        if (keys[k] == index) return Attr(k);
      }
      return Status::InvalidArgument("HAVING references " +
                                     expr.column.ToString() +
                                     ", which is not in GROUP BY");
    }
    case SqlExpr::Kind::kLiteral:
      return Lit(expr.literal);
    case SqlExpr::Kind::kUnary: {
      MRA_ASSIGN_OR_RETURN(ExprPtr operand,
                           TranslateHavingExpr(*expr.lhs, scope, keys, aggs));
      return expr.unary_op == UnaryOp::kNeg ? Neg(std::move(operand))
                                            : Not(std::move(operand));
    }
    case SqlExpr::Kind::kBinary: {
      MRA_ASSIGN_OR_RETURN(ExprPtr lhs,
                           TranslateHavingExpr(*expr.lhs, scope, keys, aggs));
      MRA_ASSIGN_OR_RETURN(ExprPtr rhs,
                           TranslateHavingExpr(*expr.rhs, scope, keys, aggs));
      return ExprPtr(std::make_shared<BinaryExpr>(expr.binary_op,
                                                  std::move(lhs),
                                                  std::move(rhs)));
    }
    case SqlExpr::Kind::kAggregate: {
      MRA_ASSIGN_OR_RETURN(size_t pos,
                           ResolveAggregateCall(expr, scope, aggs));
      return Attr(keys.size() + pos);
    }
  }
  return Status::Internal("bad SQL expression kind");
}

// Resolves one ORDER BY column against the query's *output* frame: select
// aliases first, then (through `scope`) columns that survived into the
// output, whose source index is recorded in `sources` (nullopt for
// computed/aggregate outputs, addressable only by alias).
Result<size_t> ResolveOrderColumn(
    const ColumnRef& ref, const std::vector<std::string>& aliases,
    const std::vector<std::optional<size_t>>& sources,
    const NameScope& scope) {
  if (ref.table.empty()) {
    for (size_t i = 0; i < aliases.size(); ++i) {
      if (!aliases[i].empty() && aliases[i] == ref.column) return i;
    }
  }
  Result<size_t> resolved = scope.Resolve(ref);
  if (resolved.ok()) {
    for (size_t i = 0; i < sources.size(); ++i) {
      if (sources[i].has_value() && *sources[i] == resolved.value()) return i;
    }
  }
  return Status::NotFound("ORDER BY column " + ref.ToString() +
                          " is not in the select list");
}

// Wraps the translated query in a sort node when ORDER BY / LIMIT was
// given.  Outermost by design: SQL orders and limits the final result,
// after DISTINCT and HAVING.
Result<lang::RelExprPtr> WrapOrderByLimit(
    const SelectStmt& stmt, const std::vector<std::string>& aliases,
    const std::vector<std::optional<size_t>>& sources, const NameScope& scope,
    lang::RelExprPtr rel) {
  if (stmt.order_by.empty() && stmt.limit == 0) return rel;
  auto sort = std::make_shared<lang::RelExpr>();
  sort->kind = lang::RelExpr::Kind::kSort;
  for (const OrderItem& item : stmt.order_by) {
    MRA_ASSIGN_OR_RETURN(
        size_t pos, ResolveOrderColumn(item.column, aliases, sources, scope));
    sort->keys.push_back(pos);
    sort->sort_desc.push_back(item.desc);
  }
  sort->limit = stmt.limit;
  sort->children = {std::move(rel)};
  return lang::RelExprPtr(sort);
}

// The XRA statement kind a SQL statement translates to, known before any
// schema is read (transaction control has none).
lang::Stmt::Kind StatementKind(const SqlStatement& stmt) {
  using Kind = lang::Stmt::Kind;
  if (std::holds_alternative<SelectStmt>(stmt)) return Kind::kQuery;
  if (std::holds_alternative<InsertStmt>(stmt)) return Kind::kInsert;
  if (std::holds_alternative<UpdateStmt>(stmt)) return Kind::kUpdate;
  if (std::holds_alternative<DeleteStmt>(stmt)) return Kind::kDelete;
  if (std::holds_alternative<CreateTableStmt>(stmt)) return Kind::kCreate;
  if (std::holds_alternative<DropTableStmt>(stmt)) return Kind::kDrop;
  if (std::holds_alternative<AnalyzeStmt>(stmt)) return Kind::kAnalyze;
  if (std::holds_alternative<SetStmt>(stmt)) return Kind::kSet;
  MRA_CHECK(std::holds_alternative<ExplainStmt>(stmt));
  return Kind::kExplain;
}

}  // namespace

Result<lang::RelExprPtr> TranslateSelect(const SelectStmt& stmt,
                                         const RelationProvider& provider) {
  MRA_ASSIGN_OR_RETURN(NameScope scope,
                       NameScope::ForTables(stmt.tables, provider));
  lang::RelExprPtr rel = FromProduct(stmt.tables);
  if (stmt.where != nullptr) {
    MRA_ASSIGN_OR_RETURN(ExprPtr cond, TranslateExpr(*stmt.where, scope));
    rel = WrapSelect(std::move(cond), std::move(rel));
  }

  const bool aggregate_query = HasAggregates(stmt) || !stmt.group_by.empty();
  if (!aggregate_query) {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument(
          "HAVING requires GROUP BY or aggregates in the select list");
    }
    // Plain projection; SELECT * keeps every column.  Alongside each output
    // column, record its alias and (for plain column references) its source
    // index in the FROM product, so ORDER BY can address the output frame.
    std::vector<ExprPtr> projections;
    std::vector<std::string> out_aliases;
    std::vector<std::optional<size_t>> out_sources;
    for (const SelectItem& item : stmt.items) {
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          for (size_t i = 0; i < scope.combined().arity(); ++i) {
            projections.push_back(Attr(i));
            out_aliases.emplace_back();
            out_sources.push_back(i);
          }
          break;
        case SelectItem::Kind::kExpr: {
          if (ContainsAggregate(*item.expr)) {
            return Status::InvalidArgument(
                "aggregate expressions in the select list must be bare "
                "calls: " +
                item.expr->ToString());
          }
          MRA_ASSIGN_OR_RETURN(ExprPtr e, TranslateExpr(*item.expr, scope));
          projections.push_back(std::move(e));
          out_aliases.push_back(item.alias);
          if (item.expr->kind == SqlExpr::Kind::kColumn) {
            MRA_ASSIGN_OR_RETURN(size_t src, scope.Resolve(item.expr->column));
            out_sources.push_back(src);
          } else {
            out_sources.push_back(std::nullopt);
          }
          break;
        }
        case SelectItem::Kind::kAggregate:
          return Status::Internal("unreachable");
      }
    }
    rel = WrapProject(std::move(projections), std::move(rel));
    if (stmt.distinct) rel = WrapUnique(std::move(rel));
    return WrapOrderByLimit(stmt, out_aliases, out_sources, scope,
                            std::move(rel));
  }

  // Aggregate query: GROUP BY keys + aggregate select items
  // (Definition 3.4 via the paper's own SQL equivalent in Example 3.2).
  std::vector<size_t> keys;
  for (const ColumnRef& ref : stmt.group_by) {
    MRA_ASSIGN_OR_RETURN(size_t index, scope.Resolve(ref));
    keys.push_back(index);
  }

  // Map each select item onto the groupby output: group keys come first,
  // aggregates after (in select-list order).
  std::vector<AggSpec> aggs;
  std::vector<size_t> output_positions;
  for (const SelectItem& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kStar:
        return Status::InvalidArgument(
            "SELECT * is not valid in an aggregate query");
      case SelectItem::Kind::kExpr: {
        if (item.expr->kind != SqlExpr::Kind::kColumn) {
          return Status::InvalidArgument(
              "non-aggregate select item must be a GROUP BY column: " +
              item.expr->ToString());
        }
        MRA_ASSIGN_OR_RETURN(size_t index, scope.Resolve(item.expr->column));
        size_t key_pos = keys.size();
        for (size_t k = 0; k < keys.size(); ++k) {
          if (keys[k] == index) {
            key_pos = k;
            break;
          }
        }
        if (key_pos == keys.size()) {
          return Status::InvalidArgument(
              "select item " + item.expr->ToString() +
              " does not appear in GROUP BY");
        }
        output_positions.push_back(key_pos);
        break;
      }
      case SelectItem::Kind::kAggregate: {
        AggSpec spec;
        spec.kind = item.agg;
        if (item.expr == nullptr) {
          spec.attr = 0;  // COUNT(*): the attribute is a dummy parameter.
        } else {
          if (item.expr->kind != SqlExpr::Kind::kColumn) {
            return Status::InvalidArgument(
                "aggregate argument must be a column: " +
                item.expr->ToString());
          }
          MRA_ASSIGN_OR_RETURN(spec.attr, scope.Resolve(item.expr->column));
        }
        spec.output_name = item.alias;
        output_positions.push_back(keys.size() + aggs.size());
        aggs.push_back(std::move(spec));
        break;
      }
    }
  }
  // HAVING may introduce hidden aggregates (ones not in the select list);
  // translate it before freezing the aggregate list.
  ExprPtr having;
  if (stmt.having != nullptr) {
    MRA_ASSIGN_OR_RETURN(having, TranslateHavingExpr(*stmt.having, scope,
                                                     keys, &aggs));
  }
  if (aggs.empty()) {
    return Status::InvalidArgument(
        "GROUP BY without aggregates is not supported (use SELECT DISTINCT)");
  }

  auto groupby = std::make_shared<lang::RelExpr>();
  groupby->kind = lang::RelExpr::Kind::kGroupBy;
  groupby->keys = keys;
  groupby->aggs = std::move(aggs);
  groupby->children = {std::move(rel)};
  lang::RelExprPtr result = groupby;

  // σ over Γ: HAVING in its algebraic form.
  if (having != nullptr) {
    result = WrapSelect(std::move(having), std::move(result));
  }

  // Reorder to the select-list order when it differs from keys ⊕ aggs
  // (hidden HAVING aggregates always force the projection).
  bool identity = output_positions.size() == keys.size() + groupby->aggs.size();
  for (size_t i = 0; identity && i < output_positions.size(); ++i) {
    identity = output_positions[i] == i;
  }
  if (!identity) {
    std::vector<ExprPtr> projections;
    projections.reserve(output_positions.size());
    for (size_t p : output_positions) projections.push_back(Attr(p));
    result = WrapProject(std::move(projections), std::move(result));
  }
  if (stmt.distinct) result = WrapUnique(std::move(result));

  // The final frame is in select-list order (the reorder projection above
  // guarantees it): group-key columns keep their FROM-product identity for
  // ORDER BY, aggregates are addressable by alias only.
  std::vector<std::string> out_aliases;
  std::vector<std::optional<size_t>> out_sources;
  for (const SelectItem& item : stmt.items) {
    out_aliases.push_back(item.alias);
    if (item.kind == SelectItem::Kind::kExpr) {
      MRA_ASSIGN_OR_RETURN(size_t src, scope.Resolve(item.expr->column));
      out_sources.push_back(src);
    } else {
      out_sources.push_back(std::nullopt);
    }
  }
  return WrapOrderByLimit(stmt, out_aliases, out_sources, scope,
                          std::move(result));
}

Result<Value> CoerceValue(const Value& v, Type target) {
  if (v.type() == target) return v;
  if (v.kind() == TypeKind::kInt && target.kind() == TypeKind::kReal) {
    return Value::Real(static_cast<double>(v.int_value()));
  }
  if (v.kind() == TypeKind::kInt && target.kind() == TypeKind::kDecimal) {
    return Value::Decimal(v.int_value());
  }
  return Status::TypeError("cannot coerce " + v.ToString() + " to " +
                           target.ToString());
}

Result<lang::Stmt> TranslateStatement(const SqlStatement& stmt,
                                      const RelationProvider& provider) {
  if (std::holds_alternative<TxnControl>(stmt)) {
    return Status::InvalidArgument(
        "transaction control has no statement translation");
  }
  lang::Stmt out;
  out.kind = StatementKind(stmt);
  if (const auto* select = std::get_if<SelectStmt>(&stmt)) {
    MRA_ASSIGN_OR_RETURN(out.expr, TranslateSelect(*select, provider));
    return out;
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    MRA_ASSIGN_OR_RETURN(const Relation* rel,
                         provider.GetRelation(insert->table));
    const RelationSchema& schema = rel->schema();
    Relation literal(schema);
    for (const std::vector<Value>& row : insert->rows) {
      if (row.size() != schema.arity()) {
        return Status::InvalidArgument(
            "INSERT row has " + std::to_string(row.size()) +
            " values, table " + insert->table + " has " +
            std::to_string(schema.arity()) + " columns");
      }
      std::vector<Value> coerced;
      coerced.reserve(row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        MRA_ASSIGN_OR_RETURN(Value v, CoerceValue(row[i], schema.TypeOf(i)));
        coerced.push_back(std::move(v));
      }
      MRA_RETURN_IF_ERROR(literal.Insert(Tuple(std::move(coerced))));
    }
    out.target = insert->table;
    auto node = std::make_shared<lang::RelExpr>();
    node->kind = lang::RelExpr::Kind::kLiteral;
    node->literal = std::move(literal);
    out.expr = std::move(node);
    return out;
  }
  if (const auto* update = std::get_if<UpdateStmt>(&stmt)) {
    MRA_ASSIGN_OR_RETURN(NameScope scope,
                         NameScope::ForTables({update->table}, provider));
    // E = σ_p(R), or R itself without WHERE (Example 4.1).
    lang::RelExprPtr target_expr = FromProduct({update->table});
    if (update->where != nullptr) {
      MRA_ASSIGN_OR_RETURN(ExprPtr cond, TranslateExpr(*update->where, scope));
      target_expr = WrapSelect(std::move(cond), std::move(target_expr));
    }
    // α: assigned columns take their SET expression, others pass through.
    std::vector<ExprPtr> alpha;
    const RelationSchema& schema = scope.combined();
    alpha.reserve(schema.arity());
    for (size_t i = 0; i < schema.arity(); ++i) alpha.push_back(Attr(i));
    std::vector<bool> assigned(schema.arity(), false);
    for (const auto& [column, value] : update->assignments) {
      MRA_ASSIGN_OR_RETURN(size_t index,
                           scope.Resolve(ColumnRef{"", column}));
      if (assigned[index]) {
        return Status::InvalidArgument("column " + column +
                                       " assigned twice in UPDATE");
      }
      assigned[index] = true;
      MRA_ASSIGN_OR_RETURN(alpha[index], TranslateExpr(*value, scope));
    }
    out.target = update->table;
    out.expr = std::move(target_expr);
    out.alpha = std::move(alpha);
    return out;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    MRA_ASSIGN_OR_RETURN(NameScope scope,
                         NameScope::ForTables({del->table}, provider));
    lang::RelExprPtr target_expr = FromProduct({del->table});
    if (del->where != nullptr) {
      MRA_ASSIGN_OR_RETURN(ExprPtr cond, TranslateExpr(*del->where, scope));
      target_expr = WrapSelect(std::move(cond), std::move(target_expr));
    }
    out.target = del->table;
    out.expr = std::move(target_expr);
    return out;
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    out.target = create->schema.name();
    out.schema = create->schema;
    return out;
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    out.target = drop->table;
    return out;
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    out.analyze = explain->analyze;
    MRA_ASSIGN_OR_RETURN(out.expr,
                         TranslateSelect(*explain->select, provider));
    return out;
  }
  if (const auto* analyze = std::get_if<AnalyzeStmt>(&stmt)) {
    out.target = analyze->table;
    return out;
  }
  const SetStmt& set = std::get<SetStmt>(stmt);
  out.target = set.knob;
  out.value = set.value;
  return out;
}

SqlSession::~SqlSession() {
  if (txn_ != nullptr) {
    (void)txn_->Abort();
  }
}

Status SqlSession::ExecuteOne(
    const SqlStatement& stmt,
    const lang::Interpreter::QueryCallback& on_query) {
  if (const auto* control = std::get_if<TxnControl>(&stmt)) {
    if (*control == TxnControl::kBegin) {
      if (txn_ != nullptr) {
        return Status::TxnError("transaction already in progress");
      }
      MRA_ASSIGN_OR_RETURN(
          txn_, db_->Begin(interp_.options().session.block_on_txn_slot));
      return Status::OK();
    }
    const bool commit = *control == TxnControl::kCommit;
    if (txn_ == nullptr) {
      return Status::TxnError(std::string(commit ? "COMMIT" : "ROLLBACK") +
                              " outside a transaction");
    }
    std::unique_ptr<Transaction> txn = std::move(txn_);
    return commit ? txn->Commit() : txn->Abort();
  }

  Status s = interp_.ExecuteItem(
      StatementKind(stmt),
      [&stmt](const RelationProvider& view) {
        return TranslateStatement(stmt, view);
      },
      on_query, txn_.get());
  // A failure inside an explicit bracket aborted it (Definition 4.3).
  if (txn_ != nullptr && !txn_->active()) txn_.reset();
  return s;
}

Status SqlSession::Execute(std::string_view sql_text,
                           const lang::Interpreter::QueryCallback& on_query) {
  MRA_ASSIGN_OR_RETURN(std::vector<SqlStatement> stmts, ParseSql(sql_text));
  for (const SqlStatement& stmt : stmts) {
    MRA_RETURN_IF_ERROR(ExecuteOne(stmt, on_query));
  }
  return Status::OK();
}

Result<std::vector<Relation>> SqlSession::ExecuteCollect(
    std::string_view sql_text) {
  std::vector<Relation> results;
  MRA_RETURN_IF_ERROR(
      Execute(sql_text, [&results](const std::string&, const Relation& r) {
        results.push_back(r);
      }));
  return results;
}

}  // namespace sql
}  // namespace mra
