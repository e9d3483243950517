// Recursive-descent parser for the SQL subset (see sql_ast.h).

#ifndef MRA_SQL_SQL_PARSER_H_
#define MRA_SQL_SQL_PARSER_H_

#include <string_view>
#include <vector>

#include "mra/common/result.h"
#include "mra/sql/sql_ast.h"

namespace mra {
namespace sql {

/// Parses a `;`-separated sequence of SQL statements.  Input that nests
/// kMaxParseDepth levels deep (common/limits.h) is a ParseError.
Result<std::vector<SqlStatement>> ParseSql(std::string_view source);

}  // namespace sql
}  // namespace mra

#endif  // MRA_SQL_SQL_PARSER_H_
