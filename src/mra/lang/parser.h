// Recursive-descent parser for XRA scripts.
//
// Grammar sketch (see docs/LANGUAGE.md for the full language reference):
//
//   script  := item*
//   item    := 'begin' stmt (';' stmt)* 'end' [';']  |  stmt [';']
//   stmt    := 'create' name '(' attr ':' type {',' …} ')'
//            | 'drop' name
//            | 'insert' '(' name ',' rexpr ')'
//            | 'delete' '(' name ',' rexpr ')'
//            | 'update' '(' name ',' rexpr ',' '[' scalar {',' …} ']' ')'
//            | name ':=' rexpr
//            | '?' rexpr
//   rexpr   := name | '{' tuple [':' mult] {',' …} '}' | 'empty' '(' … ')'
//            | 'union'|'diff'|'intersect'|'product' '(' rexpr ',' rexpr ')'
//            | 'join' '(' scalar ',' rexpr ',' rexpr ')'
//            | 'select' '(' scalar ',' rexpr ')'
//            | 'project' '(' '[' scalar {',' …} ']' ',' rexpr ')'
//            | 'unique' '(' rexpr ')'
//            | 'groupby' '(' '[' %i {',' …} ']' ',' agg '(' %i ')' {',' …}
//                        ',' rexpr ')'
//
// Scalar expressions use the usual precedence:
// or < and < not < comparisons < + - < * / % < unary - < primary.
//
// Input that nests kMaxParseDepth levels deep (common/limits.h) is a
// ParseError, whether the nesting is recursive or a long operator chain.

#ifndef MRA_LANG_PARSER_H_
#define MRA_LANG_PARSER_H_

#include <string_view>

#include "mra/common/result.h"
#include "mra/lang/ast.h"

namespace mra {
namespace lang {

/// Parses a whole script (statements and begin/end transactions).
Result<Script> ParseScript(std::string_view source);

/// Parses a single relation expression (for embedding / tests).
Result<RelExprPtr> ParseRelExpr(std::string_view source);

/// Parses a single scalar expression (for embedding / tests).
Result<ExprPtr> ParseScalarExpr(std::string_view source);

}  // namespace lang
}  // namespace mra

#endif  // MRA_LANG_PARSER_H_
