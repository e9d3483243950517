#include "mra/util/printer.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace mra {
namespace util {

std::string RenderTable(const Relation& relation, PrintOptions options) {
  const RelationSchema& schema = relation.schema();
  const auto entries = relation.SortedView();

  bool any_dup = false;
  for (const Relation::Entry* entry : entries) any_dup |= (entry->second > 1);
  const bool show_count = options.show_multiplicity && any_dup;

  // Column headers.
  std::vector<std::string> headers;
  for (size_t i = 0; i < schema.arity(); ++i) {
    const Attribute& a = schema.attribute(i);
    headers.push_back(a.name.empty() ? "%" + std::to_string(i + 1) : a.name);
  }
  if (show_count) headers.push_back("#");

  // Cell matrix.
  size_t limit = options.max_rows == 0
                     ? entries.size()
                     : std::min(entries.size(), options.max_rows);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(limit);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> cells;
    const auto& [tuple, count] = *entries[r];
    for (size_t i = 0; i < tuple.arity(); ++i) {
      cells.push_back(tuple.at(i).ToString());
    }
    if (show_count) cells.push_back(std::to_string(count));
    rows.push_back(std::move(cells));
  }

  // Column widths.
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      out << " " << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
          << " |";
    }
    out << "\n";
  };
  auto emit_rule = [&] {
    out << "+";
    for (size_t w : widths) out << std::string(w + 2, '-') << "+";
    out << "\n";
  };

  emit_rule();
  emit_row(headers);
  emit_rule();
  for (const auto& row : rows) emit_row(row);
  emit_rule();
  if (limit < entries.size()) {
    out << "(" << entries.size() - limit << " more distinct tuples elided)\n";
  }
  return out.str();
}

void PrintRelation(std::ostream& out, const Relation& relation,
                   PrintOptions options) {
  const std::string& name = relation.schema().name();
  out << (name.empty() ? "<result>" : name) << ": " << relation.size()
      << " tuples (" << relation.distinct_size() << " distinct)\n";
  out << RenderTable(relation, options);
}

}  // namespace util
}  // namespace mra
