#include "mra/util/csv.h"

#include <cstdio>
#include <vector>

namespace mra {
namespace util {

namespace {

// Splits one logical CSV record starting at `pos`; advances pos past the
// record's trailing newline.  Handles quoted fields with embedded commas,
// quotes and newlines.
Result<std::vector<std::string>> ParseRecord(std::string_view csv,
                                             size_t* pos, int* line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool quoted_field = false;
  size_t i = *pos;
  for (; i < csv.size(); ++i) {
    char c = csv[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++*line;
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::ParseError("stray quote in CSV at line " +
                                    std::to_string(*line));
        }
        in_quotes = true;
        quoted_field = true;
        continue;
      case ',':
        fields.push_back(std::move(field));
        field.clear();
        quoted_field = false;
        continue;
      case '\r':
        continue;
      case '\n':
        ++*line;
        ++i;
        goto record_done;
      default:
        field.push_back(c);
        continue;
    }
  }
record_done:
  if (in_quotes) {
    return Status::ParseError("unterminated quoted CSV field at line " +
                              std::to_string(*line));
  }
  (void)quoted_field;
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

Result<Value> ParseField(const std::string& field, Type type, int line) {
  auto err = [&](const char* what) {
    return Status::ParseError(std::string("CSV line ") + std::to_string(line) +
                              ": cannot parse '" + field + "' as " + what);
  };
  switch (type.kind()) {
    case TypeKind::kBool:
      if (field == "true" || field == "1") return Value::Bool(true);
      if (field == "false" || field == "0") return Value::Bool(false);
      return err("bool");
    case TypeKind::kInt: {
      try {
        size_t used = 0;
        int64_t v = std::stoll(field, &used);
        if (used != field.size()) return err("int");
        return Value::Int(v);
      } catch (...) {
        return err("int");
      }
    }
    case TypeKind::kReal: {
      try {
        size_t used = 0;
        double v = std::stod(field, &used);
        if (used != field.size()) return err("real");
        return Value::Real(v);
      } catch (...) {
        return err("real");
      }
    }
    case TypeKind::kDecimal: {
      Result<Value> v = Value::DecimalFromString(field);
      if (!v.ok()) return err("decimal");
      return v;
    }
    case TypeKind::kString:
      return Value::Str(field);
    case TypeKind::kDate: {
      Result<Value> v = Value::DateFromString(field);
      if (!v.ok()) return err("date");
      return v;
    }
  }
  return Status::Internal("bad type kind");
}

void AppendCsvField(const std::string& raw, std::string* out) {
  bool needs_quoting = raw.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) {
    *out += raw;
    return;
  }
  *out += '"';
  for (char c : raw) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

std::string ValueToCsvField(const Value& v) {
  // Strings render without the surrounding display quotes.
  if (v.kind() == TypeKind::kString) return v.string_value();
  return v.ToString();
}

}  // namespace

Result<Relation> RelationFromCsv(std::string_view csv,
                                 const RelationSchema& schema,
                                 bool has_header) {
  Relation rel(schema);
  size_t pos = 0;
  int line = 1;
  bool first = true;
  while (pos < csv.size()) {
    int record_line = line;
    MRA_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                         ParseRecord(csv, &pos, &line));
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (first && has_header) {
      first = false;
      continue;
    }
    first = false;
    if (fields.size() != schema.arity()) {
      return Status::ParseError(
          "CSV line " + std::to_string(record_line) + " has " +
          std::to_string(fields.size()) + " fields, schema " +
          schema.ToString() + " expects " + std::to_string(schema.arity()));
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      MRA_ASSIGN_OR_RETURN(Value v,
                           ParseField(fields[i], schema.TypeOf(i), record_line));
      values.push_back(std::move(v));
    }
    rel.InsertUnchecked(Tuple(std::move(values)), 1);
  }
  return rel;
}

std::string RelationToCsv(const Relation& relation) {
  std::string out;
  const RelationSchema& schema = relation.schema();
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (i > 0) out += ',';
    AppendCsvField(schema.attribute(i).name, &out);
  }
  out += '\n';
  for (const Relation::Entry* entry : relation.SortedView()) {
    const auto& [tuple, count] = *entry;
    std::string row;
    for (size_t i = 0; i < tuple.arity(); ++i) {
      if (i > 0) row += ',';
      AppendCsvField(ValueToCsvField(tuple.at(i)), &row);
    }
    row += '\n';
    for (uint64_t k = 0; k < count; ++k) out += row;
  }
  return out;
}

Result<Relation> LoadCsvFile(const std::string& path,
                             const RelationSchema& schema, bool has_header) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("cannot read " + path);
  return RelationFromCsv(contents, schema, has_header);
}

Status SaveCsvFile(const std::string& path, const Relation& relation) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  std::string csv = RelationToCsv(relation);
  bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace util
}  // namespace mra
