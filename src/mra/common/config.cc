#include "mra/common/config.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace mra {
namespace {

// One registry drives Set/Get, KnobNames, Describe and ParseConfigFlags so
// a knob added here is immediately reachable from SET, \set and the
// command line without further wiring.
struct Knob {
  std::string_view name;  // SET name; the flag is the same with '-' for '_'
  bool is_bool;
  std::string_view help;
  // Parses `value` (already validated as integer/bool by kind) into cfg.
  Status (*set)(ExecConfig* cfg, uint64_t number, bool flag);
  std::string (*get)(const ExecConfig& cfg);
};

Status ParseUint(std::string_view knob, std::string_view value,
                 uint64_t* out) {
  if (value.empty()) {
    return Status::InvalidArgument("empty value for " + std::string(knob));
  }
  errno = 0;
  char* end = nullptr;
  std::string buf(value);
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end == buf.c_str() || *end != '\0' ||
      buf.front() == '-') {
    return Status::InvalidArgument("bad value for " + std::string(knob) +
                                   ": '" + buf + "' (expected a non-negative "
                                   "integer)");
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

Status ParseBool(std::string_view knob, std::string_view value, bool* out) {
  if (value == "true" || value == "on" || value == "1") {
    *out = true;
    return Status::OK();
  }
  if (value == "false" || value == "off" || value == "0") {
    *out = false;
    return Status::OK();
  }
  return Status::InvalidArgument("bad value for " + std::string(knob) + ": '" +
                                 std::string(value) +
                                 "' (expected true/false/on/off/1/0)");
}

std::string BoolName(bool v) { return v ? "true" : "false"; }

const Knob kKnobs[] = {
    {"batch_size", false,
     "rows per executor NextBatch pull; 0 = default (1024)",
     [](ExecConfig* c, uint64_t n, bool) {
       c->exec.batch_size = static_cast<size_t>(n);
       return Status::OK();
     },
     [](const ExecConfig& c) { return std::to_string(c.exec.batch_size); }},
    {"use_physical_exec", true,
     "physical operators (off = definitional evaluator)",
     [](ExecConfig* c, uint64_t, bool b) {
       c->exec.use_physical_exec = b;
       return Status::OK();
     },
     [](const ExecConfig& c) { return BoolName(c.exec.use_physical_exec); }},
    {"workers", false,
     "intra-query parallel degree; 0/1 = one lane (docs/PARALLELISM.md)",
     [](ExecConfig* c, uint64_t n, bool) {
       c->exec.workers = static_cast<size_t>(n);
       return Status::OK();
     },
     [](const ExecConfig& c) { return std::to_string(c.exec.workers); }},
    {"parallel_threshold", false,
     "min estimated input rows before an operator goes parallel",
     [](ExecConfig* c, uint64_t n, bool) {
       c->exec.parallel_threshold = n;
       return Status::OK();
     },
     [](const ExecConfig& c) {
       return std::to_string(c.exec.parallel_threshold);
     }},
    {"sort_spill_bytes", false,
     "sort run / join build cap in bytes before spilling; 0 = budget-driven",
     [](ExecConfig* c, uint64_t n, bool) {
       c->exec.sort_spill_bytes = n;
       return Status::OK();
     },
     [](const ExecConfig& c) {
       return std::to_string(c.exec.sort_spill_bytes);
     }},
    {"statement_timeout_ms", false,
     "kill queries running past N ms (kDeadlineExceeded); 0 = off",
     [](ExecConfig* c, uint64_t n, bool) {
       c->governance.statement_timeout_ms = static_cast<int64_t>(n);
       return Status::OK();
     },
     [](const ExecConfig& c) {
       return std::to_string(c.governance.statement_timeout_ms);
     }},
    {"query_mem_budget_mb", false,
     "per-query executor memory budget in MiB; 0 = unlimited",
     [](ExecConfig* c, uint64_t n, bool) {
       c->governance.query_mem_budget_bytes = n << 20;
       return Status::OK();
     },
     [](const ExecConfig& c) {
       return std::to_string(c.governance.query_mem_budget_bytes >> 20);
     }},
    {"optimize", true, "run plans through the optimizer",
     [](ExecConfig* c, uint64_t, bool b) {
       c->planner.optimize = b;
       return Status::OK();
     },
     [](const ExecConfig& c) { return BoolName(c.planner.optimize); }},
};

const Knob* FindKnob(std::string_view name) {
  for (const Knob& k : kKnobs) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

std::string FlagName(std::string_view knob) {
  std::string flag = "--";
  for (char ch : knob) flag.push_back(ch == '_' ? '-' : ch);
  return flag;
}

}  // namespace

Status ExecConfig::Set(std::string_view knob, std::string_view value) {
  const Knob* k = FindKnob(knob);
  if (k == nullptr) {
    std::string names;
    for (const Knob& other : kKnobs) {
      if (!names.empty()) names += ", ";
      names += std::string(other.name);
    }
    return Status::InvalidArgument("unknown knob '" + std::string(knob) +
                                   "' (knobs: " + names + ")");
  }
  if (k->is_bool) {
    bool b = false;
    Status parsed = ParseBool(knob, value, &b);
    if (!parsed.ok()) return parsed;
    return k->set(this, 0, b);
  }
  uint64_t n = 0;
  Status parsed = ParseUint(knob, value, &n);
  if (!parsed.ok()) return parsed;
  return k->set(this, n, false);
}

Result<std::string> ExecConfig::Get(std::string_view knob) const {
  const Knob* k = FindKnob(knob);
  if (k == nullptr) {
    return Status::InvalidArgument("unknown knob '" + std::string(knob) + "'");
  }
  return k->get(*this);
}

std::vector<std::string_view> ExecConfig::KnobNames() {
  std::vector<std::string_view> names;
  for (const Knob& k : kKnobs) names.push_back(k.name);
  return names;
}

std::string ExecConfig::Describe() const {
  std::ostringstream out;
  for (const Knob& k : kKnobs) {
    out << k.name << " = " << k.get(*this) << "\n";
  }
  return out.str();
}

Status ParseConfigFlags(int* argc, char** argv, ExecConfig* config) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg = argv[i];
    const Knob* matched = nullptr;
    bool negated = false;
    for (const Knob& k : kKnobs) {
      std::string flag = FlagName(k.name);
      if (arg == flag) {
        matched = &k;
        break;
      }
      if (k.is_bool && arg == "--no-" + flag.substr(2)) {
        matched = &k;
        negated = true;
        break;
      }
    }
    if (matched == nullptr) {
      argv[out++] = argv[i];  // not ours; leave for the caller
      continue;
    }
    if (matched->is_bool) {
      Status set = matched->set(config, 0, !negated);
      if (!set.ok()) return set;
      continue;
    }
    if (i + 1 >= *argc) {
      return Status::InvalidArgument("missing value for " + std::string(arg));
    }
    uint64_t n = 0;
    Status parsed = ParseUint(matched->name, argv[++i], &n);
    if (!parsed.ok()) return parsed;
    Status set = matched->set(config, n, false);
    if (!set.ok()) return set;
  }
  // Compact: everything past the consumed flags is already copied down.
  *argc = out;
  argv[out] = nullptr;
  return Status::OK();
}

std::string ConfigFlagHelp() {
  std::ostringstream out;
  for (const Knob& k : kKnobs) {
    std::string flag = FlagName(k.name);
    if (k.is_bool) {
      out << "  " << flag << " / --no-" << flag.substr(2) << "\n"
          << "                          " << k.help << "\n";
    } else {
      out << "  " << flag << " N";
      for (size_t pad = flag.size() + 2; pad < 24; ++pad) out << ' ';
      out << k.help << "\n";
    }
  }
  return out.str();
}

}  // namespace mra
