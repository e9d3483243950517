// Limits shared by more than one layer.

#ifndef MRA_COMMON_LIMITS_H_
#define MRA_COMMON_LIMITS_H_

#include <cstdint>
#include <string>

namespace mra {

/// Both parsers (XRA and SQL) refuse, with a ParseError naming this limit,
/// any input whose tree would reach this many levels: every node counts
/// one, and so does every parenthesis while it is open.  It sits well
/// below the plan decoder's nesting limit (storage/plan_serializer.cc), so
/// a parsed constraint can be persisted and recovered, and keeps the
/// recursive binder, optimizer and evaluator far from a thread's stack end.
inline constexpr int kMaxParseDepth = 256;

/// A recursive-descent parser's nesting: the levels open above the parse
/// position (operators and parentheses not yet closed).
class ParseNesting {
 public:
  /// Whether a subtree `height` levels tall fits at the parse position.
  bool Fits(uint32_t height) const {
    return open_ + height < static_cast<uint32_t>(kMaxParseDepth);
  }

  /// What a parser reports when a subtree does not fit.
  static std::string LimitMessage() {
    return "input nests too deep: the limit is " +
           std::to_string(kMaxParseDepth) + " levels";
  }

  /// Opens one level for everything parsed while the returned guard lives.
  class Level {
   public:
    explicit Level(ParseNesting* nesting) : nesting_(nesting) {
      ++nesting_->open_;
    }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;
    ~Level() { --nesting_->open_; }

   private:
    ParseNesting* nesting_;
  };

 private:
  uint32_t open_ = 0;
};

}  // namespace mra

#endif  // MRA_COMMON_LIMITS_H_
