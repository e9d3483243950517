// Result<T>: value-or-Status, plus the propagation macros used throughout mra.

#ifndef MRA_COMMON_RESULT_H_
#define MRA_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "mra/common/check.h"
#include "mra/common/status.h"

namespace mra {

/// Holds either a `T` or a non-OK `Status`.  Accessing the value of an error
/// result is a checked programming error.
template <typename T>
class Result {
 public:
  /// Implicit from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    MRA_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const& { return status_; }
  /// By value on an rvalue, so `MRA_RETURN_IF_ERROR(F().status())` holds
  /// the Status itself, not a reference into the destroyed temporary.
  Status status() && { return std::move(status_); }

  const T& value() const& {
    MRA_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    MRA_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    MRA_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` if this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

namespace internal {
// Helpers so the macros work uniformly for Status and Result<T>.
inline Status ToStatus(const Status& s) { return s; }
inline Status ToStatus(Status&& s) { return std::move(s); }
template <typename T>
Status ToStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace internal

}  // namespace mra

#define MRA_CONCAT_IMPL(a, b) a##b
#define MRA_CONCAT(a, b) MRA_CONCAT_IMPL(a, b)

/// Evaluates `expr` (a Status or Result); returns its Status on error.
#define MRA_RETURN_IF_ERROR(expr)                                   \
  do {                                                              \
    auto&& mra_status_ = (expr);                                    \
    if (!mra_status_.ok()) {                                        \
      return ::mra::internal::ToStatus(                             \
          std::forward<decltype(mra_status_)>(mra_status_));        \
    }                                                               \
  } while (false)

#define MRA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

/// `MRA_ASSIGN_OR_RETURN(auto x, SomeResultExpr())` — assigns on success,
/// early-returns the Status on failure.
#define MRA_ASSIGN_OR_RETURN(lhs, expr) \
  MRA_ASSIGN_OR_RETURN_IMPL(MRA_CONCAT(mra_result_, __LINE__), lhs, expr)

#endif  // MRA_COMMON_RESULT_H_
