// check.hpp — repo-wide invariant checking.
//
// SYM_CHECK and friends are the only sanctioned way to assert invariants in
// this codebase (scripts/lint.py rejects raw assert()). Unlike assert they
// carry streamed context, tick a per-category violation counter, and route
// through a configurable handler so the same check site can abort (default),
// throw (death/throw tests), or log-and-count (long soak runs).
//
//   SYM_CHECK(cond)                    always-on, category "check"
//   SYM_CHECK(cond, "sig.filter")     always-on, named category
//   SYM_CHECK_EQ/LT/LE(a, b [, cat])  binary forms; print both operands
//   SYM_CHECK_BOUNDS(i, n [, cat])    i < n, category default "bounds"
//   SYM_DCHECK*(...)                   same family, compiled out in NDEBUG
//                                      builds unless SYMBIOSIS_DCHECK_ENABLED
//                                      is forced on (the sanitizer presets do)
//
// All forms accept streamed context after the macro:
//
//   SYM_CHECK_LT(way, ways_, "cachesim.bounds") << "set=" << set;
//
// Policy (see README "Correctness tooling"): construction-time and
// algorithm-postcondition invariants are SYM_CHECK (always on, cold paths);
// per-access hot-loop invariants are SYM_DCHECK so RelWithDebInfo keeps its
// benchmarked speed while Debug and sanitizer builds verify every access.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace symbiosis::util {

/// What a failed check does after recording the violation.
enum class CheckMode {
  Abort,        ///< print to stderr and std::abort() (default; death tests)
  Throw,        ///< throw CheckError (unit tests of guarded paths)
  LogAndCount,  ///< log at Error level and continue (soak runs)
};

/// Thrown by failed checks in CheckMode::Throw.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

[[nodiscard]] CheckMode check_mode() noexcept;
/// Swap the global handler mode; returns the previous mode. Thread-safe.
CheckMode set_check_mode(CheckMode mode) noexcept;

/// RAII mode switch for tests: restores the previous mode on scope exit.
class ScopedCheckMode {
 public:
  explicit ScopedCheckMode(CheckMode mode) : previous_(set_check_mode(mode)) {}
  ~ScopedCheckMode() { set_check_mode(previous_); }
  ScopedCheckMode(const ScopedCheckMode&) = delete;
  ScopedCheckMode& operator=(const ScopedCheckMode&) = delete;

 private:
  CheckMode previous_;
};

// --- violation-counter registry -------------------------------------------
// Every failed check increments its category's counter BEFORE the handler
// runs, so even aborting/throwing failures are visible to telemetry.

/// Violations recorded against @p category since the last reset.
[[nodiscard]] std::uint64_t check_violation_count(std::string_view category);
/// Total violations across all categories since the last reset.
[[nodiscard]] std::uint64_t check_violation_total() noexcept;
/// (category, count) pairs, sorted by category name.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> check_violation_snapshot();
/// Zero all counters (tests / between soak phases).
void reset_check_violations();

namespace check_detail {

/// Builds the failure message; its destructor records the violation and
/// dispatches on the current CheckMode at the end of the full statement, so
/// streamed context (`<< "x=" << x`) lands in the message.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* expr, const char* category);
  ~CheckFailure() noexcept(false);
  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
  const char* file_;
  int line_;
  const char* expr_;
  const char* category_;
};

constexpr const char* category_or(const char* fallback) noexcept { return fallback; }
constexpr const char* category_or(const char* /*fallback*/, const char* category) noexcept {
  return category;
}

/// Streams a value if it has operator<<, else a placeholder — keeps the
/// binary macros usable on types without a printer.
template <typename T>
void stream_value(std::ostream& os, const T& value) {
  if constexpr (requires(std::ostream& o, const T& v) { o << v; }) {
    os << value;
  } else {
    os << "<unprintable>";
  }
}

/// Evaluates a binary check once per operand; on failure returns the
/// "(lhs vs rhs)" rendering, on success an empty string (falsy via .empty()).
template <typename A, typename B, typename Pred>
[[nodiscard]] std::string check_op(const A& a, const B& b, Pred pred) {
  if (pred(a, b)) [[likely]] {
    return {};
  }
  std::ostringstream os;
  os << "(";
  stream_value(os, a);
  os << " vs ";
  stream_value(os, b);
  os << ")";
  std::string rendered = os.str();
  if (rendered.empty()) rendered = "(?)";  // never collapse a failure to success
  return rendered;
}

}  // namespace check_detail
}  // namespace symbiosis::util

// The `switch (0) case 0: default:` wrapper makes these macros single,
// dangling-else-safe statements while still accepting a trailing stream.

#define SYM_CHECK_IMPL_(cond, category_expr)                                       \
  switch (0)                                                                       \
  case 0:                                                                          \
  default:                                                                         \
    if (cond) {                                                                    \
    } else /* NOLINT(readability-misleading-indentation) */                        \
      ::symbiosis::util::check_detail::CheckFailure(__FILE__, __LINE__, #cond,     \
                                                    (category_expr))

#define SYM_CHECK_OP_IMPL_(a, b, op, category_expr)                                \
  switch (0)                                                                       \
  case 0:                                                                          \
  default:                                                                         \
    if (const std::string sym_chk_vals_ = ::symbiosis::util::check_detail::        \
            check_op((a), (b),                                                     \
                     [](const auto& sym_chk_a_, const auto& sym_chk_b_) {          \
                       return sym_chk_a_ op sym_chk_b_;                            \
                     });                                                           \
        sym_chk_vals_.empty()) {                                                   \
    } else                                                                         \
      ::symbiosis::util::check_detail::CheckFailure(__FILE__, __LINE__,            \
                                                    #a " " #op " " #b,             \
                                                    (category_expr))               \
          << sym_chk_vals_ << " "

// Always-on checks. Optional trailing argument names the category.
#define SYM_CHECK(cond, ...) \
  SYM_CHECK_IMPL_(cond, ::symbiosis::util::check_detail::category_or("check" __VA_OPT__(,) __VA_ARGS__))
#define SYM_CHECK_EQ(a, b, ...) \
  SYM_CHECK_OP_IMPL_(a, b, ==, ::symbiosis::util::check_detail::category_or("check" __VA_OPT__(,) __VA_ARGS__))
#define SYM_CHECK_LT(a, b, ...) \
  SYM_CHECK_OP_IMPL_(a, b, <, ::symbiosis::util::check_detail::category_or("check" __VA_OPT__(,) __VA_ARGS__))
#define SYM_CHECK_LE(a, b, ...) \
  SYM_CHECK_OP_IMPL_(a, b, <=, ::symbiosis::util::check_detail::category_or("check" __VA_OPT__(,) __VA_ARGS__))
#define SYM_CHECK_BOUNDS(i, n, ...) \
  SYM_CHECK_OP_IMPL_(i, n, <, ::symbiosis::util::check_detail::category_or("bounds" __VA_OPT__(,) __VA_ARGS__))

// Debug checks: compiled in when NDEBUG is off, or forced by the build
// system (sanitizer presets pass -DSYMBIOSIS_DCHECK_ENABLED=1).
#ifndef SYMBIOSIS_DCHECK_ENABLED
#ifdef NDEBUG
#define SYMBIOSIS_DCHECK_ENABLED 0
#else
#define SYMBIOSIS_DCHECK_ENABLED 1
#endif
#endif

#if SYMBIOSIS_DCHECK_ENABLED
#define SYM_DCHECK(cond, ...) SYM_CHECK(cond __VA_OPT__(,) __VA_ARGS__)
#define SYM_DCHECK_EQ(a, b, ...) SYM_CHECK_EQ(a, b __VA_OPT__(,) __VA_ARGS__)
#define SYM_DCHECK_LT(a, b, ...) SYM_CHECK_LT(a, b __VA_OPT__(,) __VA_ARGS__)
#define SYM_DCHECK_LE(a, b, ...) SYM_CHECK_LE(a, b __VA_OPT__(,) __VA_ARGS__)
#define SYM_DCHECK_BOUNDS(i, n, ...) SYM_CHECK_BOUNDS(i, n __VA_OPT__(,) __VA_ARGS__)
#else
// Disabled: operands are odr-used but never evaluated, streams are dead code.
#define SYM_DCHECK(cond, ...) SYM_CHECK_IMPL_(true || (cond), "dcheck")
#define SYM_DCHECK_EQ(a, b, ...) SYM_CHECK_IMPL_(true || ((a) == (b)), "dcheck")
#define SYM_DCHECK_LT(a, b, ...) SYM_CHECK_IMPL_(true || ((a) < (b)), "dcheck")
#define SYM_DCHECK_LE(a, b, ...) SYM_CHECK_IMPL_(true || ((a) <= (b)), "dcheck")
#define SYM_DCHECK_BOUNDS(i, n, ...) SYM_CHECK_IMPL_(true || ((i) < (n)), "dcheck")
#endif
