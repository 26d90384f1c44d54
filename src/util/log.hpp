// Minimal leveled logger.  Mako components report planning decisions
// through this interface so end-to-end runs can be audited.
//
// The printf-style entry points carry the compiler's `format(printf, ...)`
// attribute, so every call site is format-checked at compile time (the build
// promotes format diagnostics to errors).  Passing a non-trivial object such
// as std::string through the varargs is a compile error rather than the
// silent UB the old template forwarding allowed; use log_message() or
// ::c_str() for preformatted strings.
#pragma once

#include <string>

namespace mako {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global log threshold; messages below it are suppressed.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

#if defined(__GNUC__) || defined(__clang__)
#define MAKO_PRINTF_CHECK(fmt_idx, first_arg_idx) \
  __attribute__((format(printf, fmt_idx, first_arg_idx)))
#else
#define MAKO_PRINTF_CHECK(fmt_idx, first_arg_idx)
#endif

void log_debug(const char* fmt, ...) MAKO_PRINTF_CHECK(1, 2);
void log_info(const char* fmt, ...) MAKO_PRINTF_CHECK(1, 2);
void log_warn(const char* fmt, ...) MAKO_PRINTF_CHECK(1, 2);
void log_error(const char* fmt, ...) MAKO_PRINTF_CHECK(1, 2);

/// Preformatted-message path (safe for std::string payloads).
void log_message(LogLevel level, const std::string& msg);

namespace detail {
/// Kept for source compatibility; forwards to log_message.
inline void log_message(LogLevel level, const std::string& msg) {
  ::mako::log_message(level, msg);
}
}  // namespace detail

}  // namespace mako
