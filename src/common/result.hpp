// Lightweight Result<T> / error-code vocabulary used across all bsc modules.
//
// Storage systems in this codebase never throw across module boundaries:
// every fallible operation returns Result<T> (or Status = Result<void>).
// The error taxonomy intentionally mirrors POSIX errno names so that the
// POSIX file-system layers (src/pfs, src/hdfs, src/adapter) can map their
// failures one-to-one onto familiar codes.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace bsc {

enum class Errc {
  ok = 0,
  not_found,        // ENOENT
  already_exists,   // EEXIST
  not_a_directory,  // ENOTDIR
  is_a_directory,   // EISDIR
  not_empty,        // ENOTEMPTY
  permission,       // EACCES
  invalid_argument, // EINVAL
  out_of_range,     // offset/length outside object
  read_only,        // EROFS / write-once violation
  busy,             // EBUSY (open handles, lock conflicts)
  no_space,         // ENOSPC
  io_error,         // EIO
  unsupported,      // ENOTSUP
  conflict,         // transaction / optimistic-concurrency conflict
  closed,           // handle already closed
  timeout,          // deadline exceeded waiting for a reply (request may be lost)
  unavailable,      // peer unreachable / out of service (whole replica set, outage)
  // Appended codes only (BatchSubStatus carries Errc as a numeric u8 on the
  // wire; reordering existing values would silently re-map old payloads).
  overloaded,        // server shed the request (bounded backlog exceeded)
  deadline_exceeded, // end-to-end operation budget spent across attempts
};

/// Human-readable name for an error code (stable, used in logs and tests).
constexpr std::string_view to_string(Errc e) noexcept {
  switch (e) {
    case Errc::ok: return "ok";
    case Errc::not_found: return "not_found";
    case Errc::already_exists: return "already_exists";
    case Errc::not_a_directory: return "not_a_directory";
    case Errc::is_a_directory: return "is_a_directory";
    case Errc::not_empty: return "not_empty";
    case Errc::permission: return "permission";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::out_of_range: return "out_of_range";
    case Errc::read_only: return "read_only";
    case Errc::busy: return "busy";
    case Errc::no_space: return "no_space";
    case Errc::io_error: return "io_error";
    case Errc::unsupported: return "unsupported";
    case Errc::conflict: return "conflict";
    case Errc::closed: return "closed";
    case Errc::timeout: return "timeout";
    case Errc::unavailable: return "unavailable";
    case Errc::overloaded: return "overloaded";
    case Errc::deadline_exceeded: return "deadline_exceeded";
  }
  return "unknown";
}

/// Error value: a code plus optional context (path, key, detail).
struct Error {
  Errc code = Errc::io_error;
  std::string context;

  [[nodiscard]] std::string message() const {
    std::string m{to_string(code)};
    if (!context.empty()) {
      m += ": ";
      m += context;
    }
    return m;
  }
};

namespace detail {
/// Taking the value of an error Result is a caller bug in every build type:
/// print the error and abort rather than let std::get throw an anonymous
/// bad_variant_access. Kept out of line so value() inlines to one branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void value_of_error(const Error& err) {
  std::fprintf(stderr, "bsc: Result::value() on error: %s\n", err.message().c_str());
  std::abort();
}
}  // namespace detail

/// Result<T>: either a value or an Error. Deliberately minimal — only what
/// the storage stack needs; no monadic chaining beyond value_or/map.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}             // NOLINT(google-explicit-constructor)
  Result(Error err) : state_(std::move(err)) {}             // NOLINT(google-explicit-constructor)
  Result(Errc code, std::string context = {})               // NOLINT(google-explicit-constructor)
      : state_(Error{code, std::move(context)}) {}

  [[nodiscard]] bool ok() const noexcept { return std::holds_alternative<T>(state_); }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) detail::value_of_error(std::get<Error>(state_));
    return *std::get_if<T>(&state_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) detail::value_of_error(std::get<Error>(state_));
    return *std::get_if<T>(&state_);
  }
  [[nodiscard]] T&& take() && {
    if (!ok()) detail::value_of_error(std::get<Error>(state_));
    return std::move(*std::get_if<T>(&state_));
  }
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

  [[nodiscard]] const Error& error() const& {
    assert(!ok());
    return std::get<Error>(state_);
  }
  [[nodiscard]] Errc code() const noexcept {
    return ok() ? Errc::ok : std::get<Error>(state_).code;
  }

 private:
  std::variant<T, Error> state_;
};

/// Status: Result for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(Error err) : err_(std::move(err)) {}  // NOLINT(google-explicit-constructor)
  Status(Errc code, std::string context = {}) {  // NOLINT(google-explicit-constructor)
    if (code != Errc::ok) err_ = Error{code, std::move(context)};
  }

  [[nodiscard]] bool ok() const noexcept { return !err_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Error& error() const& {
    assert(!ok());
    return *err_;
  }
  [[nodiscard]] Errc code() const noexcept { return ok() ? Errc::ok : err_->code; }
  [[nodiscard]] std::string message() const { return ok() ? "ok" : err_->message(); }

  static Status success() { return {}; }

 private:
  std::optional<Error> err_;
};

}  // namespace bsc
