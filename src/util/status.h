// Status: error propagation without exceptions, in the Arrow/RocksDB idiom.
//
// Every fallible operation in SeeDB returns either a Status (no payload) or a
// Result<T> (payload or error). Code that cannot fail returns values directly.

#ifndef SEEDB_UTIL_STATUS_H_
#define SEEDB_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace seedb {

/// Machine-readable classification of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotImplemented,
  kIOError,
  kInternal,
  /// The service is saturated and shedding load; retry later. The serving
  /// layer's admission control answers `open` with this ("busy" on the wire)
  /// when the Engine has no phase capacity left.
  kUnavailable,
  /// The call is valid, but not in the object's current state (e.g. reading
  /// pushed frames on a connection that never negotiated push).
  kFailedPrecondition,
};

/// Returns a stable human-readable name for a StatusCode ("Invalid argument",
/// "Not found", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus, for errors, a message.
///
/// Statuses are cheap to copy (OK carries no allocation) and must be checked:
/// ignoring one silently drops an error. The SEEDB_RETURN_IF_ERROR macro is
/// the usual way to propagate.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace seedb

/// Propagates a non-OK Status to the caller.
#define SEEDB_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::seedb::Status _seedb_status = (expr);    \
    if (!_seedb_status.ok()) return _seedb_status; \
  } while (0)

#define SEEDB_CONCAT_IMPL(a, b) a##b
#define SEEDB_CONCAT(a, b) SEEDB_CONCAT_IMPL(a, b)

/// Evaluates an expression yielding Result<T>; on success binds the value to
/// `lhs`, on error returns the Status to the caller.
#define SEEDB_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  auto SEEDB_CONCAT(_seedb_result_, __LINE__) = (rexpr);          \
  if (!SEEDB_CONCAT(_seedb_result_, __LINE__).ok())               \
    return SEEDB_CONCAT(_seedb_result_, __LINE__).status();       \
  lhs = std::move(SEEDB_CONCAT(_seedb_result_, __LINE__)).ValueOrDie()

#endif  // SEEDB_UTIL_STATUS_H_
