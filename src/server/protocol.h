#ifndef SEMANDAQ_SERVER_PROTOCOL_H_
#define SEMANDAQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace semandaq::server {

/// The length-prefixed binary framing semandaq_server and semandaq_client
/// speak (docs/server.md, Wire protocol):
///
///   frame    := u32-LE payload length | payload bytes
///   request  := one command line of the service grammar (UTF-8 text),
///               or a control frame (below)
///   response := u8 status | status-specific body
///
/// Response status bytes (WireStatus):
///   0 ok                 | result text
///   1 error              | error text
///   2 cancelled          | error text   (the request's token was cancelled)
///   3 deadline exceeded  | error text   (the request ran past its deadline)
///   4 busy               | u32-LE retry_after_ms | error text
///
/// Busy responses carry a machine-readable retry hint: the server's
/// estimate of when capacity frees up. Clients honor it instead of blind
/// exponential backoff (Client::CallIdempotent).
///
/// Control frames. Commands are UTF-8 text and never start with NUL, so a
/// request payload whose first byte is 0x00 is a control frame:
///
///   control  := 0x00 | u8 kind | body
///   kind 1   := deadline-bearing request: u32-LE deadline_ms | command
///   kind 2   := CANCEL: empty body; cancels the in-flight request on this
///               connection (no response of its own — the cancelled
///               request's response comes back with status 2/3)
///
/// One request frame yields exactly one response frame, in order, per
/// connection (CANCEL frames yield none). The length prefix is bounded by
/// kMaxFrameBytes on both sides, so a corrupt or hostile prefix can never
/// trigger an unbounded allocation. Framing is transport-level only:
/// command syntax errors come back as status-1 *responses*, never as
/// broken frames.

/// Upper bound on one frame's payload (64 MiB — a full quality map of a
/// large relation fits; a corrupt length prefix does not).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Writes one frame (length prefix + payload) to `fd`, handling partial
/// writes and EINTR. `deadline_ms <= 0` blocks indefinitely (the legacy
/// behavior); with a positive deadline the whole frame must go out within
/// that many milliseconds or the call fails with DeadlineExceeded — a
/// stalled peer costs a bounded wait, never a wedged thread.
common::Status WriteFrame(int fd, std::string_view payload,
                          int deadline_ms = 0);

/// Reads one frame from `fd` into `*payload`. Returns false (and OK
/// status semantics) on clean EOF at a frame boundary; IoError on a torn
/// frame, oversized length, or socket error. `deadline_ms <= 0` blocks
/// indefinitely; with a positive deadline the whole frame (prefix and
/// body) must arrive within that many milliseconds or the call fails with
/// DeadlineExceeded. The deadline covers idle time too — a connection
/// that sends nothing for deadline_ms times out the same as one that
/// stalls mid-frame.
common::Result<bool> ReadFrame(int fd, std::string* payload,
                               int deadline_ms = 0);

/// Response status byte values (see the protocol comment above).
enum class WireStatus : uint8_t {
  kOk = 0,
  kError = 1,
  kCancelled = 2,          ///< the request's cancel token tripped
  kDeadlineExceeded = 3,   ///< the request ran past its deadline
  kBusy = 4,               ///< shed by admission control; retry_after_ms set
};

/// A decoded response frame.
struct WireResponse {
  WireStatus status = WireStatus::kError;
  bool ok = false;  ///< status == kOk (kept for the many existing callers)
  /// Busy responses only: the server's retry hint in milliseconds.
  uint32_t retry_after_ms = 0;
  std::string text;
};

/// Encodes an ok/error response payload (status byte + text).
std::string EncodeResponse(bool ok, std::string_view text);

/// Encodes a response with an explicit status byte (cancelled / deadline).
std::string EncodeStatusResponse(WireStatus status, std::string_view text);

/// Encodes a busy response: status 4, u32-LE retry_after_ms, text.
std::string EncodeBusyResponse(uint32_t retry_after_ms, std::string_view text);

/// Decodes a response payload (the inverse of the encoders above).
common::Result<WireResponse> DecodeResponse(std::string_view payload);

/// A decoded request frame: either a CANCEL control frame, or a command
/// with an optional client-supplied deadline (0 = none given).
struct WireRequest {
  bool cancel = false;
  uint32_t deadline_ms = 0;
  std::string command;
};

/// Encodes a deadline-bearing request control frame (kind 1).
std::string EncodeDeadlineRequest(uint32_t deadline_ms,
                                  std::string_view command);

/// Encodes a CANCEL control frame (kind 2).
std::string EncodeCancelRequest();

/// Decodes a request payload. Plain text (not starting with NUL) is a bare
/// command; control frames decode per the kinds above. Unknown control
/// kinds are IoError (a frame that old servers could misread as text).
common::Result<WireRequest> DecodeRequest(std::string_view payload);

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_PROTOCOL_H_
