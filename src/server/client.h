// Client library for the recommendation server: a blocking connection
// speaking the line-delimited JSON protocol of server/protocol.h.
//
// Hello() negotiates the `push` capability, and sessions opened on the
// connection are then driven by the server — progress arrives as
// unsolicited push frames, consumed through a RemoteSession:
//
//   SEEDB_ASSIGN_OR_RETURN(auto client, Client::ConnectUnix("/tmp/seedb.sock"));
//   SEEDB_RETURN_IF_ERROR(client.Hello());
//   OpenSpec spec;
//   spec.sql = "SELECT * FROM sales WHERE product = 'Laserwave'";
//   spec.k = 3;
//   spec.phases = 8;
//   SEEDB_ASSIGN_OR_RETURN(RemoteSession session, client.OpenSession("s1", spec));
//   session.OnProgress([](const RemoteProgress& p) { ... });  // per phase
//   SEEDB_ASSIGN_OR_RETURN(RemoteResult result, session.Await());
//
// Await() pumps the push stream — no request per phase — delivering each
// phase's frame to the OnProgress callback, and finishes the session once
// the server signals `drained`. A mid-stream server error (e.g. a memory
// budget breach) is remembered in last_error() and Await() still finishes,
// so partial results come back exactly as they do in-process.
//
// Client::Next(id) is the pull form of the same stream: it pops the next
// pushed frame for one session (no request is sent), which suits loops that
// interleave progress with other calls. Without Hello() nothing is pushed:
// Open() / Finish() / GetStatus() still work — `finish` runs the session to
// the end — but Next() fails with FailedPrecondition instead of blocking.
//
// Server-side failures come back as the Status the server produced (codes
// round-trip through the protocol's error tokens) — a budget breach is the
// same OutOfRange the in-process session returns, admission shedding is
// kUnavailable ("busy"). Used by the CLI's \connect mode, the
// differential/stress suites, and bench_server.

#ifndef SEEDB_SERVER_CLIENT_H_
#define SEEDB_SERVER_CLIENT_H_

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "server/protocol.h"
#include "util/result.h"

namespace seedb::server {

class RemoteSession;

/// \brief One connection to a RecommendationServer. Blocking, not
/// thread-safe (one request in flight at a time); open several clients for
/// concurrency — sessions live server-side and any connection may address
/// any session id.
class Client {
 public:
  static Result<Client> ConnectUnix(const std::string& path);
  /// `host` is a numeric IPv4 address, e.g. "127.0.0.1".
  static Result<Client> ConnectTcp(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  /// Negotiates kProtocolVersion with the `push` capability. A server that
  /// refuses the handshake returns its error.
  Status Hello();
  const Handshake& handshake() const { return handshake_; }
  /// True once Hello() negotiated server-driven push frames.
  bool push_enabled() const { return handshake_.push; }
  /// The raw socket (bench_server multiplexes many clients via poll()).
  int fd() const { return fd_; }

  /// Sends one request object and returns the parsed response frame
  /// (including {"ok":false,...} error frames — the typed wrappers below
  /// convert those to Status). Push frames arriving ahead of the response
  /// are stashed into their sessions' queues, never lost.
  Result<JsonValue> Call(const JsonValue& request);

  /// Sends a raw line verbatim and returns the raw response line — the
  /// protocol tests' hatch for malformed input the typed API cannot send.
  /// Does NOT sift push frames; use on connections without push.
  Result<std::string> CallRaw(const std::string& line);

  /// The "retry_after_ms" hint of the last error response, 0 when the last
  /// response carried none. Admission control answers a shed `open` with
  /// busy (kUnavailable) plus this hint; callers that see Unavailable can
  /// back off exactly this long instead of guessing. The hint is also
  /// appended to the returned Status message ("... (retry after N ms)").
  int last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Opens a session; on a push connection the server starts driving it.
  Status Open(const std::string& id, const OpenSpec& spec);
  /// Opens a server-driven session and returns its handle
  /// (FailedPrecondition before Hello()). The handle borrows this client —
  /// keep the client alive (and unmoved) while using it.
  Result<RemoteSession> OpenSession(const std::string& id,
                                    const OpenSpec& spec);
  /// The next pushed progress frame of session `id`, blocking until it
  /// arrives; nullopt once the stream drained. No request is sent.
  /// FailedPrecondition on a connection without push, where nothing would
  /// ever arrive.
  Result<std::optional<RemoteProgress>> Next(const std::string& id);
  Status Cancel(const std::string& id);
  Status Resume(const std::string& id);
  /// Terminal: the final ranking; the server forgets the id afterwards.
  Result<RemoteResult> Finish(const std::string& id);
  /// Session status, or server-wide status when `id` is empty.
  Result<RemoteStatus> GetStatus(const std::string& id = "");
  /// The server's metrics snapshot (`{"op":"metrics"}`) as the raw frame —
  /// counters/gauges/histograms per protocol.h. Returned untyped so tooling
  /// can render new metrics without a client-library release.
  Result<JsonValue> Metrics();

 private:
  friend class RemoteSession;

  explicit Client(int fd) : fd_(fd) {}

  Result<std::string> ReadLine();
  Result<JsonValue> ReadFrame();
  /// OK for an ack/typed response; for {"ok":false,...} the Status the
  /// frame carries, with the retry_after_ms hint (if any) recorded and
  /// appended to the message.
  Status CheckOk(const JsonValue& response);
  /// Files a push frame into its session's queue.
  void StashPush(JsonValue frame);
  /// The next push frame addressed to `id`, reading off the socket as
  /// needed. Once the stream drained, synthesizes further drained frames
  /// instead of blocking on a socket that will stay silent.
  Result<JsonValue> NextPushFrame(const std::string& id);

  /// Per-session push stream: frames not yet consumed, and whether the
  /// server already said `drained`.
  struct PushStream {
    std::deque<JsonValue> frames;
    bool drained = false;
  };

  int fd_ = -1;
  /// Bytes read past the last returned line.
  std::string buffer_;
  Handshake handshake_;
  int last_retry_after_ms_ = 0;
  std::unordered_map<std::string, PushStream> push_;
};

/// \brief Handle to one server-driven session on a push-mode connection.
///
/// Borrows its Client (which must outlive it); not thread-safe, same as the
/// client. Progress consumption is callback-style — OnProgress + Await — or
/// pull-style through Client::Next(id()).
class RemoteSession {
 public:
  const std::string& id() const { return id_; }

  /// Registers the callback Await() hands each pushed progress frame to.
  void OnProgress(std::function<void(const RemoteProgress&)> fn) {
    on_progress_ = std::move(fn);
  }

  /// Pumps the push stream until the server signals drained — delivering
  /// every progress frame to the OnProgress callback — then finishes the
  /// session and returns the final result. A mid-stream error frame (e.g.
  /// budget breach) is stored in last_error() and Await() still finishes:
  /// partial results return exactly as in-process.
  Result<RemoteResult> Await();

  /// Flips the server-side cancel token; the in-flight phase stops at
  /// morsel granularity and the stream then drains.
  Status Cancel();
  /// Re-opens a cancelled session; the server resumes driving and pushing
  /// to this connection.
  Status Resume();
  /// Explicit finish (Await() does this for you).
  Result<RemoteResult> Finish() { return client_->Finish(id_); }

  /// The last mid-stream error frame Await() saw (OK if none).
  const Status& last_error() const { return last_error_; }

 private:
  friend class Client;
  RemoteSession(Client* client, std::string id)
      : client_(client), id_(std::move(id)) {}

  Client* client_;
  std::string id_;
  std::function<void(const RemoteProgress&)> on_progress_;
  Status last_error_;
};

}  // namespace seedb::server

#endif  // SEEDB_SERVER_CLIENT_H_
