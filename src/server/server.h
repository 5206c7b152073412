// RecommendationServer: many streaming sessions, one Engine, one socket —
// SeeDB as the middleware layer the paper deploys it as (§5), serving
// interactive clients over the line-delimited JSON protocol of
// server/protocol.h.
//
// Shape: one epoll event loop owns every socket — non-blocking accept,
// reads, and writes, with a per-connection write queue the loop drains as
// the peer allows — and a fixed worker pool executes request handlers and
// phase work. Requests on one connection are processed in arrival order (a
// strand: the connection's pending lines are handled by at most one worker
// at a time); every session lives in a server-wide registry, so a session
// opened on one connection can be cancelled — or, after a disconnect,
// resumed — from another. Heavy work (phases / Finish) serializes per session
// under that session's own lock; cancellation only flips the session's
// atomic token, so a `cancel` from a second connection lands mid-phase and
// is observed at morsel granularity. The Engine itself is concurrent, so
// phases of different sessions scan in parallel — the registry multiplexes
// sessions, the pool multiplexes handlers, the engine multiplexes cores.
//
// A connection that negotiates the `push` capability (server/protocol.h)
// gets its sessions DRIVEN BY THE SERVER — each `open` schedules phase jobs
// that run one Next() apiece and re-enqueue themselves (so a slow session
// cannot starve the pool), and the session's ProgressSink serializes every
// ProgressUpdate straight into the connection's write queue as an
// unsolicited push frame. Pushed frames are the only way progress leaves
// the server: a session opened without push is not driven, and `finish`
// runs it to the end. Two serving-layer protections ride on the same
// machinery:
//
//   * Idle eviction — a hashed timer wheel (server/timer_wheel.h) the event
//     loop advances; an `open` arms a timer, any touch refreshes the
//     session's last-active stamp, and expiry evicts genuinely idle
//     sessions (cancel + forget; later ops answer not_found).
//   * Admission control — `open` is shed with a structured `busy` error
//     (plus retry_after_ms) once the registry holds max_inflight_phases
//     sessions that still have phases to run, so a saturated Engine queues
//     bounded work instead of unbounded sessions.
//
// Malformed input (truncated JSON, unknown ops, ids after finish) produces
// an {"ok":false,...} response and leaves the loop intact; only an
// over-long line (memory protection) closes the offending connection.

#ifndef SEEDB_SERVER_SERVER_H_
#define SEEDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "core/seedb.h"
#include "core/session.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/timer_wheel.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace seedb::server {

struct ServerOptions {
  /// Listen on a unix-domain socket at this path (preferred for tests and
  /// local tooling: no ports to collide on). Takes precedence over TCP.
  std::string unix_path;
  /// Listen on TCP 127.0.0.1:tcp_port when unix_path is empty; 0 binds an
  /// ephemeral port (read it back with port()).
  int tcp_port = 0;
  /// Requests longer than this close the connection (memory protection).
  size_t max_line_bytes = 1 << 20;
  /// `open` beyond this many live sessions is refused (per server).
  size_t max_sessions = 1024;
  /// Worker threads running request handlers and push-mode phase jobs.
  /// 0 = auto (scaled to the machine, at least 2).
  size_t worker_threads = 0;
  /// Sessions untouched for this long are evicted: cancelled, forgotten,
  /// and later ops on the id answer not_found. 0 = never evict.
  uint64_t session_idle_timeout_ms = 0;
  /// Admission control: `open` answers `busy` (kUnavailable) while this
  /// many already-open sessions still have phases to run. 0 = unlimited.
  size_t max_inflight_phases = 0;
  /// A connection whose unsent output exceeds this is dropped — a slow or
  /// stuck reader must not pin arbitrary memory.
  size_t max_write_queue_bytes = 32u << 20;
};

struct ServerStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_finished = 0;
  /// Idle sessions reaped by the timer wheel.
  uint64_t sessions_evicted = 0;
  /// `open` requests shed with `busy` by admission control.
  uint64_t sessions_rejected = 0;
  /// Unsolicited push frames written (progress / drained / errors).
  uint64_t push_frames_sent = 0;
};

/// \brief The serving loop: accepts connections, frames request lines, and
/// drives RecommendationSessions against one shared Engine.
///
/// Start() binds and spawns the event loop + worker pool; Stop()
/// (idempotent, also run by the destructor) closes the listener and every
/// connection, joins all threads, and drops any unfinished sessions.
/// Thread-safe.
class RecommendationServer {
 public:
  /// `engine` must outlive the server and have its tables registered before
  /// requests arrive (the server adds nothing to the catalog).
  RecommendationServer(db::Engine* engine, ServerOptions options);
  ~RecommendationServer();

  RecommendationServer(const RecommendationServer&) = delete;
  RecommendationServer& operator=(const RecommendationServer&) = delete;

  Status Start();
  void Stop();

  /// The bound TCP port (after Start(), TCP mode only).
  int port() const { return port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  ServerStats stats() const;
  size_t open_sessions() const;

  /// Handles one request line and returns the response line (no trailing
  /// newline). The socketless seam the dispatch tests and the protocol fuzz
  /// harness drive (no Start() needed): with no connection there is nowhere
  /// to push, so sessions opened here are never driven — `finish` runs them
  /// to the end — and `hello` negotiates without effect.
  std::string HandleLine(const std::string& line);

 private:
  /// One live connection. The event loop owns the fd and the read side;
  /// workers only append to the write queue (`outbox`) and flag the loop.
  /// `handshake` is strand state: only the single worker running this
  /// connection's strand touches it.
  struct Conn {
    int fd = -1;
    /// Set by the loop before the fd closes; writers drop output once set.
    std::atomic<bool> closed{false};

    // Loop-only state.
    std::string rbuf;
    bool want_write = false;
    bool read_shut = false;

    base::Mutex mu;
    std::deque<std::string> lines GUARDED_BY(mu);
    bool strand_scheduled GUARDED_BY(mu) = false;
    std::string outbox GUARDED_BY(mu);
    /// Steady stamp (µs) of the enqueue that made `outbox` non-empty; 0
    /// while drained. Feeds the server.outbox.flush_us histogram — the
    /// time a queued frame waits before the loop fully drains the queue.
    uint64_t outbox_since_us GUARDED_BY(mu) = 0;
    bool close_after_flush GUARDED_BY(mu) = false;
    bool overflowed GUARDED_BY(mu) = false;

    // Strand-only state (see class comment).
    Handshake handshake;
  };

  /// One registry entry: the session plus the lock serializing its heavy
  /// operations (Finish / Resume / the push driver's phases). Cancel
  /// needs no lock — it only flips the session's shared atomic token.
  struct ServerSession {
    explicit ServerSession(core::RecommendationSession session)
        : session(std::move(session)) {}
    base::Mutex mu;
    /// Heavy operations (phases / Finish / Resume) serialize under mu; NOT
    /// GUARDED_BY because Cancel() is deliberately lock-free — it only
    /// flips the session's shared atomic token from any thread.
    core::RecommendationSession session;
    /// Set once a `finish` ran: a second finisher racing the registry
    /// erase gets a clean not_found instead of an internal error.
    bool finished GUARDED_BY(mu) = false;

    /// Wall stamp of the last request (or server-driven phase) touching
    /// this session; the timer wheel's expiry check reads it to tell idle
    /// sessions from merely long-scheduled ones.
    std::atomic<int64_t> last_active_ms{0};
    /// Set by EvictSession after the registry forgets the id. From then on
    /// PushFrameLocked drops this incarnation's frames (a queued phase job
    /// or an in-flight Next must not emit after the terminal `drained`);
    /// only the eviction-sent drained itself bypasses the suppression.
    std::atomic<bool> evicted{false};
    /// Counted against max_inflight_phases. Cleared once the session's
    /// push stream drains (or its subscriber disconnects), it finishes, or
    /// it is evicted; resume re-arms it.
    std::atomic<bool> counted_inflight{false};

    // Push-driving state.
    bool driving GUARDED_BY(mu) = false;
    uint64_t push_seq GUARDED_BY(mu) = 0;
    /// A terminal `drained` frame actually reached the push connection's
    /// write queue — exactly-once bookkeeping between the phase driver and
    /// eviction.
    bool drained_sent GUARDED_BY(mu) = false;
    /// The connection receiving this session's push frames (rebound by a
    /// `resume` from another connection; cancelled when it disconnects).
    std::weak_ptr<Conn> push_conn GUARDED_BY(mu);
  };

  /// Per-request context: the connection a line arrived on (null for the
  /// socketless HandleLine()) and an action to run after the response has
  /// been queued — how a push-mode `open`/`resume` starts the phase driver
  /// without its first frame overtaking the ack.
  struct ReqCtx {
    std::shared_ptr<Conn> conn;
    std::function<void()> after_send;
  };

  // Request dispatch (workers, on a connection's strand).
  std::string HandleLineOnConn(const std::string& line, ReqCtx* ctx);
  JsonValue Dispatch(const JsonValue& request, ReqCtx* ctx);
  JsonValue HandleHello(const JsonValue& request, ReqCtx* ctx);
  JsonValue HandleOpen(const std::string& id, const JsonValue& request,
                       ReqCtx* ctx);
  JsonValue HandleCancel(const std::string& id);
  JsonValue HandleResume(const std::string& id, ReqCtx* ctx);
  JsonValue HandleFinish(const std::string& id);
  JsonValue HandleStatus(const std::string& id);
  JsonValue HandleMetrics();
  std::shared_ptr<ServerSession> FindSession(const std::string& id)
      EXCLUDES(sessions_mu_);
  /// Refreshes the session's idle stamp (every op that names a live id).
  void Touch(ServerSession* entry);

  // Push driving (workers).
  void StartDrivingLocked(ServerSession* entry,
                          const std::shared_ptr<Conn>& conn)
      REQUIRES(entry->mu);
  void DrivePhase(std::shared_ptr<ServerSession> entry, std::string id);
  /// Serializes `frame` (+ push/seq/ts_us markers) into the session's bound
  /// connection. Returns whether the frame reached a write queue; frames of
  /// evicted sessions are dropped unless `even_if_evicted` (the eviction
  /// path's own terminal `drained`).
  bool PushFrameLocked(ServerSession* entry, JsonValue frame,
                       bool even_if_evicted = false) REQUIRES(entry->mu);
  /// ProgressSink trampoline. The sink only ever fires inside a Next() /
  /// Finish() call, and every such call site holds the entry's mu — but the
  /// analysis cannot see through the std::function boundary, so the
  /// requirement is asserted here by hand instead of REQUIRES.
  void PushProgress(ServerSession* entry, const std::string& id,
                    const core::ProgressUpdate& update)
      NO_THREAD_SAFETY_ANALYSIS;
  void MarkDrained(const std::shared_ptr<ServerSession>& entry);

  // Admission / eviction.
  bool AdmitOpen() const;
  void AdvanceWheel() EXCLUDES(wheel_mu_);
  void EvictSession(const std::string& id,
                    const std::shared_ptr<ServerSession>& entry)
      EXCLUDES(sessions_mu_);
  static int64_t NowMs();
  static int64_t NowUs();

  // Event loop (one thread).
  void EventLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void UpdateWriteInterest(const std::shared_ptr<Conn>& conn, bool want);

  // Worker-side plumbing.
  void RunStrand(std::shared_ptr<Conn> conn);
  void EnqueueOutput(const std::shared_ptr<Conn>& conn, std::string frame);
  void MarkDirty(const std::shared_ptr<Conn>& conn);
  void WakeLoop();
  /// Post to the pool unless the server is stopping (drive chains end).
  void PostJob(std::function<void()> job);

  db::Engine* engine_;
  core::SeeDB seedb_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;

  mutable base::Mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<ServerSession>> sessions_
      GUARDED_BY(sessions_mu_);
  /// Sessions counted against max_inflight_phases (open, phases left).
  std::atomic<size_t> inflight_sessions_{0};

  /// Loop-owned fd -> connection map; Stop() walks it after the loop joins.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Connections with freshly queued output, handed worker -> loop.
  base::Mutex dirty_mu_;
  std::vector<std::weak_ptr<Conn>> dirty_ GUARDED_BY(dirty_mu_);

  /// Idle-eviction wheel; armed per `open`, advanced by the event loop.
  base::Mutex wheel_mu_;
  TimerWheel wheel_ GUARDED_BY(wheel_mu_);

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_finished_{0};
  std::atomic<uint64_t> sessions_evicted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> push_frames_sent_{0};
};

}  // namespace seedb::server

#endif  // SEEDB_SERVER_SERVER_H_
