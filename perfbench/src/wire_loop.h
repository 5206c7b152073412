// The benchmark's wire client: one thread multiplexing a few protocol-v2
// push connections with poll(), keeping one session in flight per
// connection (a closed loop). Every frame is stamped on
// arrival; a session's timeline (send, ack, each push frame, drained,
// finish, result) is what the latency metrics and client spans come from.

#ifndef PERFBENCH_WIRE_LOOP_H_
#define PERFBENCH_WIRE_LOOP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "util/result.h"

namespace perfbench {

struct WireSession {
  /// Position in the workload's request list (selects the analyst query).
  size_t index = 0;
  std::string id;
  /// The `open` request line, without its newline.
  std::string open_line;
  /// When the `open` was sent; latencies are measured from here.
  int64_t sent_ns = 0;
  int64_t ack_ns = 0;
  /// Arrival of every push frame (progress frames, then drained).
  std::vector<int64_t> frame_ns;
  int64_t first_frame_ns = 0;
  int64_t drained_ns = 0;
  int64_t finish_sent_ns = 0;
  int64_t result_ns = 0;
  /// Bytes received for this session (every frame line plus newline).
  uint64_t bytes = 0;
  bool done = false;
  bool failed = false;
  std::string error;
  std::optional<seedb::server::RemoteResult> result;
};

/// \brief A set of push-mode connections driven from the calling thread.
class WireLoop {
 public:
  /// Connects `connections` sockets to the server at `unix_path` and
  /// negotiates protocol v2 push on each.
  static seedb::Result<std::unique_ptr<WireLoop>> Connect(
      const std::string& unix_path, size_t connections);
  ~WireLoop();
  WireLoop(const WireLoop&) = delete;
  WireLoop& operator=(const WireLoop&) = delete;

  /// Closed loop: every connection keeps one session in flight, asking
  /// `next` for a new one as soon as the previous finished, until `stop_ns`
  /// or until `next` has none; then waits for the ones in flight (until
  /// `give_up_ns`).
  void RunClosedLoop(const std::function<std::optional<WireSession>()>& next,
                     int64_t stop_ns, int64_t give_up_ns,
                     std::deque<WireSession>* out);

  /// Time spent in server::ParseJson on received frames, and how many.
  double parse_us_total() const { return parse_us_total_; }
  uint64_t frames_parsed() const { return frames_parsed_; }

 private:
  struct Conn {
    int fd = -1;
    std::string rbuf;
    /// The connection has a session in flight.
    bool busy = false;
  };
  explicit WireLoop(std::vector<Conn> conns) : conns_(std::move(conns)) {}

  /// Sends `s` on connection `c` and registers it as live.
  void Send(size_t c, WireSession* s);
  /// Waits up to `timeout_ns` for frames and handles every complete one.
  void Pump(int64_t timeout_ns);
  void OnLine(size_t c, const std::string& line, int64_t now);
  void Complete(WireSession* s, size_t c);

  std::vector<Conn> conns_;
  struct Live {
    WireSession* session;
    size_t conn;
  };
  std::unordered_map<std::string, Live> live_;
  double parse_us_total_ = 0.0;
  uint64_t frames_parsed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_LOOP_H_
