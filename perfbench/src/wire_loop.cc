#include "wire_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "server/json.h"
#include "spans.h"

namespace perfbench {

using seedb::Result;
using seedb::Status;
namespace server = seedb::server;

namespace {

Status SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return Status::IOError("send failed: " + std::string(std::strerror(errno)));
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Blocking read of one line (the hello response) into `rbuf`.
Result<std::string> ReadLine(int fd, std::string* rbuf) {
  for (;;) {
    const size_t nl = rbuf->find('\n');
    if (nl != std::string::npos) {
      std::string line = rbuf->substr(0, nl);
      rbuf->erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return Status::IOError("connection closed during hello");
    rbuf->append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

Result<std::unique_ptr<WireLoop>> WireLoop::Connect(const std::string& unix_path,
                                                   size_t connections) {
  std::vector<Conn> conns;
  auto close_all = [&conns] {
    for (Conn& c : conns) ::close(c.fd);
  };
  const std::string hello =
      server::HelloRequestToJson(server::kProtocolVersion, {server::kCapPush})
          .Dump() +
      "\n";
  for (size_t i = 0; i < connections; ++i) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      close_all();
      return Status::InvalidArgument("socket path too long: " + unix_path);
    }
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      close_all();
      return Status::IOError("socket() failed");
    }
    conns.push_back(Conn{fd, "", false});
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_all();
      return Status::IOError("connect to " + unix_path + " failed");
    }
    Status st = SendAll(fd, hello);
    Result<std::string> line = st.ok() ? ReadLine(fd, &conns.back().rbuf)
                                       : Result<std::string>(st);
    if (!line.ok()) {
      close_all();
      return line.status();
    }
    Result<server::JsonValue> frame = server::ParseJson(*line);
    Result<server::Handshake> hs =
        frame.ok() ? server::HandshakeFromJson(*frame)
                   : Result<server::Handshake>(frame.status());
    if (!hs.ok() || !hs->push) {
      close_all();
      return Status::Internal("server did not negotiate protocol v2 push");
    }
  }
  return std::unique_ptr<WireLoop>(new WireLoop(std::move(conns)));
}

WireLoop::~WireLoop() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void WireLoop::Send(size_t c, WireSession* s) {
  s->sent_ns = NowNs();
  conns_[c].busy = true;
  live_[s->id] = Live{s, c};
  Status st = SendAll(conns_[c].fd, s->open_line + "\n");
  if (!st.ok()) {
    s->failed = true;
    s->error = st.ToString();
    Complete(s, c);
  }
}

void WireLoop::Complete(WireSession* s, size_t c) {
  s->done = true;
  conns_[c].busy = false;
  live_.erase(s->id);
}

void WireLoop::Pump(int64_t timeout_ns) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) pfds.push_back(pollfd{c.fd, POLLIN, 0});
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
  for (size_t c = 0; c < conns_.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(conns_[c].fd, chunk, sizeof(chunk));
    const int64_t now = NowNs();
    if (n <= 0) {
      // The server closed the connection: everything in flight on it fails.
      for (auto it = live_.begin(); it != live_.end();) {
        Live live = it->second;
        ++it;
        if (live.conn != c) continue;
        live.session->failed = true;
        live.session->error = "connection closed";
        Complete(live.session, c);
      }
      ::close(conns_[c].fd);
      conns_[c].fd = -1;  // ppoll skips it; a later Send fails
      continue;
    }
    std::string& buf = conns_[c].rbuf;
    buf.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      OnLine(c, buf.substr(start, nl - start), now);
      start = nl + 1;
    }
    buf.erase(0, start);
  }
}

void WireLoop::OnLine(size_t c, const std::string& line, int64_t now) {
  const int64_t t0 = NowNs();
  Result<server::JsonValue> parsed = server::ParseJson(line);
  parse_us_total_ += static_cast<double>(NowNs() - t0) / 1e3;
  ++frames_parsed_;
  if (!parsed.ok()) return;
  const server::JsonValue& frame = *parsed;
  auto it = live_.find(frame.GetString("id"));
  if (it == live_.end()) return;
  WireSession* s = it->second.session;
  s->bytes += line.size() + 1;
  const std::string type = frame.GetString("type");
  const bool push = frame.GetBool("push");
  if (!frame.GetBool("ok")) {
    const Status st = server::StatusFromErrorResponse(frame);
    if (push) {  // mid-stream error: the stream still drains
      s->error = st.ToString();
      return;
    }
    s->failed = true;
    s->error = st.ToString();
    Complete(s, c);
    return;
  }
  if (type == "opened") {
    s->ack_ns = now;
  } else if (push && (type == "progress" || type == "drained")) {
    s->frame_ns.push_back(now);
    if (s->first_frame_ns == 0) s->first_frame_ns = now;
    if (type == "drained") {
      s->drained_ns = now;
      server::JsonValue finish = server::JsonValue::Object();
      finish.Set("op", server::JsonValue::Str("finish"));
      finish.Set("id", server::JsonValue::Str(s->id));
      s->finish_sent_ns = NowNs();
      Status st = SendAll(conns_[c].fd, finish.Dump() + "\n");
      if (!st.ok()) {
        s->failed = true;
        s->error = st.ToString();
        Complete(s, c);
      }
    }
  } else if (type == "result") {
    s->result_ns = now;
    Result<server::RemoteResult> result = server::ResultFromJson(frame);
    if (result.ok()) {
      s->result = std::move(*result);
    } else {
      s->failed = true;
      s->error = result.status().ToString();
    }
    Complete(s, c);
  }
}

void WireLoop::RunClosedLoop(
    const std::function<std::optional<WireSession>()>& next, int64_t stop_ns,
    int64_t give_up_ns, std::deque<WireSession>* out) {
  constexpr int64_t kMaxWaitNs = 20'000'000;
  bool sending = true;
  for (;;) {
    const int64_t now = NowNs();
    sending = sending && now < stop_ns;
    for (size_t c = 0; c < conns_.size() && sending; ++c) {
      if (conns_[c].busy || conns_[c].fd < 0) continue;
      std::optional<WireSession> s = next();
      if (!s) {
        sending = false;
        break;
      }
      out->push_back(std::move(*s));
      Send(c, &out->back());
    }
    if (!sending && live_.empty()) break;
    if (now >= give_up_ns) break;
    Pump(kMaxWaitNs);
  }
  for (WireSession& s : *out) {
    if (s.done) continue;
    s.failed = true;
    s.error = "no result before the run's deadline";
    Complete(&s, live_.at(s.id).conn);
  }
}

}  // namespace perfbench
