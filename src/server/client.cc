#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/net_util.h"

namespace seedb::server {

Status Client::CheckOk(const JsonValue& response) {
  last_retry_after_ms_ = static_cast<int>(response.GetInt("retry_after_ms"));
  if (response.GetBool("ok")) return Status::OK();
  Status status = StatusFromErrorResponse(response);
  if (last_retry_after_ms_ > 0) {
    // Admission-control busy frames say when capacity is expected back;
    // keep the hint on the Status so every caller that prints the error
    // sees it, and machine-readable via last_retry_after_ms().
    return Status(status.code(),
                  status.message() + " (retry after " +
                      std::to_string(last_retry_after_ms_) + " ms)");
  }
  return status;
}

Result<Client> Client::ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = ErrnoStatus("connect(" + path + ")");
    ::close(fd);
    return s;
  }
  return Client(fd);
}

Result<Client> Client::ConnectTcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_INET)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = ErrnoStatus("connect(" + host + ":" + std::to_string(port) + ")");
    ::close(fd);
    return s;
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      handshake_(other.handshake_),
      last_retry_after_ms_(other.last_retry_after_ms_),
      push_(std::move(other.push_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    handshake_ = other.handshake_;
    last_retry_after_ms_ = other.last_retry_after_ms_;
    push_ = std::move(other.push_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> Client::ReadLine() {
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError("server closed the connection");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<JsonValue> Client::ReadFrame() {
  SEEDB_ASSIGN_OR_RETURN(std::string line, ReadLine());
  return ParseJson(line);
}

void Client::StashPush(JsonValue frame) {
  PushStream& stream = push_[frame.GetString("id")];
  if (frame.GetString("type") == "drained") stream.drained = true;
  stream.frames.push_back(std::move(frame));
}

Result<JsonValue> Client::NextPushFrame(const std::string& id) {
  while (true) {
    PushStream& stream = push_[id];
    if (!stream.frames.empty()) {
      JsonValue frame = std::move(stream.frames.front());
      stream.frames.pop_front();
      return frame;
    }
    if (stream.drained) {
      // The stream already ended; keep answering drained instead of
      // blocking on a socket that will stay silent for this id.
      JsonValue frame = JsonValue::Object();
      frame.Set("ok", JsonValue::Bool(true));
      frame.Set("id", JsonValue::Str(id));
      frame.Set("type", JsonValue::Str("drained"));
      return frame;
    }
    SEEDB_ASSIGN_OR_RETURN(JsonValue frame, ReadFrame());
    if (!frame.GetBool("push")) {
      return Status::Internal("unsolicited non-push frame: " + frame.Dump());
    }
    StashPush(std::move(frame));  // note: push_[...] may rehash; loop re-looks-up
  }
}

Result<std::string> Client::CallRaw(const std::string& line) {
  if (fd_ < 0) return Status::Internal("client not connected");
  std::string framed = line;
  framed.push_back('\n');
  if (!WriteAll(fd_, framed)) return ErrnoStatus("send");
  return ReadLine();
}

Result<JsonValue> Client::Call(const JsonValue& request) {
  if (fd_ < 0) return Status::Internal("client not connected");
  std::string framed = request.Dump();
  framed.push_back('\n');
  if (!WriteAll(fd_, framed)) return ErrnoStatus("send");
  // Responses arrive in request order; push frames may interleave ahead of
  // the response and are stashed for their sessions.
  while (true) {
    SEEDB_ASSIGN_OR_RETURN(JsonValue frame, ReadFrame());
    if (frame.GetBool("push")) {
      StashPush(std::move(frame));
      continue;
    }
    return frame;
  }
}

Status Client::Hello() {
  SEEDB_ASSIGN_OR_RETURN(
      JsonValue response,
      Call(HelloRequestToJson(kProtocolVersion, {std::string(kCapPush)})));
  SEEDB_RETURN_IF_ERROR(CheckOk(response));
  SEEDB_ASSIGN_OR_RETURN(handshake_, HandshakeFromJson(response));
  return Status::OK();
}

Status Client::Open(const std::string& id, const OpenSpec& spec) {
  SEEDB_ASSIGN_OR_RETURN(JsonValue response,
                         Call(OpenRequestToJson(id, spec)));
  return CheckOk(response);
}

Result<RemoteSession> Client::OpenSession(const std::string& id,
                                          const OpenSpec& spec) {
  if (!push_enabled()) {
    return Status::FailedPrecondition(
        "OpenSession needs a push-mode connection (call Hello() first)");
  }
  SEEDB_RETURN_IF_ERROR(Open(id, spec));
  return RemoteSession(this, id);
}

Result<std::optional<RemoteProgress>> Client::Next(const std::string& id) {
  if (!push_enabled()) {
    // Nothing drives a session on this connection, so no frame would ever
    // arrive: fail instead of blocking on the socket forever.
    return Status::FailedPrecondition(
        "Next needs a push-mode connection (call Hello() first)");
  }
  SEEDB_ASSIGN_OR_RETURN(JsonValue frame, NextPushFrame(id));
  SEEDB_RETURN_IF_ERROR(CheckOk(frame));
  if (frame.GetString("type") == "drained") {
    return std::optional<RemoteProgress>();
  }
  SEEDB_ASSIGN_OR_RETURN(RemoteProgress progress, ProgressFromJson(frame));
  return std::optional<RemoteProgress>(std::move(progress));
}

Status Client::Cancel(const std::string& id) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str("cancel"));
  request.Set("id", JsonValue::Str(id));
  SEEDB_ASSIGN_OR_RETURN(JsonValue response, Call(request));
  return CheckOk(response);
}

Status Client::Resume(const std::string& id) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str("resume"));
  request.Set("id", JsonValue::Str(id));
  SEEDB_ASSIGN_OR_RETURN(JsonValue response, Call(request));
  SEEDB_RETURN_IF_ERROR(CheckOk(response));
  // The server drives again after a push-mode resume: reopen the local
  // stream so the new frames are consumable past the old drained marker.
  if (push_enabled()) push_[id].drained = false;
  return Status::OK();
}

Result<RemoteResult> Client::Finish(const std::string& id) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str("finish"));
  request.Set("id", JsonValue::Str(id));
  SEEDB_ASSIGN_OR_RETURN(JsonValue response, Call(request));
  SEEDB_RETURN_IF_ERROR(CheckOk(response));
  push_.erase(id);
  return ResultFromJson(response);
}

Result<RemoteStatus> Client::GetStatus(const std::string& id) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str("status"));
  if (!id.empty()) request.Set("id", JsonValue::Str(id));
  SEEDB_ASSIGN_OR_RETURN(JsonValue response, Call(request));
  SEEDB_RETURN_IF_ERROR(CheckOk(response));
  return StatusFromJson(response);
}

Result<JsonValue> Client::Metrics() {
  SEEDB_ASSIGN_OR_RETURN(JsonValue response, Call(MetricsRequestToJson()));
  SEEDB_RETURN_IF_ERROR(CheckOk(response));
  return response;
}

Result<RemoteResult> RemoteSession::Await() {
  while (true) {
    SEEDB_ASSIGN_OR_RETURN(JsonValue frame, client_->NextPushFrame(id_));
    const std::string type = frame.GetString("type");
    if (type == "drained") break;
    if (!frame.GetBool("ok")) {
      // Mid-stream failure (budget breach, execution error): remember it,
      // keep pumping to the drained marker, still fetch partial results.
      last_error_ = StatusFromErrorResponse(frame);
      continue;
    }
    if (type == "progress" && on_progress_) {
      SEEDB_ASSIGN_OR_RETURN(RemoteProgress progress, ProgressFromJson(frame));
      on_progress_(progress);
    }
  }
  return client_->Finish(id_);
}

Status RemoteSession::Cancel() { return client_->Cancel(id_); }

Status RemoteSession::Resume() { return client_->Resume(id_); }

}  // namespace seedb::server
