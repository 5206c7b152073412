// Push serving tests: hello negotiation, server-driven push sessions (no
// request per phase), connections without push (undriven sessions),
// subscribers that disconnect mid-stream, idle-session eviction via the
// timer wheel, and admission control under both deterministic and 8-thread
// contended load. ASan/UBSan-clean — CI runs the sanitizer matrix over this
// file.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/seedb.h"
#include "data/synthetic.h"
#include "db/engine.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"

namespace seedb::server {
namespace {

// --- Hello negotiation (pure protocol layer) ---

TEST(HelloTest, NegotiatesVersionAndPush) {
  auto negotiate = [](const std::string& line) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return NegotiateHello(*parsed);
  };
  Handshake v2 = negotiate("{\"op\":\"hello\",\"version\":2,"
                           "\"capabilities\":[\"push\"]}");
  EXPECT_EQ(v2.version, 2);
  EXPECT_TRUE(v2.push);

  // A newer client is clamped to what this server speaks.
  Handshake v9 = negotiate("{\"op\":\"hello\",\"version\":9,"
                           "\"capabilities\":[\"push\"]}");
  EXPECT_EQ(v9.version, kProtocolVersion);
  EXPECT_TRUE(v9.push);

  // A version-1 hello never gets push, even if requested.
  Handshake v1 = negotiate("{\"op\":\"hello\",\"version\":1,"
                           "\"capabilities\":[\"push\"]}");
  EXPECT_EQ(v1.version, 1);
  EXPECT_FALSE(v1.push);

  // No capabilities: v2 framing, but no push (sessions stay undriven).
  Handshake plain = negotiate("{\"op\":\"hello\",\"version\":2}");
  EXPECT_EQ(plain.version, 2);
  EXPECT_FALSE(plain.push);

  // Unknown capabilities are dropped silently (forward compatibility —
  // binary_frames is reserved but not implemented).
  Handshake unknown = negotiate(
      "{\"op\":\"hello\",\"version\":2,"
      "\"capabilities\":[\"binary_frames\",\"telepathy\",\"push\"]}");
  EXPECT_TRUE(unknown.push);
}

TEST(HelloTest, ResponseRoundTripsThroughJson) {
  Handshake handshake;
  handshake.version = 2;
  handshake.push = true;
  auto back = HandshakeFromJson(HelloResponseToJson(handshake));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, 2);
  EXPECT_TRUE(back->push);
}

TEST(HelloTest, BusyStatusRoundTripsThroughErrorFrames) {
  Status busy = Status::Unavailable("server at capacity");
  JsonValue frame = ErrorResponse(busy, "s1");
  EXPECT_EQ(frame.GetString("code"), "busy");
  Status back = StatusFromErrorResponse(frame);
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back.message(), "server at capacity");
}

// --- Fixture: a live server over the Laserwave table ---

class PushServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    socket_path_ = "/tmp/seedb_push_test_" + std::to_string(::getpid()) +
                   ".sock";
    ASSERT_TRUE(
        catalog_.AddTable("sales", ::seedb::testing::MakeLaserwaveTable())
            .ok());
    engine_ = std::make_unique<db::Engine>(&catalog_);
    options.unix_path = socket_path_;
    server_ = std::make_unique<RecommendationServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  OpenSpec LaserwaveSpec(size_t phases = 4) {
    OpenSpec spec;
    spec.sql = "SELECT * FROM sales WHERE product = 'Laserwave'";
    spec.k = 2;
    spec.phases = phases;
    return spec;
  }

  /// A raw unix-socket peer, for pinning the bytes on the wire.
  class RawConn {
   public:
    explicit RawConn(const std::string& path)
        : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      connected_ =
          fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) == 0;
    }
    ~RawConn() {
      if (fd_ >= 0) ::close(fd_);
    }
    RawConn(const RawConn&) = delete;
    RawConn& operator=(const RawConn&) = delete;
    bool connected() const { return connected_; }
    bool Send(const std::string& lines) {
      return ::send(fd_, lines.data(), lines.size(), 0) ==
             static_cast<ssize_t>(lines.size());
    }
    /// The next line (without its newline); "" once the server closed.
    std::string ReadLine() {
      char chunk[65536];
      size_t newline;
      while ((newline = buffer_.find('\n')) == std::string::npos) {
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0) return "";
        buffer_.append(chunk, static_cast<size_t>(n));
      }
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }

   private:
    int fd_;
    bool connected_ = false;
    std::string buffer_;
  };

  db::Catalog catalog_;
  std::unique_ptr<db::Engine> engine_;
  std::unique_ptr<RecommendationServer> server_;
  std::string socket_path_;
};

// --- Push sessions ---

// Replies and pushed frames share one connection, and clients tell them
// apart by the "push" key alone. So the replies to open, status and finish
// on a push connection carry none of the push markers.
TEST_F(PushServerTest, RepliesCarryNoPushMarkers) {
  StartServer(ServerOptions{});
  RawConn raw(socket_path_);
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.Send(
      "{\"op\":\"hello\",\"version\":2,\"capabilities\":[\"push\"]}\n"
      "{\"op\":\"open\",\"id\":\"shape\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\",\"phases\":2}\n"));
  std::vector<std::string> lines;
  while (lines.empty() ||
         lines.back().find("\"drained\"") == std::string::npos) {
    lines.push_back(raw.ReadLine());
    ASSERT_FALSE(lines.back().empty()) << "server closed early";
  }
  ASSERT_TRUE(raw.Send("{\"op\":\"status\",\"id\":\"shape\"}\n"
                       "{\"op\":\"finish\",\"id\":\"shape\"}\n"));
  lines.push_back(raw.ReadLine());
  lines.push_back(raw.ReadLine());

  std::vector<std::string> reply_types;
  size_t pushed = 0;
  for (const std::string& line : lines) {
    auto frame = ParseJson(line);
    ASSERT_TRUE(frame.ok()) << line;
    if (frame->GetBool("push")) {
      ++pushed;
      continue;
    }
    reply_types.push_back(frame->GetString("type"));
    for (const char* marker : {"push", "seq", "ts_us"}) {
      EXPECT_EQ(frame->Find(marker), nullptr) << marker << " in " << line;
    }
  }
  EXPECT_EQ(reply_types,
            (std::vector<std::string>{"hello", "opened", "status", "result"}));
  EXPECT_EQ(pushed, 3u);  // 2 progress + drained
}

TEST_F(PushServerTest, PushSessionStreamsWithoutPollingRoundTrips) {
  StartServer(ServerOptions{});
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  ASSERT_TRUE(client->push_enabled());
  EXPECT_EQ(client->handshake().version, 2);

  auto session = client->OpenSession("pushed", LaserwaveSpec(4));
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<size_t> phases;
  std::vector<int64_t> sent_us;
  session->OnProgress([&](const RemoteProgress& p) {
    phases.push_back(p.phase);
    sent_us.push_back(p.sent_us);
  });
  auto result = session->Await();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(session->last_error().ok());
  EXPECT_EQ(phases, (std::vector<size_t>{1, 2, 3, 4}));
  // Each frame carries the server's send stamp, in send order.
  ASSERT_EQ(sent_us.size(), 4u);
  EXPECT_GT(sent_us.front(), 0);
  EXPECT_TRUE(std::is_sorted(sent_us.begin(), sent_us.end()));
  EXPECT_EQ(result->top.size(), 2u);
  EXPECT_EQ(result->profile.phases_executed, 4u);

  // THE regression pin for the busy-wait fix: a push session costs exactly
  // three request round-trips — hello, open, finish. Every progress frame
  // arrived as a push; no request was made per phase.
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.push_frames_sent, 5u);  // 4 progress + drained
}

TEST_F(PushServerTest, PushFramesCarrySequencedV2Markers) {
  StartServer(ServerOptions{});
  // Raw socket: pin the wire shape of the push stream itself.
  RawConn raw(socket_path_);
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.Send(
      "{\"op\":\"hello\",\"version\":2,\"capabilities\":[\"push\"]}\n"
      "{\"op\":\"open\",\"id\":\"wire\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\",\"phases\":3}\n"));

  // Expect: hello ack, opened ack, then 3 progress pushes + drained push.
  std::vector<JsonValue> frames;
  for (int i = 0; i < 6; ++i) {
    const std::string line = raw.ReadLine();
    ASSERT_FALSE(line.empty()) << "server closed early";
    auto frame = ParseJson(line);
    ASSERT_TRUE(frame.ok()) << line;
    frames.push_back(std::move(*frame));
  }
  EXPECT_EQ(frames[0].GetString("type"), "hello");
  EXPECT_FALSE(frames[0].GetBool("push"));
  EXPECT_EQ(frames[1].GetString("type"), "opened");
  EXPECT_FALSE(frames[1].GetBool("push"));
  int64_t last_seq = 0;
  for (size_t i = 2; i < 6; ++i) {
    EXPECT_TRUE(frames[i].GetBool("push")) << frames[i].Dump();
    EXPECT_EQ(frames[i].GetString("id"), "wire");
    EXPECT_GT(frames[i].GetInt("seq"), last_seq) << "seq must increase";
    last_seq = frames[i].GetInt("seq");
    EXPECT_GT(frames[i].GetInt("ts_us"), 0) << "missing send stamp";
    EXPECT_EQ(frames[i].GetString("type"), i < 5 ? "progress" : "drained");
  }
}

TEST_F(PushServerTest, CancelAndResumeKeepStreamingOnAPushConnection) {
  StartServer(ServerOptions{});
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  auto session = client->OpenSession("cr", LaserwaveSpec(6));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Cancel().ok());
  // The stream drains (possibly after frames already in flight).
  while (true) {
    auto progress = client->Next("cr");
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (!progress->has_value()) break;
  }
  Status resumed_status = session->Resume();
  if (!resumed_status.ok()) {
    // The run was already complete before the cancel token landed (the
    // server drives fast): nothing to resume, which the server reports as
    // invalid_argument — same as the in-process session.
    EXPECT_EQ(resumed_status.code(), StatusCode::kInvalidArgument);
  }
  auto result = session->Await();
  ASSERT_TRUE(result.ok()) << result.status();
  // The run completed: all 6 phases executed across cancel+resume, and the
  // final profile is a full clean scan.
  EXPECT_EQ(result->profile.phases_executed, 6u);
  EXPECT_FALSE(result->profile.cancelled);
}

// --- Connections without push ---

// Nothing drives a session opened without `hello`, so no frame for it will
// ever arrive: Next() must refuse at once instead of blocking on the socket,
// while `finish` still runs the session to the end.
TEST_F(PushServerTest, HelloLessClientCannotPullFramesButFinishRunsToEnd) {
  StartServer(ServerOptions{});
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_FALSE(client->push_enabled());
  ASSERT_TRUE(client->Open("undriven", LaserwaveSpec(3)).ok());

  auto next = client->Next("undriven");
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client->OpenSession("handle", LaserwaveSpec(3)).status().code(),
            StatusCode::kFailedPrecondition);

  auto result = client->Finish("undriven");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->top.size(), 2u);
  EXPECT_EQ(result->profile.phases_executed, 3u);
  EXPECT_FALSE(result->profile.cancelled);
  // open + finish only: Next() sent nothing, and nothing was pushed.
  EXPECT_EQ(server_->stats().requests, 2u);
  EXPECT_EQ(server_->stats().push_frames_sent, 0u);
}

// --- Disconnect mid-stream ---

// A subscriber that closes its socket mid-stream: the server stops scanning
// on its behalf (the session is cancelled, not run into a dead socket),
// gives its admission slot back, and keeps the session resumable — a second
// connection rebinds the stream, drains it, and finishes with the ranking
// of an uninterrupted run.
TEST_F(PushServerTest, DisconnectedSubscriberIsCancelledAndResumableElsewhere) {
  {
    auto dataset = ::seedb::data::GenerateSynthetic(
        ::seedb::data::SyntheticSpec::Simple(100000, 3, 2, 8, 7));
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    ASSERT_TRUE(catalog_.AddTable("big", std::move(dataset->table)).ok());
  }
  ServerOptions options;
  options.max_inflight_phases = 1;
  StartServer(options);
  // The server only learns of the hangup when its event loop next runs,
  // while the phases keep running on a worker meanwhile. So the run left
  // after the first frame must clearly outlast that: each phase costs about
  // 0.1 ms of fixed work (its progress update and frame) however few rows
  // it scans, and 2000 of them leave about a quarter of a second (4-core
  // x86 host, release build; sanitizers slow both sides alike) against the
  // loop's sub-millisecond reaction, so the loop thread can be descheduled
  // for a hundred scheduler slices on a loaded runner and still see the
  // hangup first. One worker and no pruning make the resumed run
  // bit-identical to an uninterrupted one.
  OpenSpec spec;
  spec.table = "big";
  spec.k = 2;
  spec.phases = 2000;
  spec.pruner = "none";
  spec.parallelism = 1;

  {
    RawConn raw(socket_path_);
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send(
        "{\"op\":\"hello\",\"version\":2,\"capabilities\":[\"push\"]}\n" +
        OpenRequestToJson("orphan", spec).Dump() + "\n"));
    for (const char* type : {"hello", "opened", "progress"}) {
      auto frame = ParseJson(raw.ReadLine());
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(frame->GetString("type"), type) << frame->Dump();
    }
  }  // closes the socket after the first pushed frame

  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  // 1. The server notices the dead subscriber and cancels the session.
  Result<RemoteStatus> status = Status::Internal("never polled");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    status = client->GetStatus("orphan");
    ASSERT_TRUE(status.ok()) << status.status();
    if (status->cancelled || status->phases_run == spec.phases) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(status->cancelled)
      << "ran " << status->phases_run << " phases into a closed socket";
  EXPECT_LT(status->phases_run, spec.phases);

  // 2. Its admission slot is free again: with max_inflight_phases = 1 a new
  // open is admitted.
  auto probe = client->OpenSession("probe", LaserwaveSpec(1));
  ASSERT_TRUE(probe.ok()) << probe.status();
  ASSERT_TRUE(probe->Await().ok());

  // 3. Resume rebinds the stream to this connection, which drains it.
  ASSERT_TRUE(client->Resume("orphan").ok());
  size_t resumed_phases = 0;
  while (true) {
    auto progress = client->Next("orphan");
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (!progress->has_value()) break;
    ++resumed_phases;
  }
  EXPECT_EQ(resumed_phases + status->phases_run, spec.phases);
  auto remote = client->Finish("orphan");
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto request = OpenRequestFromJson(OpenRequestToJson("orphan", spec));
  ASSERT_TRUE(request.ok()) << request.status();
  auto truth = core::SeeDB(engine_.get()).Run(*request);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_FALSE(remote->profile.cancelled);
  EXPECT_EQ(remote->profile.phases_executed, spec.phases);
  EXPECT_EQ(remote->profile.rows_scanned, truth->profile.rows_scanned);
  ASSERT_EQ(remote->top.size(), truth->top_views.size());
  for (size_t i = 0; i < remote->top.size(); ++i) {
    EXPECT_EQ(remote->top[i].view_id, truth->top_views[i].view().Id());
    EXPECT_EQ(remote->top[i].utility, truth->top_views[i].utility())
        << "rank " << i + 1 << " utility must be bit-identical";
  }
}

// --- Eviction ---

TEST_F(PushServerTest, IdleSessionsAreEvictedAndMemoryAccountedToZero) {
  ServerOptions options;
  options.session_idle_timeout_ms = 200;
  StartServer(options);
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  auto undriven = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(undriven.ok());

  // Two abandoned sessions, never finished: one the server drove to the end
  // of its stream, one opened without push and so never driven.
  ASSERT_TRUE(client->Open("idle-a", LaserwaveSpec()).ok());
  while (true) {
    auto progress = client->Next("idle-a");
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (!progress->has_value()) break;
  }
  ASSERT_TRUE(undriven->Open("idle-b", LaserwaveSpec()).ok());
  auto before = client->GetStatus();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->sessions, 2u);
  EXPECT_GT(before->memory_bytes, 0u) << "driven session holds agg state";

  // Idle out both sessions. The wheel ticks at timeout/4; give it slack.
  for (int i = 0; i < 100 && server_->open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server_->open_sessions(), 0u);
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_evicted, 2u);

  // Evicted ids answer not_found on every op.
  for (const char* id : {"idle-a", "idle-b"}) {
    EXPECT_EQ(client->GetStatus(id).status().code(), StatusCode::kNotFound)
        << id;
    EXPECT_EQ(client->Cancel(id).code(), StatusCode::kNotFound) << id;
    EXPECT_EQ(client->Resume(id).code(), StatusCode::kNotFound) << id;
    auto finish = client->Finish(id);
    EXPECT_EQ(finish.status().code(), StatusCode::kNotFound) << id;
  }

  // And the server-wide memory accounting is back to zero.
  auto after = client->GetStatus();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->sessions, 0u);
  EXPECT_EQ(after->memory_bytes, 0u);
}

TEST_F(PushServerTest, ActiveSessionsSurviveTheIdleTimeout) {
  ServerOptions options;
  options.session_idle_timeout_ms = 300;
  StartServer(options);
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Open("busy-bee", LaserwaveSpec(4)).ok());
  // Touch the session well past several timeout windows: activity must
  // re-arm the (lazy) timer, not race it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(900);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = client->GetStatus("busy-bee");
    ASSERT_TRUE(status.ok()) << "evicted while active: " << status.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server_->stats().sessions_evicted, 0u);
  ASSERT_TRUE(client->Finish("busy-bee").ok());
}

// Raw-socket pin for the eviction fix: on a push connection an evicted
// session's stream ends with EXACTLY ONE `drained`, and no frame for that
// id follows it. The table is big enough (and parallelism 1) that a single
// phase can outlive the idle timeout, in which case eviction lands
// mid-drive and must deliver the terminal drained itself while muting the
// driver's late frames; on a fast box the driver drains first and eviction
// must add nothing. The invariant below holds either way.
TEST_F(PushServerTest, EvictedPushSessionDrainedIsTheLastFrame) {
  {
    auto dataset = ::seedb::data::GenerateSynthetic(
        ::seedb::data::SyntheticSpec::Simple(800000, 3, 2, 8, 7));
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    ASSERT_TRUE(catalog_.AddTable("big", std::move(dataset->table)).ok());
  }
  ServerOptions options;
  options.session_idle_timeout_ms = 30;
  StartServer(options);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string requests =
      "{\"op\":\"hello\",\"version\":2,\"capabilities\":[\"push\"]}\n"
      "{\"op\":\"open\",\"id\":\"doomed\",\"table\":\"big\",\"phases\":1,"
      "\"parallelism\":1,\"k\":2}\n";
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));

  // Never finish the session: the wheel must evict it. Read everything the
  // server sends until eviction happened AND the socket stayed silent
  // through a grace window — late frames after drained are exactly what
  // the fix forbids.
  timeval tv{};
  tv.tv_usec = 100 * 1000;  // 100ms read slices
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  std::string buffer;
  char chunk[65536];
  int silent_slices = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
      silent_slices = 0;
      continue;
    }
    if (n == 0) break;  // server closed — nothing more can arrive
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << strerror(errno);
    // Stop after eviction plus >= 500ms of silence (5 empty slices).
    if (server_->stats().sessions_evicted >= 1 && ++silent_slices >= 5) {
      break;
    }
  }
  ::close(fd);
  EXPECT_EQ(server_->stats().sessions_evicted, 1u);
  EXPECT_EQ(server_->open_sessions(), 0u);

  std::vector<JsonValue> frames;
  size_t start = 0;
  for (size_t end = buffer.find('\n'); end != std::string::npos;
       end = buffer.find('\n', start)) {
    auto frame = ParseJson(buffer.substr(start, end - start));
    ASSERT_TRUE(frame.ok()) << buffer.substr(start, end - start);
    frames.push_back(std::move(*frame));
    start = end + 1;
  }
  // hello ack + opened ack + at least the drained push.
  ASSERT_GE(frames.size(), 3u) << buffer;
  EXPECT_EQ(frames[0].GetString("type"), "hello");
  EXPECT_EQ(frames[1].GetString("type"), "opened");
  size_t drained_count = 0;
  for (size_t i = 2; i < frames.size(); ++i) {
    EXPECT_TRUE(frames[i].GetBool("push")) << frames[i].Dump();
    EXPECT_EQ(frames[i].GetString("id"), "doomed");
    if (frames[i].GetString("type") == "drained") ++drained_count;
  }
  EXPECT_EQ(drained_count, 1u) << buffer;
  EXPECT_EQ(frames.back().GetString("type"), "drained")
      << "frames after the terminal drained: " << frames.back().Dump();
}

// --- Admission control ---

TEST_F(PushServerTest, SaturatedOpensShedBusyWithoutRegistryCorruption) {
  ServerOptions options;
  options.max_inflight_phases = 2;
  StartServer(options);
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());

  // Fill the two admission slots with sessions opened without push: nothing
  // drives them, so they stay in flight until finished or evicted.
  ASSERT_TRUE(client->Open("slot-a", LaserwaveSpec()).ok());
  ASSERT_TRUE(client->Open("slot-b", LaserwaveSpec()).ok());

  // The third open is shed with the structured Busy frame.
  auto raw = client->CallRaw(
      "{\"op\":\"open\",\"id\":\"shed\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\"}");
  ASSERT_TRUE(raw.ok());
  auto busy = ParseJson(*raw);
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy->GetBool("ok"));
  EXPECT_EQ(busy->GetString("code"), "busy");
  EXPECT_EQ(busy->GetInt("retry_after_ms"), 100);
  EXPECT_EQ(StatusFromErrorResponse(*busy).code(),
            StatusCode::kUnavailable);

  // The registry is uncorrupted: both admitted sessions still work, the
  // shed id does not exist.
  EXPECT_EQ(server_->open_sessions(), 2u);
  EXPECT_EQ(client->GetStatus("shed").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(client->GetStatus("slot-a").ok());

  // Finishing one releases a slot; the retried open is admitted.
  ASSERT_TRUE(client->Finish("slot-a").ok());
  ASSERT_TRUE(client->Open("shed", LaserwaveSpec()).ok());
  ASSERT_TRUE(client->Finish("shed").ok());
  ASSERT_TRUE(client->Finish("slot-b").ok());
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.sessions_opened, 3u);
  EXPECT_EQ(stats.sessions_finished, 3u);
  EXPECT_EQ(server_->open_sessions(), 0u);
}

// End-to-end for the client-side retry hint: a shed open's busy frame
// carries retry_after_ms, which the client records (machine-readable) and
// folds into the returned Status message (human-readable).
TEST_F(PushServerTest, ShedOpenSurfacesRetryAfterHintOnClientStatus) {
  ServerOptions options;
  options.max_inflight_phases = 1;
  StartServer(options);
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Open("holder", LaserwaveSpec()).ok());
  EXPECT_EQ(client->last_retry_after_ms(), 0);

  Status shed = client->Open("shed", LaserwaveSpec());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client->last_retry_after_ms(), 100);
  EXPECT_NE(shed.message().find("retry after 100 ms"), std::string::npos)
      << shed.message();

  // The hint is per-response: the next successful call clears it.
  ASSERT_TRUE(client->GetStatus("holder").ok());
  EXPECT_EQ(client->last_retry_after_ms(), 0);
  ASSERT_TRUE(client->Finish("holder").ok());
}

TEST_F(PushServerTest, CompletedPushSessionsReleaseAdmissionSlots) {
  ServerOptions options;
  options.max_inflight_phases = 1;
  StartServer(options);
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  // A push session leaves the in-flight set once its stream drains — even
  // before finish — so back-to-back Await loops never trip the limit.
  for (int i = 0; i < 3; ++i) {
    auto session =
        client->OpenSession("seq-" + std::to_string(i), LaserwaveSpec(2));
    ASSERT_TRUE(session.ok()) << "open " << i << ": " << session.status();
    ASSERT_TRUE(session->Await().ok());
  }
  EXPECT_EQ(server_->stats().sessions_rejected, 0u);
}

TEST_F(PushServerTest, AdmissionUnderEightThreadStress) {
  ServerOptions options;
  options.max_inflight_phases = 3;
  StartServer(options);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 6;
  std::vector<std::string> failures(kThreads);
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> shed{0};

  auto worker = [&](int t) {
    auto client_or = Client::ConnectUnix(socket_path_);
    if (!client_or.ok()) {
      failures[t] = "connect: " + client_or.status().ToString();
      return;
    }
    Client client = std::move(*client_or);
    if (t % 2 == 0) {
      // Half the threads negotiate push; the server must shed/admit driven
      // and undriven sessions with one counter.
      if (Status s = client.Hello(); !s.ok()) {
        failures[t] = "hello: " + s.ToString();
        return;
      }
    }
    OpenSpec spec;
    spec.sql = "SELECT * FROM sales WHERE product = 'Laserwave'";
    spec.k = 2;
    spec.phases = 2;
    for (int i = 0; i < kItersPerThread && failures[t].empty(); ++i) {
      const std::string id =
          "adm-" + std::to_string(t) + "-" + std::to_string(i);
      Status opened = client.Open(id, spec);
      if (opened.code() == StatusCode::kUnavailable) {
        // Shed: legal, and the id must NOT have been registered.
        shed.fetch_add(1);
        auto probe = client.GetStatus(id);
        if (probe.status().code() != StatusCode::kNotFound) {
          failures[t] = "shed id registered: " + probe.status().ToString();
        }
        continue;
      }
      if (!opened.ok()) {
        failures[t] = "open: " + opened.ToString();
        break;
      }
      admitted.fetch_add(1);
      // A driven session's stream is drained first; `finish` runs an
      // undriven one to the end.
      while (client.push_enabled()) {
        auto progress = client.Next(id);
        if (!progress.ok()) {
          failures[t] = "next: " + progress.status().ToString();
          return;
        }
        if (!progress->has_value()) break;
      }
      auto result = client.Finish(id);
      if (!result.ok()) failures[t] = "finish: " + result.status().ToString();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }

  // Registry coherence after the storm: everything admitted was finished,
  // the books balance, and the counters agree with what the threads saw.
  ServerStats stats = server_->stats();
  EXPECT_EQ(server_->open_sessions(), 0u);
  EXPECT_EQ(stats.sessions_opened, admitted.load());
  EXPECT_EQ(stats.sessions_finished, admitted.load());
  EXPECT_EQ(stats.sessions_rejected, shed.load());
  EXPECT_EQ(admitted.load() + shed.load(),
            static_cast<size_t>(kThreads) * kItersPerThread);
}

}  // namespace
}  // namespace seedb::server
