// Protocol golden tests: request/response framing round-trips exactly, and
// malformed input of every shape (truncated JSON, unknown ops, ids after
// finish) produces an error response — never a crash, never a wedged loop.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <thread>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "../test_util.h"
#include "db/engine.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"

namespace seedb::server {
namespace {

// --- JSON layer ---

TEST(JsonTest, ScalarsRoundTrip) {
  auto parse = [](const std::string& text) {
    auto v = ParseJson(text);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status();
    return std::move(v).ValueOrDie();
  };
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").AsBool(), true);
  EXPECT_EQ(parse("false").AsBool(), false);
  EXPECT_EQ(parse("42").AsInt(), 42);
  EXPECT_EQ(parse("-7").AsInt(), -7);
  EXPECT_DOUBLE_EQ(parse("3.25e2").AsDouble(), 325.0);
  EXPECT_EQ(parse("\"hi\"").AsString(), "hi");
  EXPECT_EQ(parse("\"a\\n\\\"b\\\\\"").AsString(), "a\n\"b\\");
  EXPECT_EQ(parse("\"\\u0041\\u00e9\"").AsString(), "Aé");
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, DoublesRoundTripExactly) {
  // The differential suite depends on this: a utility serialized by the
  // server parses back to the identical bit pattern.
  for (double d : {0.1, 1.0 / 3.0, 0.6855198756264697, 1e-300, 6.02e23,
                   -0.0, 123456789.123456789}) {
    JsonValue v = JsonValue::Number(d);
    auto parsed = ParseJson(v.Dump());
    ASSERT_TRUE(parsed.ok()) << v.Dump();
    EXPECT_EQ(parsed->AsDouble(), d) << v.Dump();
  }
}

TEST(JsonTest, ObjectsKeepInsertionOrderAndRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("z", JsonValue::Number(1));
  obj.Set("a", JsonValue::Str("two"));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Bool(true)).Append(JsonValue::Null());
  obj.Set("list", std::move(arr));
  const std::string text = obj.Dump();
  EXPECT_EQ(text, "{\"z\":1,\"a\":\"two\",\"list\":[true,null]}");
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, MalformedInputsErrorGracefully) {
  const char* cases[] = {
      "",
      "{",
      "[1,2",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "[1,]",
      "\"unterminated",
      "\"bad\\escape\"",
      "\"\\u12g4\"",
      "\"\\ud800\"",
      "01",
      "1.",
      "1e",
      "-",
      "tru",
      "nul",
      "{}garbage",
      "12 34",
      "\x01",
  };
  for (const char* text : cases) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "'" << text << "' should not parse";
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JsonTest, NonFiniteAndOverlongNumbersAreRejectedExplicitly) {
  // A non-finite value has no JSON spelling and must never enter a wire
  // frame — these are rejected with a clean parse error, not passed through
  // strtod (which accepts "NaN"/"Infinity" and saturates "1e999" to inf).
  const char* cases[] = {
      "NaN",       "-NaN",       "nan",  "Infinity", "-Infinity",
      "infinity",  "Inf",        "-inf", "1e999",    "-1e999",
      "1e308999",  "{\"v\":NaN}", "[Infinity]",
  };
  for (const char* text : cases) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "'" << text << "' should not parse";
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // Overlong tokens are rejected before strtod ever runs.
  const std::string overlong_int = std::string(200, '9');
  EXPECT_FALSE(ParseJson(overlong_int).ok());
  const std::string overlong_frac = "1." + std::string(200, '3');
  EXPECT_FALSE(ParseJson(overlong_frac).ok());
  // The extremes that must still parse: max double, denormals, and an
  // underflow that rounds to zero (loses precision, not kind).
  EXPECT_DOUBLE_EQ(ParseJson("1.7976931348623157e308")->AsDouble(),
                   std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(ParseJson("-1.7976931348623157e308")->AsDouble(),
                   std::numeric_limits<double>::lowest());
  EXPECT_DOUBLE_EQ(ParseJson("5e-324")->AsDouble(),
                   std::numeric_limits<double>::denorm_min());
  EXPECT_DOUBLE_EQ(ParseJson("1e-999")->AsDouble(), 0.0);
}

TEST(JsonTest, DeepNestingIsRejectedNotOverflowed) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, QuoteEscapesControlBytes) {
  EXPECT_EQ(JsonQuote("a\"b\\c\nd\x01"), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// --- Error-code round-trip ---

TEST(ProtocolTest, StatusCodesRoundTripThroughErrorFrames) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kNotImplemented, StatusCode::kIOError,
        StatusCode::kInternal, StatusCode::kFailedPrecondition}) {
    Status original(code, "the message");
    JsonValue frame = ErrorResponse(original, "s9");
    EXPECT_FALSE(frame.GetBool("ok"));
    EXPECT_EQ(frame.GetString("id"), "s9");
    Status back = StatusFromErrorResponse(frame);
    EXPECT_EQ(back.code(), code);
    EXPECT_EQ(back.message(), "the message");
  }
}

// --- Open round-trip: spec -> JSON -> core request ---

TEST(ProtocolTest, OpenSpecRoundTripsIntoCoreRequest) {
  OpenSpec spec;
  spec.sql = "SELECT * FROM sales WHERE product = 'Laserwave'";
  spec.k = 4;
  spec.bottom_k = 2;
  spec.metric = "l1";
  spec.phases = 7;
  spec.pruner = "ci";
  spec.early_stop = 3;
  spec.delta = 0.25;
  spec.utility_range = 0.5;
  spec.memory_budget = 12345;
  spec.parallelism = 2;
  JsonValue wire = OpenRequestToJson("s1", spec);
  auto request = OpenRequestFromJson(wire);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->table(), "sales");
  ASSERT_NE(request->selection(), nullptr);
  const core::SeeDBOptions& options = request->options();
  EXPECT_EQ(options.k, 4u);
  EXPECT_EQ(options.bottom_k, 2u);
  EXPECT_EQ(options.metric, core::DistanceMetric::kL1);
  EXPECT_EQ(options.strategy, core::ExecutionStrategy::kPhasedSharedScan);
  EXPECT_EQ(options.online_pruning.num_phases, 7u);
  EXPECT_EQ(options.online_pruning.pruner,
            core::OnlinePruner::kConfidenceInterval);
  EXPECT_EQ(options.online_pruning.early_stop_stable_phases, 3u);
  EXPECT_DOUBLE_EQ(options.online_pruning.delta, 0.25);
  EXPECT_DOUBLE_EQ(options.online_pruning.utility_range, 0.5);
  EXPECT_EQ(options.memory_budget_bytes, 12345u);
  EXPECT_EQ(options.parallelism, 2u);
}

TEST(ProtocolTest, OpenRejectsBadFields) {
  auto open_with = [](const std::string& extra) {
    std::string line = "{\"op\":\"open\",\"id\":\"x\"" + extra + "}";
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return OpenRequestFromJson(*parsed);
  };
  EXPECT_FALSE(open_with("").ok());  // neither sql nor table
  EXPECT_FALSE(open_with(",\"sql\":\"SELECT broken\"").ok());
  EXPECT_FALSE(open_with(",\"table\":\"t\",\"metric\":\"nope\"").ok());
  // The fused one-shot scan is the phased strategy with one phase; its old
  // names are as unknown as any other.
  for (const char* strategy : {"warp", "shared-scan", "shared"}) {
    auto open = open_with(std::string(",\"table\":\"t\",\"strategy\":\"") +
                          strategy + "\"");
    EXPECT_EQ(open.status().code(), StatusCode::kInvalidArgument) << strategy;
  }
  EXPECT_FALSE(open_with(",\"table\":\"t\",\"pruner\":\"psychic\"").ok());
  EXPECT_FALSE(open_with(",\"table\":\"t\",\"k\":0").ok());
  EXPECT_FALSE(open_with(",\"table\":\"t\",\"k\":\"three\"").ok());
}

// --- Progress / result frame round-trips ---

TEST(ProtocolTest, ProgressFrameRoundTrips) {
  core::ProgressUpdate update;
  update.phase = 3;
  update.total_phases = 8;
  update.phase_seconds = 0.0125;
  update.rows_scanned = 3000;
  update.total_rows = 8000;
  update.views_active = 12;
  update.views_pruned_online = 4;
  update.ci_half_width = 0.75;
  update.memory_bytes = 4096;
  core::ProvisionalView pv;
  pv.view = core::ViewDescriptor("region", "sales",
                                 db::AggregateFunction::kSum);
  pv.utility = 0.6855198756264697;
  pv.lower = pv.utility - 0.75;
  pv.upper = pv.utility + 0.75;
  update.top_views.push_back(pv);

  auto parsed = ParseJson(ProgressToJson("s1", update).Dump());
  ASSERT_TRUE(parsed.ok());
  auto progress = ProgressFromJson(*parsed);
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress->phase, 3u);
  EXPECT_EQ(progress->total_phases, 8u);
  EXPECT_DOUBLE_EQ(progress->phase_seconds, 0.0125);
  EXPECT_EQ(progress->rows_scanned, 3000u);
  EXPECT_EQ(progress->total_rows, 8000u);
  EXPECT_EQ(progress->views_active, 12u);
  EXPECT_EQ(progress->views_pruned, 4u);
  EXPECT_EQ(progress->ci_half_width, 0.75);
  EXPECT_EQ(progress->memory_bytes, 4096u);
  ASSERT_EQ(progress->top.size(), 1u);
  EXPECT_EQ(progress->top[0].id, pv.view.Id());
  EXPECT_EQ(progress->top[0].utility, pv.utility);  // exact
  EXPECT_EQ(progress->top[0].lower, pv.lower);
  EXPECT_EQ(progress->top[0].upper, pv.upper);
}

TEST(ProtocolTest, InfiniteHalfWidthIsOmittedAndComesBackInfinite) {
  core::ProgressUpdate update;
  update.phase = 1;
  update.total_phases = 2;
  update.ci_half_width = std::numeric_limits<double>::infinity();
  const std::string text = ProgressToJson("s", update).Dump();
  EXPECT_EQ(text.find("ci_half_width"), std::string::npos);
  auto progress = ProgressFromJson(*ParseJson(text));
  ASSERT_TRUE(progress.ok());
  EXPECT_TRUE(std::isinf(progress->ci_half_width));
}

// --- The dispatcher, driven without a socket ---

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : engine_(&catalog_),
        server_(&engine_, ServerOptions{}) {
    Status added =
        catalog_.AddTable("sales", ::seedb::testing::MakeLaserwaveTable());
    EXPECT_TRUE(added.ok());
  }

  /// Runs one request line and parses the response.
  JsonValue Call(const std::string& line) {
    auto parsed = ParseJson(server_.HandleLine(line));
    EXPECT_TRUE(parsed.ok()) << "response not JSON for: " << line;
    return parsed.ok() ? std::move(parsed).ValueOrDie() : JsonValue();
  }

  db::Catalog catalog_;
  db::Engine engine_;
  RecommendationServer server_;
};

TEST_F(DispatchTest, MalformedRequestsGetErrorResponsesNotCrashes) {
  const char* lines[] = {
      "not json at all",
      "{\"op\":\"open\",\"id\":\"x\"",  // truncated
      "[1,2,3]",                        // not an object
      "{}",                             // no op
      "{\"op\":\"teleport\",\"id\":\"x\"}",
      "{\"op\":\"next\"}",              // missing id
      "{\"op\":\"next\",\"id\":\"ghost\"}",
      "{\"op\":\"open\",\"id\":\"x\",\"table\":\"no_such_table\"}",
      "{\"op\":\"open\",\"id\":\"x\",\"sql\":\"DROP TABLE sales\"}",
  };
  for (const char* line : lines) {
    JsonValue response = Call(line);
    EXPECT_FALSE(response.GetBool("ok")) << line;
    EXPECT_FALSE(response.GetString("error").empty()) << line;
    EXPECT_FALSE(response.GetString("code").empty()) << line;
  }
  // The loop is intact: a well-formed request still works.
  JsonValue ok = Call(
      "{\"op\":\"open\",\"id\":\"s1\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\"}");
  EXPECT_TRUE(ok.GetBool("ok"));
}

TEST_F(DispatchTest, SessionLifecycleAndIdsAfterFinish) {
  const std::string open =
      "{\"op\":\"open\",\"id\":\"s1\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\","
      "\"k\":2,\"phases\":3}";
  EXPECT_TRUE(Call(open).GetBool("ok"));
  // Double open on a live id is refused.
  JsonValue dup = Call(open);
  EXPECT_FALSE(dup.GetBool("ok"));
  EXPECT_EQ(dup.GetString("code"), "already_exists");

  // No connection, so nothing drives the session: `finish` runs all three
  // phases itself.
  JsonValue result = Call("{\"op\":\"finish\",\"id\":\"s1\"}");
  ASSERT_TRUE(result.GetBool("ok"));
  EXPECT_EQ(result.GetString("type"), "result");
  const JsonValue* top = result.Find("top");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->size(), 2u);
  const JsonValue* profile = result.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->GetInt("phases_executed"), 3);

  // The id is gone: every op on it now answers not_found, and the id can
  // be reused by a fresh open.
  for (const char* op : {"cancel", "resume", "finish", "status"}) {
    JsonValue gone = Call(std::string("{\"op\":\"") + op +
                          "\",\"id\":\"s1\"}");
    EXPECT_FALSE(gone.GetBool("ok")) << op;
    EXPECT_EQ(gone.GetString("code"), "not_found") << op;
  }
  EXPECT_TRUE(Call(open).GetBool("ok"));
}

// Progress is pushed, never polled: `next` is not an op, whether or not
// the id names a live session, and asking for it leaves the session alone.
TEST_F(DispatchTest, NextIsAnUnknownOp) {
  EXPECT_TRUE(Call("{\"op\":\"open\",\"id\":\"n1\",\"sql\":"
                   "\"SELECT * FROM sales WHERE product = 'Laserwave'\"}")
                  .GetBool("ok"));
  for (const char* id : {"n1", "ghost"}) {
    JsonValue next =
        Call(std::string("{\"op\":\"next\",\"id\":\"") + id + "\"}");
    EXPECT_FALSE(next.GetBool("ok")) << id;
    EXPECT_EQ(next.GetString("code"), "invalid_argument") << id;
    EXPECT_NE(next.GetString("error").find("unknown op"), std::string::npos)
        << next.Dump();
  }
  EXPECT_EQ(Call("{\"op\":\"status\",\"id\":\"n1\"}").GetInt("phases_run"), 0);
}

TEST_F(DispatchTest, ResumeRequiresACancelledSession) {
  Call(
      "{\"op\":\"open\",\"id\":\"r1\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\",\"phases\":4}");
  JsonValue premature = Call("{\"op\":\"resume\",\"id\":\"r1\"}");
  EXPECT_FALSE(premature.GetBool("ok"));
  EXPECT_EQ(premature.GetString("code"), "invalid_argument");

  EXPECT_TRUE(Call("{\"op\":\"cancel\",\"id\":\"r1\"}").GetBool("ok"));
  JsonValue cancelled = Call("{\"op\":\"status\",\"id\":\"r1\"}");
  EXPECT_TRUE(cancelled.GetBool("cancelled"));
  EXPECT_TRUE(cancelled.GetBool("done"));
  EXPECT_TRUE(Call("{\"op\":\"resume\",\"id\":\"r1\"}").GetBool("ok"));
  // Resumed: live again, and `finish` runs every phase.
  JsonValue resumed = Call("{\"op\":\"status\",\"id\":\"r1\"}");
  EXPECT_FALSE(resumed.GetBool("cancelled"));
  EXPECT_FALSE(resumed.GetBool("done"));
  JsonValue result = Call("{\"op\":\"finish\",\"id\":\"r1\"}");
  ASSERT_TRUE(result.GetBool("ok"));
  const JsonValue* profile = result.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->GetInt("phases_executed"), 4);
  EXPECT_FALSE(profile->GetBool("cancelled"));
}

TEST_F(DispatchTest, StatusWorksWithAndWithoutSession) {
  JsonValue server_status = Call("{\"op\":\"status\"}");
  ASSERT_TRUE(server_status.GetBool("ok"));
  EXPECT_EQ(server_status.GetInt("sessions"), 0);

  Call(
      "{\"op\":\"open\",\"id\":\"st\",\"sql\":"
      "\"SELECT * FROM sales WHERE product = 'Laserwave'\",\"phases\":2}");
  JsonValue session_status = Call("{\"op\":\"status\",\"id\":\"st\"}");
  ASSERT_TRUE(session_status.GetBool("ok"));
  EXPECT_TRUE(session_status.GetBool("session"));
  // Undriven (no connection to push to): no phase has run yet.
  EXPECT_EQ(session_status.GetInt("phases_run"), 0);
  EXPECT_FALSE(session_status.GetBool("done"));
  EXPECT_EQ(Call("{\"op\":\"status\"}").GetInt("sessions"), 1);
}

// --- Over-the-socket framing ---

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/seedb_protocol_test_" +
                   std::to_string(::getpid()) + ".sock";
    ASSERT_TRUE(
        catalog_.AddTable("sales", ::seedb::testing::MakeLaserwaveTable())
            .ok());
    engine_ = std::make_unique<db::Engine>(&catalog_);
    ServerOptions options;
    options.unix_path = socket_path_;
    options.max_line_bytes = 4096;
    server_ =
        std::make_unique<RecommendationServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  db::Catalog catalog_;
  std::unique_ptr<db::Engine> engine_;
  std::unique_ptr<RecommendationServer> server_;
  std::string socket_path_;
};

TEST_F(WireTest, PipelinedAndSplitRequestsFrameCorrectly) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Two requests in ONE write; the first is itself split mid-token over
  // two sends. Three responses must come back, in order.
  const std::string part1 = "{\"op\":\"sta";
  const std::string part2 =
      "tus\"}\n{\"op\":\"status\"}\n{\"op\":\"finish\",\"id\":\"nope\"}\n";
  ASSERT_EQ(::send(fd, part1.data(), part1.size(), 0),
            static_cast<ssize_t>(part1.size()));
  ASSERT_EQ(::send(fd, part2.data(), part2.size(), 0),
            static_cast<ssize_t>(part2.size()));

  std::string buffer;
  char chunk[4096];
  while (std::count(buffer.begin(), buffer.end(), '\n') < 3) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "server closed early; got: " << buffer;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  size_t first_end = buffer.find('\n');
  size_t second_end = buffer.find('\n', first_end + 1);
  auto r1 = ParseJson(buffer.substr(0, first_end));
  auto r2 = ParseJson(
      buffer.substr(first_end + 1, second_end - first_end - 1));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->GetString("type"), "status");
  EXPECT_EQ(r2->GetString("type"), "status");
  ::close(fd);
}

TEST_F(WireTest, OverlongLineIsAnsweredThenConnectionCloses) {
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  // One giant un-newlined blob larger than max_line_bytes.
  std::string huge = "{\"op\":\"open\",\"id\":\"" +
                     std::string(8192, 'x') + "\"";
  auto response = client->CallRaw(huge);  // CallRaw appends the newline
  // Either we get the error response before the close, or the close wins
  // the race — both are acceptable; what must not happen is a hang or a
  // crash. A fresh connection works regardless.
  if (response.ok()) {
    auto parsed = ParseJson(*response);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed->GetBool("ok"));
  }
  auto fresh = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(fresh.ok());
  auto status = fresh->GetStatus();
  ASSERT_TRUE(status.ok()) << status.status();
}

TEST_F(WireTest, DisconnectedClientsAreReapedNotAccumulated) {
  // Count this process's open fds (the server is in-process).
  auto open_fds = [] {
    size_t count = 0;
    DIR* dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) return count;
    while (::readdir(dir) != nullptr) ++count;
    ::closedir(dir);
    return count;
  };
  const size_t before = open_fds();
  for (int i = 0; i < 40; ++i) {
    auto client = Client::ConnectUnix(socket_path_);
    ASSERT_TRUE(client.ok()) << "connect " << i << ": " << client.status();
    ASSERT_TRUE(client->GetStatus().ok());
  }  // each client closes on destruction
  // The accept loop reaps disconnected readers on its next poll ticks.
  for (int i = 0; i < 50 && open_fds() > before + 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LE(open_fds(), before + 5)
      << "server accumulated fds for disconnected clients";
  EXPECT_EQ(server_->stats().connections, 40u);
}

TEST_F(WireTest, EmptyAndCrlfLinesAreTolerated) {
  auto client = Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  // CRLF framing (windows-ish clients) parses fine; blank lines are
  // skipped rather than answered.
  auto response = client->CallRaw("\r\n\r\n{\"op\":\"status\"}\r");
  ASSERT_TRUE(response.ok());
  auto parsed = ParseJson(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("type"), "status");
}

}  // namespace
}  // namespace seedb::server
