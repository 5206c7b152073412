// Wire protocol of the recommendation server: line-delimited JSON.
//
// Every message is one JSON object on one line. Requests name an operation
// and (except `hello` and server-wide `status`) a client-chosen session id:
//
//   {"op":"hello","version":2,"capabilities":["push"]}
//                                                  -> {"ok":true,"type":"hello",...}
//   {"op":"open","id":"s1","sql":"SELECT * FROM sales WHERE ...","k":3,
//    "phases":8,"pruner":"ci"}                     -> {"ok":true,"type":"opened",...}
//   {"op":"cancel","id":"s1"}                      -> {"ok":true,"type":"ack"}
//   {"op":"resume","id":"s1"}                      -> {"ok":true,"type":"ack"}
//   {"op":"status","id":"s1"} / {"op":"status"}    -> {"ok":true,"type":"status",...}
//   {"op":"finish","id":"s1"}                      -> {"ok":true,"type":"result",...}
//   {"op":"metrics"}                               -> {"ok":true,"type":"metrics",...}
//
// Progress is pushed, never requested. A session opened on a connection
// that negotiated the `push` capability with `hello` is DRIVEN BY THE
// SERVER — every completed phase's ProgressUpdate arrives as an unsolicited
// push frame the moment it completes. Push frames are distinguished from
// responses by "push":true and carry a per-session "seq" plus the server's
// steady-clock send stamp "ts_us" (RemoteProgress::sent_us; bench_server
// measures frame-delivery latency and the gap between frames with it):
//
//   {"ok":true,"id":"s1","type":"progress","push":true,"seq":1,...}
//   {"ok":true,"id":"s1","type":"drained","push":true,"seq":4}
//
// After the drained push frame the client sends `finish` and receives the
// `result` frame — results over push are bit-identical to in-process runs.
// A session opened without push is not driven: nothing is pushed, and
// `finish` runs it to the end. There is no polling op (`next` answers
// "unknown op"). The `binary_frames` capability name is RESERVED for bulk
// view data; the server never advertises it yet.
//
// Failures are {"ok":false,"error":"...","code":"invalid_argument"|...} and
// never tear down the connection; the error codes round-trip seedb::Status
// codes so the client library can hand callers the same Status the server
// produced ("busy" maps to kUnavailable — admission control shedding an
// `open`; such frames carry a "retry_after_ms" hint). Doubles are
// serialized with %.17g (see server/json.h), so utilities fetched over the
// wire compare EQUAL to in-process results — the server_equivalence
// differential suite pins that.
//
// This header is shared by the server (encode results / decode requests)
// and the client library (the reverse); the Remote* structs are the
// client-side view of the response frames.

#ifndef SEEDB_SERVER_PROTOCOL_H_
#define SEEDB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/recommendation.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "server/json.h"

namespace seedb::server {

/// The highest protocol version this build speaks.
inline constexpr int kProtocolVersion = 2;
/// Capability tokens. kCapPush: server-driven push frames. kCapBinaryFrames
/// is reserved (never advertised yet).
inline constexpr const char* kCapPush = "push";
inline constexpr const char* kCapBinaryFrames = "binary_frames";

// --- Status <-> error-code tokens ---

/// Stable lower-case token for an error code ("invalid_argument", ...).
const char* StatusCodeToken(StatusCode code);
StatusCode StatusCodeFromToken(const std::string& token);

/// {"ok":false,"id":...,"error":msg,"code":token}. `id` omitted when empty.
JsonValue ErrorResponse(const Status& status, const std::string& id);

/// Reconstructs the Status carried by an {"ok":false,...} response.
Status StatusFromErrorResponse(const JsonValue& response);

// --- Handshake ---

/// What a `hello` negotiated: the version both sides speak and whether the
/// connection is in push mode.
struct Handshake {
  int version = 1;
  bool push = false;
};

/// The client's `hello` line: requested version + capabilities.
JsonValue HelloRequestToJson(int version, const std::vector<std::string>& capabilities);

/// Server side: negotiates against `request` (min of versions, intersection
/// of capabilities with what this build supports). Unknown requested
/// capabilities are ignored, never errors — forward compatibility.
Handshake NegotiateHello(const JsonValue& request);

/// {"ok":true,"type":"hello","version":...,"capabilities":[...]} for a
/// completed negotiation.
JsonValue HelloResponseToJson(const Handshake& handshake);

/// Client side: the Handshake a server's hello response describes.
Result<Handshake> HandshakeFromJson(const JsonValue& response);

// --- Open requests ---

/// \brief Client-side description of an `open` request: which analyst query
/// to answer and how to execute it. String-typed knobs use the same names
/// the CLI accepts; zero/empty fields mean "server default".
struct OpenSpec {
  /// The analyst query as SQL ("SELECT * FROM t WHERE ..."). Either this or
  /// `table` (whole-table selection) must be set.
  std::string sql;
  std::string table;
  size_t k = 0;
  size_t bottom_k = 0;
  std::string metric;    // core::ParseDistanceMetric names
  std::string strategy;  // per-query | phased-shared-scan
  size_t phases = 0;
  std::string pruner;  // none | ci | mab
  size_t early_stop = 0;
  double delta = -1.0;          // < 0 = default
  double utility_range = -1.0;  // < 0 = default
  size_t memory_budget = 0;     // bytes; 0 = unlimited
  size_t parallelism = 0;       // 0 = default
  /// Mark the session's engine-side spans recordable by the server's
  /// obs::TraceRecorder (SeeDBRequest::WithTrace). No effect unless the
  /// server runs with --trace-out.
  bool trace = false;
};

/// The `open` request line for `spec` (without trailing newline).
JsonValue OpenRequestToJson(const std::string& id, const OpenSpec& spec);

/// Builds the core request an `open` message describes. Unknown metric /
/// strategy / pruner names and missing sql+table are InvalidArgument.
Result<core::SeeDBRequest> OpenRequestFromJson(const JsonValue& request);

// --- Response frames, server-side encoders ---

JsonValue ProgressToJson(const std::string& id,
                         const core::ProgressUpdate& update);
JsonValue ResultToJson(const std::string& id,
                       const core::RecommendationSet& set);

// --- Metrics frames (answered on any connection) ---
//
//   {"op":"metrics"}  ->  {"ok":true,"type":"metrics",
//                          "counters":{"engine.scan.rows":123,...},
//                          "gauges":{...},
//                          "histograms":{"server.request.open_us":{
//                            "count":N,"sum_us":S,"mean_us":M,
//                            "p50_us":..,"p95_us":..,"p99_us":..,
//                            "bucket_le_us":[1,2,4,...],
//                            "bucket_counts":[0,3,...]}}}
//
// Quantiles are computed server-side from the fixed log-spaced buckets
// (obs/metrics.h): each reported pXX is the upper boundary of the bucket
// holding that rank. bucket_le_us/bucket_counts are parallel arrays over
// every bucket (the last entry is the overflow bucket, reported with the
// last finite boundary).

/// The `metrics` request line.
JsonValue MetricsRequestToJson();

/// Encodes a registry snapshot as the `metrics` response frame.
JsonValue MetricsToJson(const obs::Snapshot& snapshot);

// --- Response frames, client-side views ---

/// One provisionally ranked view of a progress frame. Bounds are +/-infinity
/// when the frame omitted them (non-finite CI).
struct RemoteView {
  std::string id;
  std::string dimension;
  std::string measure;
  double utility = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

/// A `progress` frame — the wire shape of core::ProgressUpdate.
struct RemoteProgress {
  size_t phase = 0;
  size_t total_phases = 0;
  double phase_seconds = 0.0;
  uint64_t rows_scanned = 0;
  uint64_t total_rows = 0;
  size_t views_active = 0;
  size_t views_pruned = 0;
  /// +infinity when the frame carried no finite half-width.
  double ci_half_width = 0.0;
  uint64_t memory_bytes = 0;
  bool early_stopped = false;
  bool cancelled = false;
  std::vector<RemoteView> top;
  /// The server's steady-clock send stamp ("ts_us"), 0 when absent.
  int64_t sent_us = 0;
};

/// One final recommendation of a `result` frame.
struct RemoteRecommendation {
  size_t rank = 0;
  std::string view_id;
  std::string dimension;
  std::string measure;
  double utility = 0.0;
  std::string target_sql;
  std::string comparison_sql;
  std::string combined_sql;
};

struct RemotePrunedView {
  std::string view_id;
  double partial_utility = 0.0;
  size_t pruned_at_phase = 0;
  uint64_t rows_seen = 0;
};

/// The cost-profile subset a `result` frame carries.
struct RemoteProfile {
  size_t views_enumerated = 0;
  size_t views_pruned = 0;
  size_t views_executed = 0;
  size_t views_pruned_online = 0;
  size_t examined_view_count = 0;
  size_t phases_executed = 0;
  size_t queries_issued = 0;
  size_t table_scans = 0;
  uint64_t rows_scanned = 0;
  /// (query, grouping set) pairs adopted from / missed in the server
  /// engine's result cache during this run; both 0 while the cache is off.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  bool early_stopped = false;
  bool cancelled = false;
  bool budget_exceeded = false;
};

/// A `result` frame — the wire shape of core::RecommendationSet.
struct RemoteResult {
  std::string metric;
  std::vector<RemoteRecommendation> top;
  std::vector<RemoteRecommendation> low;
  std::vector<RemotePrunedView> pruned_online;
  RemoteProfile profile;
};

/// A `status` frame. With a session id, the session fields are set; a
/// server-wide status fills `sessions` / `requests` only.
struct RemoteStatus {
  bool session = false;
  bool done = false;
  bool cancelled = false;
  bool budget_exceeded = false;
  size_t phases_run = 0;
  uint64_t memory_bytes = 0;
  size_t sessions = 0;
  uint64_t requests = 0;
  /// Server-wide result-cache counters (db/scan_cache.h via the engine);
  /// all zero while the server runs with the cache disabled.
  bool cache_enabled = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_evictions = 0;
};

Result<RemoteProgress> ProgressFromJson(const JsonValue& frame);
Result<RemoteResult> ResultFromJson(const JsonValue& frame);
Result<RemoteStatus> StatusFromJson(const JsonValue& frame);

}  // namespace seedb::server

#endif  // SEEDB_SERVER_PROTOCOL_H_
