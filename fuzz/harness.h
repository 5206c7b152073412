// Shared invariant-checking harness for the wire-facing fuzz targets.
//
// The same checks run in three places, so they live here once:
//   * fuzz_json.cc / fuzz_protocol.cc under libFuzzer+ASan (clang CI leg,
//     60s smoke run; local: see README "Correctness tooling"),
//   * the same binaries as standalone file-replay drivers on toolchains
//     without libFuzzer (gcc),
//   * tests/server/protocol_corpus_test.cc, which replays the checked-in
//     corpus deterministically in a plain ctest run — corpus regressions
//     fail without any fuzzer build.
//
// Each Run* function returns "" when every invariant held, else a
// description of the violation; fuzz drivers abort on non-empty (so the
// fuzzer records a crash + reproducer), the ctest replay EXPECTs empty.

#ifndef SEEDB_FUZZ_HARNESS_H_
#define SEEDB_FUZZ_HARNESS_H_

#include <cmath>
#include <string>
#include <string_view>

#include "data/synthetic.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "server/json.h"
#include "server/server.h"

namespace seedb::fuzz {

/// JSON parser invariants over arbitrary bytes: parsing never crashes;
/// accepted documents survive a Dump() -> reparse round trip with Dump() as
/// a fixed point; no non-finite number ever comes out of the parser.
inline std::string RunJsonInput(std::string_view input) {
  Result<server::JsonValue> parsed = server::ParseJson(input);
  if (!parsed.ok()) {
    // Every rejection must be a clean InvalidArgument, never another code.
    if (parsed.status().code() != StatusCode::kInvalidArgument) {
      return "rejection with non-InvalidArgument status: " +
             parsed.status().ToString();
    }
    return "";
  }
  if (parsed->is_number() && !std::isfinite(parsed->AsDouble())) {
    return "parser produced a non-finite number";
  }
  const std::string dumped = parsed->Dump();
  Result<server::JsonValue> reparsed = server::ParseJson(dumped);
  if (!reparsed.ok()) {
    return "accepted document failed to reparse after Dump(): " + dumped;
  }
  const std::string redumped = reparsed->Dump();
  if (redumped != dumped) {
    return "Dump() is not a fixed point: '" + dumped + "' vs '" + redumped +
           "'";
  }
  return "";
}

/// One server every protocol input is thrown at: a tiny synthetic table so
/// `open`/`finish` lines execute real plans fast, a small session cap so a
/// fuzzer cannot balloon the registry. HandleLine drives the dispatcher
/// without a socket. Process-lifetime statics: building an Engine per input
/// would dominate the fuzz loop.
class ProtocolHarness {
 public:
  static ProtocolHarness& Instance() {
    static ProtocolHarness harness;
    return harness;
  }

  /// Dispatcher invariants over one arbitrary request line: never crashes;
  /// the response is exactly one parseable JSON object carrying a boolean
  /// "ok"; failed requests carry an error message and a known code token.
  std::string RunLine(std::string_view line) {
    const std::string response = server_->HandleLine(std::string(line));
    Result<server::JsonValue> parsed = server::ParseJson(response);
    if (!parsed.ok()) {
      return "response is not valid JSON: " + response;
    }
    if (!parsed->is_object()) return "response is not an object: " + response;
    const server::JsonValue* ok = parsed->Find("ok");
    if (ok == nullptr || !ok->is_bool()) {
      return "response lacks boolean \"ok\": " + response;
    }
    if (!ok->AsBool()) {
      if (parsed->GetString("error").empty()) {
        return "error response lacks \"error\" message: " + response;
      }
      const Status status = server::StatusFromErrorResponse(*parsed);
      if (status.ok()) {
        return "error response decoded to OK status: " + response;
      }
    }
    return "";
  }

 private:
  ProtocolHarness() {
    data::SyntheticSpec spec = data::SyntheticSpec::Simple(
        /*num_rows=*/256, /*num_dims=*/2, /*num_measures=*/1,
        /*cardinality=*/4, /*seed=*/11);
    auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
    Status added = catalog_.AddTable("synth", std::move(dataset.table));
    (void)added;  // cannot fail on a fresh catalog
    engine_ = new db::Engine(&catalog_);
    server::ServerOptions options;
    options.max_sessions = 8;
    server_ = new server::RecommendationServer(engine_, options);
    // No Start(): HandleLine drives the dispatcher directly, so sessions
    // are never driven and `finish` runs them to the end.
  }

  db::Catalog catalog_;
  db::Engine* engine_ = nullptr;  // leaked on purpose: process lifetime
  server::RecommendationServer* server_ = nullptr;
};

inline std::string RunProtocolInput(std::string_view line) {
  return ProtocolHarness::Instance().RunLine(line);
}

}  // namespace seedb::fuzz

#endif  // SEEDB_FUZZ_HARNESS_H_
