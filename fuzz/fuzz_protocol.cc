// libFuzzer target for the line-delimited protocol dispatcher
// (RecommendationServer::HandleLine): the full request path an untrusted
// client controls — JSON parse, op dispatch, open/cancel/resume/
// finish/status against a real Engine. Invariants are in fuzz/harness.h.
//
// Built two ways (see fuzz/CMakeLists.txt): with clang as a real libFuzzer
// binary (-fsanitize=fuzzer,address), otherwise as a standalone driver that
// replays the files given on the command line.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string violation = seedb::fuzz::RunProtocolInput(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (!violation.empty()) {
    std::fprintf(stderr, "fuzz_protocol invariant violated: %s\n",
                 violation.c_str());
    std::abort();
  }
  return 0;
}

#if defined(SEEDB_FUZZ_STANDALONE)
#include "fuzz/standalone_main.inc"
#endif
