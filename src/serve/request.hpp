#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/markov/resolvent.hpp"
#include "src/util/status.hpp"

namespace mocos::serve {

/// One decoded optimization request — an NDJSON line like
///
///   {"id": "job-17", "config": "topology = grid:3x3\niterations = 200",
///    "deadline_ms": 500, "cache_key": "grid3", "warm_start": true}
///
/// Fields:
///   id          (string, required)  caller's correlation id; also the seed
///                                   base when the config sets no `seed`, so
///                                   replays are scheduling-independent
///   config      (string, required)  mocos config text (the same key=value
///                                   language as *.conf files)
///   deadline_ms (number, optional)  per-request budget; overrides the
///                                   server default (0 = no deadline)
///   cache_key   (string, optional)  requests sharing a key run in arrival
///                                   order on one lane, which keeps the
///                                   key's last solution; empty/absent = an
///                                   independent request
///   warm_start  (bool, optional)    start from the lane's previous solution
///                                   when sizes match (keyed lanes only)
struct Request {
  std::string id;
  std::string config_text;
  std::uint64_t deadline_ms = 0;  // 0 = use the server default
  bool has_deadline = false;      // true when the request named one itself
  std::string cache_key;
  bool warm_start = false;
};

/// Decodes one NDJSON line into a Request. Any malformed input — bad JSON,
/// missing/mistyped fields, unknown keys, the kServeDecodeFault injection
/// site — returns kInvalidConfig; the caller answers with a structured
/// error response instead of dying.
[[nodiscard]] util::StatusOr<Request> parse_request(std::string_view line);

/// What a request's lifecycle ended as. Exactly one response per request
/// line is the serve invariant; `code` reuses the CLI exit-code taxonomy
/// plus kExitDeadlineExceeded (5) and kExitShed (6).
struct Response {
  std::uint64_t seq = 0;  // arrival index of the request line (0-based)
  std::string id;         // echoed; empty when decoding never got that far
  int code = 0;
  std::string status;     // "ok" | "error" | "deadline-exceeded" | "shed"
  std::string error;      // non-empty iff code != 0

  // Success payload (code == 0, and best-so-far on deadline responses that
  // still carry a finite iterate).
  bool has_result = false;
  double penalized_cost = 0.0;
  double report_cost = 0.0;
  double delta_c = 0.0;
  double e_bar = 0.0;
  std::uint64_t iterations = 0;
  std::string stop_reason;
  std::uint64_t recovery_events = 0;
  markov::ChainSolveStats chain;
  bool warm_started = false;

  // Shed payload (code == kExitShed).
  std::optional<std::uint64_t> retry_after_ms;

  // Wall-clock request latency; only populated under --timings, which
  // explicitly trades away byte-reproducibility of the response log.
  std::optional<double> elapsed_ms;
};

/// Writes the response as one NDJSON line (newline included). Key order is
/// fixed and numbers use %.17g, so a replayed request log produces a
/// byte-identical response log at any worker count (absent --timings).
void write_response(const Response& response, std::ostream& out);

/// Deterministic seed from a request id (FNV-1a over the bytes, then a
/// SplitMix64 finalizer): the `seed` fallback that makes replays independent
/// of worker count and arrival timing.
[[nodiscard]] std::uint64_t seed_from_request_id(std::string_view id);

}  // namespace mocos::serve
