#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace mocos::obs {
struct MetricsSnapshot;
}  // namespace mocos::obs

namespace mocos::serve {

struct Response;

struct ServeOptions {
  /// Worker threads (0 = hardware concurrency). Responses are emitted in
  /// request-arrival order for any value, and — absent --timings — are
  /// byte-identical for any value.
  std::size_t jobs = 0;
  /// Admission-control bound on requests admitted but not yet answered.
  /// A full gate sheds with a retry_after_ms hint instead of queueing, so
  /// server memory is bounded no matter how fast requests arrive.
  std::size_t queue_capacity = 16;
  /// Deadline for requests that do not carry their own deadline_ms
  /// (0 = none). Measured over a request's processing time.
  std::uint64_t default_deadline_ms = 0;
  /// Bound on distinct `cache_key` lanes kept warm (0 = unlimited). Beyond
  /// it the least-recently-dispatched lane is evicted — its last solution
  /// is released, and a later request with that key starts a cold lane.
  /// Eviction decisions depend only on request arrival order, so which
  /// requests run warm is identical for any `--jobs` value.
  std::size_t max_lanes = 64;
  /// Watchdog: extra slack past a request's deadline before the watchdog
  /// answers on the worker's behalf (the cooperative cancellation should
  /// have fired long before).
  std::uint64_t watchdog_grace_ms = 200;
  std::uint64_t watchdog_poll_ms = 10;
  /// Adds wall-clock elapsed_ms to every response — explicitly trades away
  /// byte-reproducibility of the response log (bench/latency use).
  bool timings = false;
  /// Metrics snapshot file ("" = no metrics). Rewritten every
  /// `metrics_every` responses (0 = only at drain) and always at drain, so
  /// even a SIGTERM'd server leaves a complete final snapshot.
  std::string metrics_path;
  std::size_t metrics_every = 0;
  /// Live telemetry endpoint (DESIGN.md §15): when >= 0, a loopback HTTP
  /// listener serving GET /metrics (Prometheus text rendered from the server
  /// registry) and GET /healthz (queue/lane/inflight/drain state) runs on
  /// its own thread for the server's lifetime. 0 picks an ephemeral port
  /// (see metrics_port_file); -1 disables the endpoint. The endpoint only
  /// reads state, so the byte-identical replay contract is unaffected.
  int metrics_port = -1;
  /// When non-empty and the endpoint is enabled, the bound port is written
  /// here as one decimal line (how tests and scripts learn an ephemeral
  /// port).
  std::string metrics_port_file;
  /// Phase-profiler output file ("" = off): installs obs::PhaseTimer for the
  /// server's lifetime and writes its JSON (tools/trace/profile_schema.json)
  /// at drain. Phase *counts* are deterministic; the nanosecond fields are
  /// wall-clock and exempt like trace timestamps (DESIGN.md §15).
  std::string profile_path;
  /// Test hook: called once per response at flush time — under the emit lock,
  /// in arrival order — with the response and the per-request metrics delta
  /// that was just merged into the server registry. Must not call back into
  /// the server. Lets tests replay the merge independently (the
  /// metrics-merge correctness suite); "" production configs leave it unset.
  std::function<void(const Response&, const obs::MetricsSnapshot&)>
      on_request_metrics;
};

/// What a serve session did, summarized for the process exit path and for
/// in-process tests. Every request line ends in exactly one bucket.
struct ServeReport {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;             // structured failures (codes 1/2/3)
  std::uint64_t deadline_exceeded = 0;  // code 5
  std::uint64_t shed = 0;               // code 6
  std::size_t peak_depth = 0;           // admission-gate high-water mark
  bool drained_early = false;           // stopped reading on request_drain()
};

/// Asks the serve loop to drain: stop accepting new requests, let in-flight
/// ones finish (or deadline-fail), flush metrics, return. Async-signal-safe
/// (one relaxed atomic store) — the SIGTERM/SIGINT handler calls this.
void request_drain();
[[nodiscard]] bool drain_requested();
/// Clears a pending drain request (test isolation between in-process runs).
void reset_drain();

/// Runs the NDJSON request/response loop: one request per line on `in`, one
/// response per request on `out`, in arrival order. Never throws for
/// anything a request did — malformed lines, bad configs, numerical
/// failures, deadlines, and injected faults all come back as structured
/// responses. See DESIGN.md §11 for the request state machine.
ServeReport serve(std::istream& in, std::ostream& out,
                  const ServeOptions& options);

}  // namespace mocos::serve
