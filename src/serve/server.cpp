#include "src/serve/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sstream>

#include "src/cli/cli.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/problem.hpp"
#include "src/obs/exposition.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/serve/queue.hpp"
#include "src/serve/request.hpp"
#include "src/serve/telemetry_http.hpp"
#include "src/util/config.hpp"
#include "src/util/fault_injection.hpp"
#include "src/util/mutex.hpp"
#include "src/util/status.hpp"
#include "src/util/thread_annotations.hpp"

namespace mocos::serve {

namespace {

std::atomic<bool> g_drain{false};

// The serve layer is the one place in src/ allowed to read a clock outside
// src/obs: deadlines and the watchdog are *about* wall time. Every read goes
// through these two helpers; nothing downstream of them flows into response
// payloads except deadline/timing fields, which are documented as outside
// the byte-reproducibility contract.
// mocos-lint: allow(det-time)
using Clock = std::chrono::steady_clock;

Clock::time_point now() {
  return Clock::now();  // mocos-lint: allow(det-time)
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(now() - start).count();
}

/// Bucket edges (milliseconds) for serve.request.latency. Sub-millisecond
/// decode/shed responses land in the underflow bucket; the top edge is far
/// past any sane deadline.
std::vector<double> latency_bounds_ms() {
  return {1.0,   2.5,   5.0,    10.0,   25.0,   50.0,  100.0,
          250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
}

/// One admitted request in flight. `responded` is the first-wins latch
/// between the worker and the watchdog: whoever flips it false->true owns
/// delivering the response and releasing the admission slot, so exactly one
/// response per request survives even when both race.
struct Pending {
  std::uint64_t seq = 0;
  Request request;
  std::uint64_t deadline_ms = 0;  // resolved against the server default
  std::atomic<bool> started{false};
  std::atomic<bool> responded{false};
  /// Set by the watchdog when it answers on the worker's behalf; the
  /// cooperative should_stop includes it, so an abandoned-but-alive worker
  /// stops at its next iteration boundary instead of finishing the run.
  std::atomic<bool> abandoned{false};
  Clock::time_point start_time;
};

class ServerImpl {
 public:
  ServerImpl(const ServeOptions& options, std::ostream& out)
      : options_(options),
        out_(out),
        gate_(options.queue_capacity),
        pool_(options.jobs) {}

  ServeReport run(std::istream& in) {
    // Profiler first: it is process-global, and workers start reporting
    // phases the moment the first request dispatches. The timer and its
    // install are members (declared before pool_) so a watchdog-abandoned
    // worker that outlives run() still records into live storage.
    if (!options_.profile_path.empty()) profile_install_.emplace(&profiler_);

    // The telemetry endpoint outlives the whole read/drain cycle so scrapes
    // during shutdown still answer; it is stopped explicitly below, before
    // the report goes out (and again, harmlessly, at destruction).
    if (options_.metrics_port >= 0) {
      TelemetryHooks hooks;
      hooks.metrics_text = [this] { return metrics_text(); };
      hooks.health_json = [this] { return health_json(); };
      telemetry_ = std::make_unique<TelemetryEndpoint>(std::move(hooks));
      const util::Status started = telemetry_->start(
          static_cast<std::uint16_t>(options_.metrics_port));
      if (!started.is_ok()) throw util::StatusError(started);
      if (!options_.metrics_port_file.empty()) {
        std::ofstream port_file(options_.metrics_port_file,
                                std::ios::out | std::ios::trunc);
        if (port_file) port_file << telemetry_->port() << "\n";
      }
    }

    std::thread watchdog([this] { watchdog_loop(); });
    std::string line;
    std::uint64_t seq = 0;
    while (!drain_requested()) {
      if (!std::getline(in, line)) break;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      wait_for_buffer_space();
      const std::uint64_t this_seq = seq++;
      accept(this_seq, line);
    }
    const bool drained_early = drain_requested();

    // Drain: everything admitted (or shed/refused) gets its response before
    // we tear anything down. Requests past their deadline are failed by the
    // cooperative check or, failing that, the watchdog — so this wait
    // terminates for every deadline-carrying request.
    {
      util::MutexLock lock(emit_mu_);
      while (next_emit_ != seq) emit_cv_.wait(emit_mu_);
    }
    watchdog_stop_.store(true, std::memory_order_relaxed);
    watchdog.join();

    std::uint64_t lanes_live = 0;
    std::uint64_t lanes_evicted = 0;
    {
      util::MutexLock lock(lanes_mu_);
      lanes_live = lanes_.size();
      lanes_evicted = lanes_evicted_;
    }
    ServeReport report;
    {
      util::MutexLock lock(emit_mu_);
      report = report_;
      report.requests = seq;
      report.peak_depth = gate_.peak();
      report.drained_early = drained_early;
      registry_.counter("serve.requests.total").add(seq);
      registry_.counter("serve.lanes.evicted").add(lanes_evicted);
      registry_.gauge("serve.lanes.live")
          .set(static_cast<double>(lanes_live));
      registry_.gauge("serve.queue.capacity")
          .set(static_cast<double>(gate_.capacity()));
      registry_.gauge("serve.queue.peak_depth")
          .set(static_cast<double>(gate_.peak()));
      registry_.gauge("serve.queue.depth")
          .set(static_cast<double>(gate_.depth()));
      write_metrics_locked();
    }
    if (telemetry_) telemetry_->stop();
    if (!options_.profile_path.empty()) {
      std::ofstream profile_file(options_.profile_path,
                                 std::ios::out | std::ios::trunc);
      // Profile IO must never take the server down, same as metrics IO.
      if (profile_file) profiler_.write_json(profile_file);
    }
    return report;
  }

 private:
  /// Requests sharing a cache_key form a lane: they run one at a time, in
  /// arrival order, and a warm_start request starts from the lane's previous
  /// solution. Serializing per key is what makes that warm state — and with
  /// it the response log — independent of worker count. Lanes are held by
  /// shared_ptr so an LRU eviction can drop the map entry while a pump is
  /// still draining the lane's queue; the warm state dies with the last ref.
  // Locking discipline (TSA cannot express it: a nested struct's fields
  // cannot name the outer class's lanes_mu_ in MOCOS_GUARDED_BY):
  //   - waiting / running / uses / last_use_tick are guarded by lanes_mu_.
  //   - last_solution is NOT lock-protected: `running` guarantees at most
  //     one pump services a lane at a time, so only that pump's worker
  //     touches it (single-pump exclusivity).
  struct Lane {
    std::optional<markov::TransitionMatrix> last_solution;
    std::deque<std::shared_ptr<Pending>> waiting;
    bool running = false;
    std::uint64_t uses = 0;
    std::uint64_t last_use_tick = 0;  // dispatch order, for LRU eviction
  };

  void accept(std::uint64_t seq, const std::string& line) {
    util::StatusOr<Request> parsed = parse_request(line);
    if (!parsed.ok()) {
      Response r;
      r.seq = seq;
      r.code = cli::kExitBadConfig;
      r.status = "error";
      r.error = parsed.status().to_string();
      deliver(std::move(r), obs::MetricsSnapshot{});
      return;
    }
    if (!gate_.try_admit()) {
      Response r;
      r.seq = seq;
      r.id = parsed->id;
      r.code = cli::kExitShed;
      r.status = "shed";
      r.error = "queue full (capacity " + std::to_string(gate_.capacity()) +
                "); retry after the hinted backoff";
      r.retry_after_ms = gate_.retry_after_ms_hint();
      deliver(std::move(r), obs::MetricsSnapshot{});
      return;
    }
    auto pending = std::make_shared<Pending>();
    pending->seq = seq;
    pending->request = std::move(*parsed);
    pending->deadline_ms = pending->request.has_deadline
                               ? pending->request.deadline_ms
                               : options_.default_deadline_ms;
    {
      util::MutexLock lock(inflight_mu_);
      inflight_.emplace(seq, pending);
    }
    dispatch(std::move(pending));
  }

  void dispatch(std::shared_ptr<Pending> pending) {
    if (pending->request.cache_key.empty()) {
      // Cold request: its own evaluator, any worker, no ordering constraint
      // beyond the in-order reorder buffer at emission.
      pool_.submit([this, pending] { process(pending, nullptr); });
      return;
    }
    std::shared_ptr<Lane> lane;
    bool start_pump = false;
    {
      util::MutexLock lock(lanes_mu_);
      std::shared_ptr<Lane>& slot = lanes_[pending->request.cache_key];
      if (!slot) slot = std::make_shared<Lane>();
      slot->last_use_tick = ++lane_tick_;
      lane = slot;
      lane->waiting.push_back(std::move(pending));
      if (!lane->running) {
        lane->running = true;
        start_pump = true;
      }
      evict_lru_locked(lane);
    }
    if (start_pump)
      pool_.submit([this, lane] { pump_lane(lane); });
  }

  /// Bounds lanes_ (DESIGN.md §11.2: degradation never runs into unbounded
  /// memory): past max_lanes, the least-recently-dispatched lane loses its
  /// map entry, releasing its last solution once any pump
  /// still draining it finishes. Runs on the reader thread under lanes_mu_,
  /// keyed only by dispatch ticks — which requests run warm vs cold is
  /// therefore a function of arrival order alone, for any worker count.
  void evict_lru_locked(const std::shared_ptr<Lane>& keep)
      MOCOS_REQUIRES(lanes_mu_) {
    if (options_.max_lanes == 0) return;
    while (lanes_.size() > options_.max_lanes) {
      auto victim = lanes_.end();
      for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
        if (it->second == keep) continue;
        if (victim == lanes_.end() ||
            it->second->last_use_tick < victim->second->last_use_tick)
          victim = it;
      }
      if (victim == lanes_.end()) return;  // only `keep` left
      lanes_.erase(victim);
      ++lanes_evicted_;
    }
  }

  void pump_lane(const std::shared_ptr<Lane>& lane) {
    for (;;) {
      std::shared_ptr<Pending> next;
      {
        util::MutexLock lock(lanes_mu_);
        if (lane->waiting.empty()) {
          lane->running = false;
          return;
        }
        next = std::move(lane->waiting.front());
        lane->waiting.pop_front();
      }
      process(next, lane.get());
    }
  }

  void process(const std::shared_ptr<Pending>& pending, Lane* lane) {
    pending->start_time = now();
    pending->started.store(true, std::memory_order_release);
    obs::MetricsRegistry request_metrics;
    Response response = execute(pending, lane, request_metrics);
    response.seq = pending->seq;
    response.id = pending->request.id;
    const double latency_ms = ms_since(pending->start_time);
    if (options_.timings) response.elapsed_ms = latency_ms;
    if (!pending->responded.exchange(true)) {
      erase_inflight(pending->seq);
      deliver(std::move(response), request_metrics.snapshot(), latency_ms);
      gate_.release();
    }
    // else: the watchdog already answered (and released the slot); this
    // worker's late result is dropped on the floor, per the first-wins rule.
  }

  /// The whole per-request failure-isolation story lives here: every way a
  /// request can go wrong — bad config text, numerical breakdown, deadline,
  /// injected wedge — converges to a filled-in Response, never an escaped
  /// exception (the pool would std::terminate).
  Response execute(const std::shared_ptr<Pending>& pending, Lane* lane,
                   obs::MetricsRegistry& request_metrics) {
    Response r;
    const Request& req = pending->request;
    obs::ScopedMetrics install(&request_metrics);
    // Request-scoped telemetry: every trace event emitted on this worker
    // until execute() returns carries "rid":<request id> (DESIGN.md §15) —
    // the optimization runs on this thread (ExecutionContext(1)), so the
    // thread-local scope covers the whole request. The phase scope roots the
    // profiler's stacks at serve.request.
    obs::ScopedTraceContext trace_ctx(req.id);
    obs::ScopedPhase phase("serve.request");
    std::optional<obs::ScopedSpan> span;
    if (obs::trace_active())
      span.emplace("serve.request", "serve",
                   obs::TraceArgs()
                       .str("id", req.id)
                       .num("seq", static_cast<double>(pending->seq)));
    obs::count("serve.requests.started");

    if (util::fault::fire(util::fault::Site::kServeStuckWorker) &&
        pending->deadline_ms > 0) {
      // Simulated wedge: ignore the cooperative check until the watchdog
      // abandons us (bounded by a hard cap so a misconfigured test cannot
      // hang the suite). The watchdog's response wins the exchange; this
      // one is discarded.
      obs::count("serve.faults.stuck_worker");
      const double cap_ms =
          static_cast<double>(pending->deadline_ms +
                              options_.watchdog_grace_ms) +
          5000.0;
      while (!pending->abandoned.load(std::memory_order_relaxed) &&
             !pending->responded.load(std::memory_order_relaxed) &&
             ms_since(pending->start_time) < cap_ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      r.code = cli::kExitDeadlineExceeded;
      r.status = "deadline-exceeded";
      r.error = "worker wedged past its deadline";
      return r;
    }

    try {
      const util::Config config =
          util::Config::parse_string(req.config_text, "request:" + req.id);
      const core::Problem problem = cli::build_problem(config);
      cli::RunHooks hooks;
      hooks.default_seed = seed_from_request_id(req.id);
      if (pending->deadline_ms > 0) {
        const auto p = pending;
        hooks.should_stop = [p] {
          return p->abandoned.load(std::memory_order_relaxed) ||
                 ms_since(p->start_time) >
                     static_cast<double>(p->deadline_ms);
        };
      }
      bool warm_applied = false;
      if (lane != nullptr) {
        if (req.warm_start && lane->last_solution &&
            lane->last_solution->size() == problem.num_pois()) {
          hooks.warm_start = &*lane->last_solution;
          // run_optimization still declines the warm start for multi-start
          // or load_schedule configs, so the response flag comes from its
          // out-field, not from the offer.
          hooks.warm_start_applied = &warm_applied;
        }
        if (lane->uses > 0) obs::count("serve.lane.reuses");
        ++lane->uses;
      }

      const runtime::ExecutionContext ctx(1);  // requests are the unit of
                                               // parallelism, not starts
      core::OptimizationOutcome outcome =
          cli::run_optimization(config, problem, ctx, hooks);
      r.warm_started = warm_applied;
      if (warm_applied) obs::count("serve.cache.warm_hits");

      r.has_result = true;
      r.penalized_cost = outcome.penalized_cost;
      r.report_cost = outcome.report_cost;
      r.delta_c = outcome.metrics.delta_c;
      r.e_bar = outcome.metrics.e_bar;
      r.iterations = outcome.iterations;
      r.stop_reason = descent::to_string(outcome.stop_reason);
      r.recovery_events = outcome.recovery.size();
      r.chain = outcome.chain_stats;
      if (outcome.stop_reason == descent::StopReason::kCancelled) {
        r.code = cli::kExitDeadlineExceeded;
        r.status = "deadline-exceeded";
        r.error = "deadline of " + std::to_string(pending->deadline_ms) +
                  " ms expired; result is the best iterate found in budget";
      } else if (outcome.stop_reason ==
                 descent::StopReason::kNumericalFailure) {
        r.code = cli::kExitNumericalFailure;
        r.status = "error";
        r.error = "descent recovery ladder exhausted (" +
                  outcome.recovery.summary() + ")";
      } else {
        r.code = cli::kExitSuccess;
        r.status = "ok";
      }
      if (lane != nullptr && r.has_result)
        lane->last_solution = std::move(outcome.p);
    } catch (const util::StatusError& e) {
      r.status = "error";
      r.error = e.what();
      if (util::is_numerical_failure(e.status().code()))
        r.code = cli::kExitNumericalFailure;
      else if (e.status().code() == util::StatusCode::kInvalidConfig)
        r.code = cli::kExitBadConfig;
      else
        r.code = cli::kExitRuntimeError;
    } catch (const std::invalid_argument& e) {
      r.code = cli::kExitBadConfig;
      r.status = "error";
      r.error = e.what();
    } catch (const std::out_of_range& e) {
      r.code = cli::kExitBadConfig;
      r.status = "error";
      r.error = e.what();
    } catch (const std::exception& e) {
      r.code = cli::kExitRuntimeError;
      r.status = "error";
      r.error = e.what();
    }
    return r;
  }

  void watchdog_loop() {
    while (!watchdog_stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.watchdog_poll_ms));
      std::vector<std::shared_ptr<Pending>> candidates;
      {
        util::MutexLock lock(inflight_mu_);
        for (const auto& [seq, p] : inflight_) {
          if (p->deadline_ms == 0) continue;
          if (!p->started.load(std::memory_order_acquire)) continue;
          if (p->responded.load(std::memory_order_relaxed)) continue;
          if (ms_since(p->start_time) >
              static_cast<double>(p->deadline_ms +
                                  options_.watchdog_grace_ms))
            candidates.push_back(p);
        }
      }
      for (const auto& p : candidates) {
        if (p->responded.exchange(true)) continue;  // worker beat us to it
        p->abandoned.store(true, std::memory_order_relaxed);
        Response r;
        r.seq = p->seq;
        r.id = p->request.id;
        r.code = cli::kExitDeadlineExceeded;
        r.status = "deadline-exceeded";
        r.error = "watchdog: worker missed the deadline of " +
                  std::to_string(p->deadline_ms) + " ms plus " +
                  std::to_string(options_.watchdog_grace_ms) +
                  " ms grace; request failed, server continues";
        obs::MetricsRegistry m;
        m.counter("serve.watchdog.fired").add(1);
        erase_inflight(p->seq);
        deliver(std::move(r), m.snapshot(), ms_since(p->start_time));
        gate_.release();
      }
    }
  }

  void erase_inflight(std::uint64_t seq) MOCOS_EXCLUDES(inflight_mu_) {
    util::MutexLock lock(inflight_mu_);
    inflight_.erase(seq);
  }

  /// Reorder buffer: responses complete in any order but are written in
  /// request-arrival order, which is both the determinism contract and the
  /// reason a replayed log is comparable byte for byte. Per-request metrics
  /// merge into the server registry at flush time — also arrival order, so
  /// snapshots are reproducible too. The one exception is
  /// serve.request.latency: its *values* are wall-clock (like --timings,
  /// documented outside the byte-reproducibility contract) even though its
  /// observation order is still arrival order.
  void deliver(Response response, obs::MetricsSnapshot metrics,
               std::optional<double> latency_ms = std::nullopt)
      MOCOS_EXCLUDES(emit_mu_) {
    util::MutexLock lock(emit_mu_);
    buffer_.emplace(response.seq, Buffered{std::move(response),
                                           std::move(metrics), latency_ms});
    while (!buffer_.empty() && buffer_.begin()->first == next_emit_) {
      Buffered& head = buffer_.begin()->second;
      registry_.merge(head.metrics);
      if (head.latency_ms)
        registry_.histogram("serve.request.latency", latency_bounds_ms())
            .observe(*head.latency_ms);
      tally_locked(head.response);
      if (options_.on_request_metrics)
        options_.on_request_metrics(head.response, head.metrics);
      write_response(head.response, out_);
      out_.flush();
      buffer_.erase(buffer_.begin());
      ++next_emit_;
      if (options_.metrics_every > 0 &&
          next_emit_ % options_.metrics_every == 0)
        write_metrics_locked();
    }
    emit_cv_.notify_all();
  }

  void tally_locked(const Response& r) MOCOS_REQUIRES(emit_mu_) {
    if (r.code == cli::kExitSuccess) {
      ++report_.ok;
      registry_.counter("serve.requests.ok").add(1);
    } else if (r.code == cli::kExitDeadlineExceeded) {
      ++report_.deadline_exceeded;
      registry_.counter("serve.requests.deadline_exceeded").add(1);
    } else if (r.code == cli::kExitShed) {
      ++report_.shed;
      registry_.counter("serve.requests.shed").add(1);
    } else {
      ++report_.errors;
      registry_.counter("serve.requests.error").add(1);
    }
  }

  /// Backpressure on the reader: the buffer holds completed-but-unflushed
  /// responses (a slow early request holds back later ones), and sheds and
  /// decode errors are produced at read speed — without this bound a
  /// flooding client could grow the buffer without limit.
  void wait_for_buffer_space() MOCOS_EXCLUDES(emit_mu_) {
    const std::size_t bound = 2 * options_.queue_capacity + 64;
    util::MutexLock lock(emit_mu_);
    while (buffer_.size() >= bound) emit_cv_.wait(emit_mu_);
  }

  /// GET /metrics body: the server registry rendered as Prometheus text.
  /// Runs on the endpoint thread; the only synchronization with the serve
  /// loop is the brief emit_mu_ hold for a consistent snapshot.
  std::string metrics_text() MOCOS_EXCLUDES(emit_mu_) {
    obs::MetricsSnapshot snap;
    {
      util::MutexLock lock(emit_mu_);
      snap = registry_.snapshot();
    }
    std::ostringstream body;
    obs::render_prometheus(snap, body);
    return body.str();
  }

  /// GET /healthz body. One lock at a time (never nested), each held only
  /// long enough to copy a few integers — the endpoint can be polled hard
  /// without perturbing request scheduling.
  std::string health_json()
      MOCOS_EXCLUDES(emit_mu_, lanes_mu_, inflight_mu_) {
    std::size_t lanes_live = 0;
    std::uint64_t lanes_evicted = 0;
    {
      util::MutexLock lock(lanes_mu_);
      lanes_live = lanes_.size();
      lanes_evicted = lanes_evicted_;
    }
    std::size_t inflight = 0;
    {
      util::MutexLock lock(inflight_mu_);
      inflight = inflight_.size();
    }
    std::uint64_t emitted = 0;
    std::size_t buffered = 0;
    {
      util::MutexLock lock(emit_mu_);
      emitted = next_emit_;
      buffered = buffer_.size();
    }
    const bool draining = drain_requested();
    std::ostringstream body;
    body << "{\"status\": \"" << (draining ? "draining" : "ok")
         << "\", \"draining\": " << (draining ? "true" : "false")
         << ", \"queue_depth\": " << gate_.depth()
         << ", \"queue_capacity\": " << gate_.capacity()
         << ", \"queue_peak_depth\": " << gate_.peak()
         << ", \"inflight\": " << inflight
         << ", \"lanes_live\": " << lanes_live
         << ", \"lanes_evicted\": " << lanes_evicted
         << ", \"responses_emitted\": " << emitted
         << ", \"responses_buffered\": " << buffered << "}\n";
    return body.str();
  }

  void write_metrics_locked() MOCOS_REQUIRES(emit_mu_) {
    if (options_.metrics_path.empty()) return;
    std::ofstream file(options_.metrics_path,
                       std::ios::out | std::ios::trunc);
    if (!file) return;  // metrics IO must never take the server down
    registry_.snapshot().write_json(file);
  }

  struct Buffered {
    Response response;
    obs::MetricsSnapshot metrics;
    std::optional<double> latency_ms;
  };

  const ServeOptions options_;
  std::ostream& out_;
  AdmissionGate gate_;

  util::Mutex lanes_mu_;
  std::map<std::string, std::shared_ptr<Lane>> lanes_
      MOCOS_GUARDED_BY(lanes_mu_);
  // Dispatch counter driving lane LRU.
  std::uint64_t lane_tick_ MOCOS_GUARDED_BY(lanes_mu_) = 0;
  // Folded into registry_ at drain.
  std::uint64_t lanes_evicted_ MOCOS_GUARDED_BY(lanes_mu_) = 0;

  util::Mutex inflight_mu_;
  std::map<std::uint64_t, std::shared_ptr<Pending>> inflight_
      MOCOS_GUARDED_BY(inflight_mu_);

  util::Mutex emit_mu_;
  util::CondVar emit_cv_;
  std::map<std::uint64_t, Buffered> buffer_ MOCOS_GUARDED_BY(emit_mu_);
  std::uint64_t next_emit_ MOCOS_GUARDED_BY(emit_mu_) = 0;
  ServeReport report_ MOCOS_GUARDED_BY(emit_mu_);
  // The registry is internally thread-safe, but merge *order* is the
  // replay-determinism contract, so all access stays under emit_mu_.
  obs::MetricsRegistry registry_ MOCOS_GUARDED_BY(emit_mu_);

  std::atomic<bool> watchdog_stop_{false};

  /// Phase profiler for --profile runs (record() is internally locked, so a
  /// late worker racing run()'s final write_json is safe — its phases just
  /// miss the file). Declared before pool_ so abandoned workers never
  /// outlive the storage they record into; the install member restores the
  /// previous global profiler only after the pool has joined.
  obs::PhaseTimer profiler_;
  std::optional<obs::ScopedProfileInstall> profile_install_;
  /// Telemetry endpoint (null when disabled). Its hooks read gate_/lanes_/
  /// inflight_/emit state, all declared before it; destruction order (after
  /// pool_, before that state) keeps the reads valid to the end.
  std::unique_ptr<TelemetryEndpoint> telemetry_;

  /// Last member on purpose: ~ThreadPool joins the workers, and a
  /// watchdog-abandoned worker can outlive run()'s response drain (run()
  /// waits for responses, not for tasks). Destroying the pool first means
  /// every late worker has exited before lanes_/inflight_/emit state — which
  /// it still touches — is torn down.
  runtime::ThreadPool pool_;
};

}  // namespace

void request_drain() { g_drain.store(true, std::memory_order_relaxed); }

bool drain_requested() { return g_drain.load(std::memory_order_relaxed); }

void reset_drain() { g_drain.store(false, std::memory_order_relaxed); }

ServeReport serve(std::istream& in, std::ostream& out,
                  const ServeOptions& options) {
  ServerImpl server(options, out);
  return server.run(in);
}

}  // namespace mocos::serve
