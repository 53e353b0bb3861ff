#include "rpc/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>
#include <variant>

#include "io/atomic_file.hpp"
#include "util/log.hpp"

namespace gmfnet::rpc {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Reactor wait slice: the epoll wait never parks longer than this, so a
/// stop/drain request is observed promptly even with no timers armed.
constexpr int kWaitSliceMs = 100;

/// Accept failures in a row after which the loop gives up on the listener.
constexpr int kMaxConsecutiveAcceptFailures = 100;

/// Grace allowance for flushing a best-effort ERROR frame to a peer that
/// is being disconnected (deadline blown, malformed frame).
constexpr int kErrorFlushGraceMs = 1000;

/// A subscriber whose unflushed delta backlog exceeds this pauses its own
/// journal pump until the socket drains — a slow replica never grows the
/// daemon's memory unboundedly (it falls behind and full-syncs instead).
constexpr std::size_t kSubscriberOutCap = 4u << 20;

/// epoll identity values below the first connection id.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;

/// A per-process random history token (splitmix64 over clock/pid/address
/// entropy).  Never zero: zero is a replica's "no history yet".
std::uint64_t make_history_token(const void* self) {
  std::uint64_t x = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  x ^= static_cast<std::uint64_t>(::getpid()) << 32;
  x ^= static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(self));
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x | 1;
}

/// ADMIT / REMOVE / ADMIT_BATCH coalesce into one commit group; anything
/// else is a barrier that executes alone.
bool coalescable(const Request& req) {
  return std::holds_alternative<AdmitRequest>(req) ||
         std::holds_alternative<RemoveRequest>(req) ||
         std::holds_alternative<AdmitBatchRequest>(req);
}

}  // namespace

Server::Server(std::shared_ptr<engine::AnalysisEngine> engine,
               ServerConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(std::move(engine)),
      readers_(cfg_.reader_threads),
      role_(static_cast<std::uint8_t>(
          cfg_.replica_of.empty() ? Role::kPrimary : Role::kReplica)),
      // A fresh primary starts history at epoch 1; a replica starts at
      // epoch 0 ("before any history") and adopts its primary's epoch
      // with the first sync.
      epoch_(cfg_.replica_of.empty() ? 1 : 0),
      history_token_(make_history_token(this)),
      journal_(cfg_.journal_capacity),
      started_(Clock::now()) {
  if (!engine_) throw std::logic_error("rpc server: null engine");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    throw TransportError("rpc server: eventfd failed", errno);
  }
  try {
    listener_ = cfg_.unix_path.empty()
                    ? Listener::listen_tcp(cfg_.tcp_host, cfg_.tcp_port)
                    : Listener::listen_unix(cfg_.unix_path);
  } catch (...) {
    ::close(wake_fd_);
    wake_fd_ = -1;
    throw;
  }
  if (!cfg_.replica_of.empty()) {
    ReplicationClientConfig rcfg;
    rcfg.primary_addr = cfg_.replica_of;  // validated by the client ctor
    rcfg.connect_timeout_ms = cfg_.repl_connect_timeout_ms;
    rcfg.io_timeout_ms = cfg_.repl_io_timeout_ms;
    rcfg.backoff_initial_ms = cfg_.repl_backoff_initial_ms;
    rcfg.backoff_max_ms = cfg_.repl_backoff_max_ms;
    rcfg.backoff_seed = cfg_.repl_backoff_seed != 0 ? cfg_.repl_backoff_seed
                                                    : history_token_;
    rcfg.fault = cfg_.repl_fault;
    ReplicationHooks hooks;
    hooks.full_sync = [this](const SyncFullResponse& f) {
      replica_full_sync(f);
    };
    hooks.apply = [this](const DeltaResponse& d) { return replica_apply(d); };
    hooks.position = [this] {
      return ReplicaPosition{
          epoch(), commit_seq() + 1,
          upstream_history_.load(std::memory_order_acquire)};
    };
    hooks.stopped = [this] {
      return stop_requested() || drain_requested();
    };
    repl_ = std::make_unique<ReplicationClient>(std::move(rcfg),
                                                std::move(hooks));
    repl_->start();
  }
}

Server::~Server() {
  request_stop();
  // Wind the replication thread down before members it calls into go
  // away.  (By destruction time serve() has returned — no reactor, no
  // mutation worker — so the unlocked repl_ access is single-threaded.)
  if (repl_) repl_->stop();
  journal_.request_stop();
  listener_.close();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake_reactor();
}

void Server::request_drain() {
  drain_.store(true, std::memory_order_release);
  wake_reactor();
}

void Server::wake_reactor() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

// ------------------------------------------------------------------ reactor --

void Server::serve() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw TransportError("rpc server: epoll_create1 failed", errno);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (listener_.valid() &&
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw TransportError("rpc server: epoll_ctl(listener) failed", err);
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw TransportError("rpc server: epoll_ctl(eventfd) failed", err);
  }

  {
    std::lock_guard<std::mutex> lock(mut_mu_);
    mut_stop_ = false;
  }
  std::thread mut_thread(&Server::mutation_loop, this);

  try {
    reactor_loop();
  } catch (const std::exception& e) {
    GMFNET_LOG_ERROR("rpc server: reactor failed: %s — winding down "
                     "abnormally",
                     e.what());
    abnormal_.store(true, std::memory_order_release);
    request_stop();
  }

  // Teardown: stop the mutation worker, drop every connection, quiesce
  // the reader pool, then write the final checkpoint.
  {
    std::lock_guard<std::mutex> lock(mut_mu_);
    mut_stop_ = true;
  }
  mut_cv_.notify_all();
  mut_thread.join();
  journal_.request_stop();
  {
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) close_conn(id);
    dead_.clear();
  }
  readers_.wait_idle();
  {
    // Worker completions posted after the last pump are unreachable now.
    std::lock_guard<std::mutex> lock(comp_mu_);
    comp_queue_.clear();
  }
  listener_.close();
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  if (!cfg_.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    try {
      write_checkpoint_locked();
    } catch (const std::exception& e) {
      GMFNET_LOG_ERROR("rpc server: final checkpoint failed: %s", e.what());
    }
  }
}

void Server::reactor_loop() {
  int consecutive_failures = 0;
  int backoff_ms = 0;
  // Ring of the most recent hard accept-failure reasons: when the loop
  // gives up it must say WHY, loudly — a daemon that stops serving with
  // an exit indistinguishable from a clean shutdown is undebuggable.
  std::vector<std::string> accept_errors;
  std::array<epoll_event, 128> events{};
  std::vector<std::uint64_t> expired;

  while (!stop_requested()) {
    if (drain_requested() && !draining_) begin_drain();
    if (draining_) {
      if (conns_.empty()) break;
      if (Clock::now() >= drain_deadline_) break;
    }
    int timeout = kWaitSliceMs;
    const int wheel_delay = wheel_.next_delay_ms(Clock::now());
    if (wheel_delay >= 0) timeout = std::min(timeout, wheel_delay);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      GMFNET_LOG_ERROR("rpc server: epoll_wait failed (errno %d) — winding "
                       "down abnormally",
                       errno);
      abnormal_.store(true, std::memory_order_release);
      request_stop();
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      const std::uint32_t evs = events[i].events;
      if (id == kListenerId) {
        if (!draining_ && !stop_requested()) {
          accept_ready(consecutive_failures, backoff_ms, accept_errors);
        }
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t v = 0;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if ((evs & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(id);
        continue;
      }
      if ((evs & EPOLLIN) != 0) {
        on_readable(c);
        if (conns_.find(id) == conns_.end()) continue;
      }
      if ((evs & EPOLLOUT) != 0) flush_out(c);
    }
    pump_completions();
    pump_subscribers();
    expired.clear();
    wheel_.expire(Clock::now(), expired);
    for (const std::uint64_t id : expired) handle_expired(id);
    dead_.clear();
  }
  dead_.clear();
}

void Server::accept_ready(int& consecutive_failures, int& backoff_ms,
                          std::vector<std::string>& accept_errors) {
  const auto note_accept_failure = [&](const std::string& what) {
    constexpr std::size_t kKeepErrors = 8;
    if (accept_errors.size() >= kKeepErrors) {
      accept_errors.erase(accept_errors.begin());
    }
    accept_errors.push_back(what);
    if (++consecutive_failures >= kMaxConsecutiveAcceptFailures) {
      std::string history;
      for (const std::string& e : accept_errors) {
        history += "\n  recent failure: " + e;
      }
      GMFNET_LOG_ERROR(
          "rpc server: accept loop giving up after %d consecutive hard "
          "failures — winding down abnormally%s",
          consecutive_failures, history.c_str());
      abnormal_.store(true, std::memory_order_release);
      request_stop();
    }
  };
  for (;;) {
    try {
      Socket conn = listener_.accept(/*timeout_ms=*/0);
      if (!conn.valid()) return;  // backlog drained
      add_conn(std::move(conn));
      consecutive_failures = 0;
      backoff_ms = 0;
      accept_errors.clear();
    } catch (const TransportError& e) {
      if (is_transient_accept_error(e.errno_value())) {
        // fd exhaustion or a backlog abort: the listener is still good.
        // Back off (capped exponential) so the loop does not spin while
        // the condition clears.
        backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 500);
        GMFNET_LOG_WARN("rpc server: transient accept failure (%s), "
                        "backing off %dms",
                        e.what(), backoff_ms);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        return;
      }
      note_accept_failure(e.what());
      return;
    } catch (const std::exception& e) {
      note_accept_failure(e.what());
      return;
    }
  }
}

void Server::add_conn(Socket sock) {
  if (cfg_.max_connections > 0 && conns_.size() >= cfg_.max_connections) {
    shed_oldest_idle();
  }
  auto c = std::make_unique<Conn>();
  c->id = next_conn_id_++;
  c->sock = std::move(sock);
  set_nonblocking(c->sock.fd(), true);
  if (cfg_.unix_path.empty()) {
    // Pipelined small responses must not sit in Nagle's buffer.
    const int one = 1;
    (void)::setsockopt(c->sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof one);
  }
  c->last_active_ms = now_ms();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->sock.fd(), &ev) != 0) {
    GMFNET_LOG_WARN("rpc server: epoll_ctl(add conn) failed (errno %d) — "
                    "dropping the connection",
                    errno);
    return;
  }
  c->ep_events = EPOLLIN;
  update_deadline(*c);  // arms the idle allowance
  active_conns_.fetch_add(1, std::memory_order_release);
  const std::uint64_t id = c->id;
  conns_.emplace(id, std::move(c));
}

void Server::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  std::unique_ptr<Conn> c = std::move(it->second);
  conns_.erase(it);
  wheel_.cancel(id);
  if (c->sock.valid()) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->sock.fd(), nullptr);
  }
  if (c->subscriber) subscribers_.fetch_sub(1, std::memory_order_relaxed);
  active_conns_.fetch_sub(1, std::memory_order_release);
  // Prompt FIN/EOF to the peer even though the fd is parked in dead_
  // until the end of this loop iteration.
  c->sock.shutdown_both();
  dead_.push_back(std::move(c));
}

void Server::shed_oldest_idle() {
  const Conn* oldest = nullptr;
  for (const auto& [id, c] : conns_) {
    if (oldest == nullptr || c->last_active_ms < oldest->last_active_ms) {
      oldest = c.get();
    }
  }
  if (oldest != nullptr) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    close_conn(oldest->id);
  }
}

void Server::on_readable(Conn& c) {
  if (c.subscriber || c.sub_pending) {
    // A subscriber never speaks after SUBSCRIBE, so readability means EOF
    // (or junk) — either way the stream is over; the replica owns
    // reconnecting.
    char probe[256];
    try {
      const ssize_t n = c.sock.recv_some(probe, sizeof probe);
      if (n == -1) return;  // spurious wakeup
    } catch (const std::exception&) {
    }
    close_conn(c.id);
    return;
  }
  if (!c.reading || c.closing) return;
  char buf[64 * 1024];
  // Bounded rounds per event so one firehose connection cannot starve the
  // rest; level-triggered epoll re-delivers whatever is left.
  for (int round = 0; round < 16; ++round) {
    ssize_t n = 0;
    try {
      n = c.sock.recv_some(buf, sizeof buf);
    } catch (const std::exception&) {
      // Broken socket (reset mid-stream): nothing to report to.
      close_conn(c.id);
      return;
    }
    if (n == -1) break;  // drained
    if (n == 0) {
      // Peer closed.  Mid-frame or with responses pending, the stream is
      // equally over — drop the connection, daemon unharmed.
      close_conn(c.id);
      return;
    }
    c.in_buf.append(buf, static_cast<std::size_t>(n));
    c.last_active_ms = now_ms();
    parse_frames(c);
    if (c.closing || !c.reading) break;
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  // One flush for everything the parse loop delivered inline (it also
  // re-arms the deadline for the pure-read case).
  if (conns_.find(c.id) != conns_.end()) flush_out(c);
}

void Server::parse_frames(Conn& c) {
  while (!c.closing && !c.sub_pending && !c.subscriber && !draining_ &&
         c.reading) {
    const std::size_t avail = c.in_buf.size() - c.in_off;
    if (avail < kHeaderSize) break;
    FrameHeader header;
    try {
      header = decode_frame_header(
          std::string_view(c.in_buf.data() + c.in_off, kHeaderSize));
    } catch (const ProtocolError& e) {
      // Malformed header: the stream can no longer be trusted — report
      // why (best effort) and drop this connection only.
      error_close(c, e.what());
      break;
    }
    const std::size_t frame_len =
        kHeaderSize + static_cast<std::size_t>(header.body_len);
    if (avail < frame_len) break;  // wait for the rest of the body
    Request req;
    try {
      req = decode_request(
          std::string_view(c.in_buf.data() + c.in_off, frame_len));
    } catch (const ProtocolError& e) {
      error_close(c, e.what());
      break;
    }
    c.in_off += frame_len;
    dispatch(c, std::move(req));
  }
  if (c.in_off == c.in_buf.size()) {
    c.in_buf.clear();
    c.in_off = 0;
  } else if (c.in_off > (64u << 10)) {
    c.in_buf.erase(0, c.in_off);
    c.in_off = 0;
  }
}

void Server::dispatch(Conn& c, Request&& req) {
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq = c.next_seq++;
  ++c.inflight;
  const std::uint64_t depth = c.inflight;
  std::uint64_t hwm = pipelined_hwm_.load(std::memory_order_relaxed);
  while (depth > hwm && !pipelined_hwm_.compare_exchange_weak(
                            hwm, depth, std::memory_order_relaxed)) {
  }
  if (cfg_.max_pipeline > 0 && c.inflight >= cfg_.max_pipeline) {
    // Backpressure: stop reading until the pipeline drains.
    c.reading = false;
    update_epoll(c);
  }
  if (auto* what_if = std::get_if<WhatIfBatchRequest>(&req)) {
    dispatch_what_if(c.id, seq, std::move(*what_if));
    return;
  }
  if (std::holds_alternative<SubscribeRequest>(req)) {
    // Stop decoding further frames; the mutation worker sets the stream
    // up (it needs a consistent position under the writer mutex).
    c.sub_pending = true;
  }
  {
    std::lock_guard<std::mutex> lock(mut_mu_);
    mut_queue_.push_back(PendingOp{c.id, seq, std::move(req)});
  }
  mut_cv_.notify_one();
}

void Server::dispatch_what_if(std::uint64_t conn_id, std::uint64_t seq,
                              WhatIfBatchRequest&& req) {
  // Small batches (the dominant operator pattern: one candidate per frame)
  // probe inline on the reactor thread, skipping a pool hand-off plus an
  // eventfd wakeup; the response joins the current write batch instead of
  // waking the reactor again.  Fat batches still fan out below.  A probe is
  // not always cheap: in-process a campus-cell probe costs ~40 us, a
  // 65-flow AV hub ~0.2 ms and a tree_churn subtree ~0.25 ms (median,
  // 4-vCPU host), all of it reactor time here (see the ROADMAP item
  // "Probes never block the reactor").
  if (req.candidates.size() <= 2) {
    Response resp;
    try {
      const std::shared_ptr<const engine::EngineSnapshot> snap =
          engine()->published();
      const engine::ProbeScratchPool::Lease lease = conn_scratch_.acquire();
      WhatIfBatchResponse out;
      out.results.reserve(req.candidates.size());
      for (const gmf::Flow& cand : req.candidates) {
        engine::WhatIfResult wi = snap->what_if(cand, lease.get());
        // Verdict-only probes strip the O(world) payload before encoding:
        // serializing the full HolisticResult deep-copies every resident's
        // FlowResult and dominates the probe itself on large worlds.
        out.results.push_back(
            req.verdict_only
                ? engine::WhatIfResult::verdict_only(
                      wi.admissible, wi.converged(), wi.sweeps(),
                      wi.flow_count())
                : std::move(wi));
      }
      resp = std::move(out);
    } catch (const std::exception& e) {
      resp = ErrorResponse{e.what()};
    }
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) {
      deliver(*it->second, seq, encode_response(resp));
    }
    return;
  }
  struct Job {
    std::vector<gmf::Flow> candidates;
    std::vector<engine::WhatIfResult> results;
    std::shared_ptr<const engine::EngineSnapshot> snap;
    std::atomic<std::size_t> remaining{0};
    std::mutex err_mu;
    std::string error;
    bool failed = false;
    bool verdict_only = false;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
  };
  auto job = std::make_shared<Job>();
  job->candidates = std::move(req.candidates);
  job->verdict_only = req.verdict_only;
  job->results.resize(job->candidates.size());
  job->snap = engine()->published();
  job->conn_id = conn_id;
  job->seq = seq;
  // Fan the candidates over the reader pool in contiguous chunks: intra-
  // batch parallelism for one fat batch, request-level parallelism across
  // connections for many thin ones.
  const std::size_t chunks = std::min<std::size_t>(
      job->candidates.size(), std::max<std::size_t>(readers_.size(), 1));
  job->remaining.store(chunks, std::memory_order_relaxed);
  const std::size_t per = job->candidates.size() / chunks;
  const std::size_t extra = job->candidates.size() % chunks;
  std::size_t begin = 0;
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::size_t len = per + (k < extra ? 1 : 0);
    const std::size_t end = begin + len;
    readers_.submit([this, job, begin, end] {
      try {
        const engine::ProbeScratchPool::Lease lease = conn_scratch_.acquire();
        for (std::size_t i = begin; i < end; ++i) {
          engine::WhatIfResult wi =
              job->snap->what_if(job->candidates[i], lease.get());
          // Strip the O(world) payload on the worker, not the reactor.
          job->results[i] =
              job->verdict_only
                  ? engine::WhatIfResult::verdict_only(
                        wi.admissible, wi.converged(), wi.sweeps(),
                        wi.flow_count())
                  : std::move(wi);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(job->err_mu);
        job->failed = true;
        if (job->error.empty()) job->error = e.what();
      }
      if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Response resp =
            job->failed
                ? Response{ErrorResponse{job->error}}
                : Response{WhatIfBatchResponse{std::move(job->results)}};
        post_completion(
            Completion{job->conn_id, job->seq, encode_response(resp)});
        wake_reactor();
      }
    });
    begin = end;
  }
}

StatsResponse Server::build_stats() {
  const std::shared_ptr<engine::AnalysisEngine> eng = engine();
  const std::shared_ptr<const engine::EngineSnapshot> snap =
      eng->published();
  StatsResponse resp;
  resp.stats = eng->stats();
  resp.flows = snap->flow_count();
  resp.shards = snap->shard_count();
  resp.role = role();
  resp.epoch = epoch();
  resp.commit_seq = commit_seq();
  resp.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            started_)
          .count());
  resp.active_connections = active_conns_.load(std::memory_order_acquire);
  resp.frames_served = frames_served_.load(std::memory_order_relaxed);
  resp.coalesced_commits = coalesced_.load(std::memory_order_relaxed);
  resp.pipelined_hwm = pipelined_hwm_.load(std::memory_order_relaxed);
  resp.solver_mode = 0;
  return resp;
}

void Server::deliver(Conn& c, std::uint64_t seq, std::string frame) {
  // Appends to out_buf only — the caller owes a flush_out once its whole
  // delivery batch is buffered, so neighbouring responses share one send.
  const auto appended_seq = [&](std::uint64_t appended) {
    if (c.inflight > 0) --c.inflight;
    if (appended == c.stop_seq) c.stop_when_flushed = true;
    if (appended == c.close_seq) c.closing = true;
    if (appended == c.sub_seq) {
      c.subscriber = true;
      c.sub_pending = false;
      c.sub_next = c.pending_sub_next;
      subscribers_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (c.done.empty() && seq == c.flush_seq) {
    // In-order completion (the common case): straight to out_buf, no map.
    c.out_buf.append(frame);
    appended_seq(c.flush_seq++);
  } else {
    c.done.emplace(seq, std::move(frame));
    // Flush the contiguous completed prefix in request order — the
    // pipelining contract: responses never reorder within a connection.
    for (;;) {
      auto it = c.done.find(c.flush_seq);
      if (it == c.done.end()) break;
      c.out_buf.append(it->second);
      c.done.erase(it);
      appended_seq(c.flush_seq++);
    }
  }
  c.last_active_ms = now_ms();
  if (!c.reading && !c.closing && !c.subscriber && !c.sub_pending &&
      !draining_ &&
      (cfg_.max_pipeline == 0 || c.inflight < cfg_.max_pipeline)) {
    c.reading = true;  // backpressure released
    update_epoll(c);
  }
}

void Server::flush_out(Conn& c) {
  if (pending_out(c)) {
    try {
      while (c.out_off < c.out_buf.size()) {
        const ssize_t n = c.sock.send_some(c.out_buf.data() + c.out_off,
                                           c.out_buf.size() - c.out_off);
        if (n < 0) break;  // socket buffer full — EPOLLOUT resumes us
        c.out_off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception&) {
      close_conn(c.id);
      return;
    }
  }
  if (!pending_out(c)) {
    c.out_buf.clear();
    c.out_off = 0;
    if (c.want_write) {
      c.want_write = false;
      update_epoll(c);
    }
    if (c.stop_when_flushed) {
      // SHUTDOWN contract: the acknowledgement reached the kernel before
      // the daemon winds down.
      c.stop_when_flushed = false;
      request_stop();
    }
    if (c.closing) {
      close_conn(c.id);
      return;
    }
    if (draining_ && c.inflight == 0 && c.done.empty()) {
      close_conn(c.id);
      return;
    }
  } else if (!c.want_write) {
    c.want_write = true;
    update_epoll(c);
  }
  update_deadline(c);
}

void Server::pump_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    batch.swap(comp_queue_);
  }
  std::vector<std::uint64_t> touched;
  for (Completion& comp : batch) {
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection died while computing
    Conn& c = *it->second;
    if (comp.stop_after) c.stop_seq = comp.seq;
    if (comp.close_after) c.close_seq = comp.seq;
    if (comp.sub_start) {
      c.sub_seq = comp.seq;
      c.pending_sub_next = comp.sub_next;
    }
    deliver(c, comp.seq, std::move(comp.frame));
    if (touched.empty() || touched.back() != comp.conn_id) {
      touched.push_back(comp.conn_id);
    }
  }
  // Flush each touched connection once: completions that landed together
  // leave in one send.
  for (const std::uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it != conns_.end()) flush_out(*it->second);
  }
}

void Server::pump_subscribers() {
  static thread_local std::vector<std::uint64_t> ids;
  ids.clear();
  for (const auto& [id, c] : conns_) {
    if (c->subscriber && !c->closing) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    bool stream_over = false;
    std::string frame;
    while (c.out_buf.size() - c.out_off < kSubscriberOutCap) {
      const ReplicationLog::Fetch f = journal_.try_fetch(c.sub_next, frame);
      if (f == ReplicationLog::Fetch::kOk) {
        c.out_buf.append(frame);
        ++c.sub_next;
        c.last_active_ms = now_ms();
        continue;
      }
      if (f == ReplicationLog::Fetch::kTimeout) break;  // nothing new yet
      // kGap (the bounded journal moved past this replica, or a promote
      // reset it) or kStopped: drop the stream; the reconnect full-syncs.
      stream_over = true;
      break;
    }
    if (stream_over) c.closing = true;
    flush_out(c);
  }
}

void Server::error_close(Conn& c, const std::string& message) {
  // Best effort: the peer may be the very thing that is broken, so the
  // frame rides the normal buffered path under a short grace deadline and
  // failures are swallowed.
  try {
    c.out_buf.append(encode_response(Response{ErrorResponse{message}}));
  } catch (const std::exception&) {
  }
  c.closing = true;
  c.reading = false;
  update_epoll(c);
  flush_out(c);
  if (conns_.find(c.id) != conns_.end()) {
    wheel_.schedule_in(c.id, kErrorFlushGraceMs, Clock::now());
    c.dl = Conn::Deadline::kIo;
  }
}

void Server::update_deadline(Conn& c) {
  using D = Conn::Deadline;
  if (c.closing) return;  // error_close manages the flush grace timer
  D want = D::kNone;
  if (c.subscriber || c.sub_pending) {
    want = pending_out(c) ? D::kIo : D::kNone;
  } else if (pending_out(c) || c.in_off < c.in_buf.size()) {
    // Mid-frame inbound bytes or unread responses: the io deadline.
    want = D::kIo;
  } else if (c.inflight == 0 && c.done.empty()) {
    want = D::kIdle;
  }
  // Whole-operation discipline: a deadline already in the wanted mode is
  // left running — a peer trickling one byte per tick cannot extend it.
  if (want == c.dl) return;
  c.dl = want;
  switch (want) {
    case D::kNone:
      wheel_.cancel(c.id);
      break;
    case D::kIdle:
      if (cfg_.idle_timeout_ms >= 0) {
        wheel_.schedule_in(c.id, cfg_.idle_timeout_ms, Clock::now());
      } else {
        wheel_.cancel(c.id);
      }
      break;
    case D::kIo:
      if (cfg_.io_timeout_ms >= 0) {
        wheel_.schedule_in(c.id, cfg_.io_timeout_ms, Clock::now());
      } else {
        wheel_.cancel(c.id);
      }
      break;
  }
}

void Server::update_epoll(Conn& c) {
  const std::uint32_t want =
      (c.reading && !c.closing ? EPOLLIN : 0u) |
      (c.want_write ? EPOLLOUT : 0u);
  if (want == c.ep_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = c.id;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.sock.fd(), &ev);
  c.ep_events = want;
}

void Server::begin_drain() {
  draining_ = true;
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(
                         cfg_.drain_timeout_ms >= 0 ? cfg_.drain_timeout_ms
                                                    : 0);
  listener_.close();
  // Wake subscriber streams: their next pump observes kStopped and winds
  // the stream down.
  journal_.request_stop();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, c] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    c.reading = false;  // no new frames; dispatched work finishes
    update_epoll(c);
    if (!pending_out(c) && c.inflight == 0 && c.done.empty()) {
      close_conn(id);
    } else {
      flush_out(c);
    }
  }
}

void Server::handle_expired(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.closing) {
    // The grace allowance for flushing the farewell ERROR frame blew too.
    close_conn(id);
    return;
  }
  switch (c.dl) {
    case Conn::Deadline::kIdle:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      error_close(c, "idle timeout: closing connection");
      break;
    case Conn::Deadline::kIo:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      error_close(c, "request deadline exceeded: closing connection");
      break;
    case Conn::Deadline::kNone:
      break;  // stale fire after a mode change — ignore
  }
}

// ---------------------------------------------------------- mutation worker --

void Server::post_completion(Completion comp) {
  std::lock_guard<std::mutex> lock(comp_mu_);
  comp_queue_.push_back(std::move(comp));
}

void Server::mutation_loop() {
  for (;;) {
    std::vector<PendingOp> group;
    bool barrier = false;
    {
      std::unique_lock<std::mutex> lock(mut_mu_);
      mut_cv_.wait(lock, [&] { return mut_stop_ || !mut_queue_.empty(); });
      if (mut_stop_) return;
      group.push_back(std::move(mut_queue_.front()));
      mut_queue_.pop_front();
      if (!coalescable(group.front().req)) {
        barrier = true;
      } else {
        // Coalesce every mutation that queued while the previous commit
        // was in flight, up to the next barrier.
        while (!mut_queue_.empty() && coalescable(mut_queue_.front().req)) {
          group.push_back(std::move(mut_queue_.front()));
          mut_queue_.pop_front();
        }
      }
    }
    if (barrier) {
      exec_barrier(std::move(group.front()));
    } else {
      exec_group(std::move(group));
    }
    wake_reactor();
  }
}

void Server::exec_group(std::vector<PendingOp>&& ops) {
  std::vector<Completion> out;
  out.reserve(ops.size());
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (role() != Role::kPrimary || fenced()) {
      const NotPrimaryResponse np = not_primary_locked();
      for (PendingOp& op : ops) {
        out.push_back(Completion{op.conn_id, op.seq,
                                 encode_response(Response{np})});
      }
    } else {
      // One engine commit group (a single ADMIT or REMOVE is a group of
      // one, an ADMIT_BATCH a group of its flows): one snapshot publish,
      // one journal frame.
      struct OpResult {
        enum class Kind { kAdmit, kRemove, kBatch, kError } kind =
            Kind::kError;
        bool ok = false;
        std::vector<std::uint8_t> bits;
        std::string error;
      };
      const std::shared_ptr<engine::AnalysisEngine> eng = engine();
      std::vector<OpResult> results(ops.size());
      DeltaResponse delta;
      delta.kind = DeltaKind::kBatch;
      std::size_t committed = 0;
      eng->begin_batch();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        OpResult& r = results[i];
        try {
          if (auto* admit = std::get_if<AdmitRequest>(&ops[i].req)) {
            r.kind = OpResult::Kind::kAdmit;
            gmf::Flow journal_flow = admit->flow;
            r.ok = eng->try_admit_lean(std::move(admit->flow));
            if (r.ok) {
              delta.ops.push_back(DeltaOp{DeltaKind::kAdmit,
                                          std::move(journal_flow), 0});
              ++committed;
            }
          } else if (auto* rem = std::get_if<RemoveRequest>(&ops[i].req)) {
            r.kind = OpResult::Kind::kRemove;
            r.ok = eng->remove_flow(static_cast<std::size_t>(rem->index));
            if (r.ok) {
              delta.ops.push_back(
                  DeltaOp{DeltaKind::kRemove, gmf::Flow{}, rem->index});
              ++committed;
            }
          } else {
            auto& batch = std::get<AdmitBatchRequest>(ops[i].req);
            r.kind = OpResult::Kind::kBatch;
            r.bits.reserve(batch.flows.size());
            for (gmf::Flow& flow : batch.flows) {
              gmf::Flow journal_flow = flow;
              const bool ok = eng->try_admit_lean(std::move(flow));
              r.bits.push_back(ok ? 1 : 0);
              if (ok) {
                delta.ops.push_back(DeltaOp{DeltaKind::kAdmit,
                                            std::move(journal_flow), 0});
                ++committed;
              }
            }
          }
        } catch (const std::exception& e) {
          r.kind = OpResult::Kind::kError;
          r.error = e.what();
        }
      }
      // One publication for the group.  Only an admitted ADMIT's reply
      // carries the whole-set result, so only then is it assembled.
      std::shared_ptr<const engine::EngineSnapshot> final_snap;
      std::string end_error;
      try {
        final_snap = eng->snapshot();
      } catch (const std::exception& e) {
        end_error = e.what();
      }
      if (committed > 0 && end_error.empty()) {
        journal_commit_locked(std::move(delta));
        for (std::size_t k = 0; k < committed; ++k) note_mutation_locked();
      }
      if (ops.size() > 1) {
        coalesced_.fetch_add(ops.size() - 1, std::memory_order_relaxed);
      }
      const std::uint64_t flows_after = eng->flow_count();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpResult& r = results[i];
        Response resp;
        if (!end_error.empty()) {
          resp = ErrorResponse{end_error};
        } else {
          switch (r.kind) {
            case OpResult::Kind::kAdmit: {
              AdmitResponse admit;
              if (r.ok && final_snap != nullptr) {
                // Coalescing semantics: every admitted flow in the group
                // receives the end-of-group committed result.
                admit.result = final_snap->result();
              }
              resp = std::move(admit);
              break;
            }
            case OpResult::Kind::kRemove:
              resp = RemoveResponse{r.ok};
              break;
            case OpResult::Kind::kBatch: {
              AdmitBatchResponse batch;
              batch.admitted = r.bits;
              batch.flows_after = flows_after;
              resp = std::move(batch);
              break;
            }
            case OpResult::Kind::kError:
              resp = ErrorResponse{r.error};
              break;
          }
        }
        out.push_back(
            Completion{ops[i].conn_id, ops[i].seq, encode_response(resp)});
      }
    }
  }
  for (Completion& comp : out) post_completion(std::move(comp));
}

void Server::exec_barrier(PendingOp&& op) {
  if (std::holds_alternative<SubscribeRequest>(op.req)) {
    exec_subscribe(std::move(op));
    return;
  }
  Completion comp{op.conn_id, op.seq, std::string{}};
  Response resp;
  try {
    if (std::holds_alternative<StatsRequest>(op.req)) {
      // Counter reads are lock-free, but STATS still rides the mutation
      // queue: a STATS pipelined behind an ADMIT must observe it
      // (read-your-writes per connection, as the thread-per-connection
      // server gave).
      resp = build_stats();
    } else if (std::holds_alternative<SaveCheckpointRequest>(op.req)) {
      std::lock_guard<std::mutex> lock(writer_mu_);
      std::ostringstream os;
      engine()->save(os);
      resp = SaveCheckpointResponse{std::move(os).str()};
    } else if (auto* restore = std::get_if<RestoreRequest>(&op.req)) {
      std::lock_guard<std::mutex> lock(writer_mu_);
      if (role() != Role::kPrimary || fenced()) {
        resp = not_primary_locked();
      } else {
        std::istringstream is(restore->checkpoint);
        std::shared_ptr<engine::AnalysisEngine> fresh =
            engine::AnalysisEngine::restore_unique(is, cfg_.engine_opts);
        std::atomic_store(&engine_, std::move(fresh));
        DeltaResponse delta;
        delta.kind = DeltaKind::kRestore;
        delta.checkpoint = std::move(restore->checkpoint);
        journal_commit_locked(std::move(delta));
        note_mutation_locked();
        resp = RestoreResponse{engine()->flow_count()};
      }
    } else if (std::holds_alternative<ShutdownRequest>(op.req)) {
      // The stop fires once the acknowledgement is flushed to the peer
      // (Completion::stop_after), upholding "acknowledged before the
      // daemon winds down".
      resp = ShutdownResponse{};
      comp.stop_after = true;
    } else if (std::holds_alternative<PromoteRequest>(op.req)) {
      resp = PromoteResponse{promote()};
    } else if (std::holds_alternative<RoleRequest>(op.req)) {
      std::lock_guard<std::mutex> lock(writer_mu_);
      resp = role_response_locked();
    } else if (auto* repoint = std::get_if<RepointRequest>(&op.req)) {
      // Throws invalid_argument on a malformed address → the catch below
      // turns it into ErrorResponse, state untouched.
      (void)parse_primary_addr(repoint->primary_addr);
      std::lock_guard<std::mutex> lock(writer_mu_);
      if (role() != Role::kReplica || repl_ == nullptr) {
        resp = ErrorResponse{"repoint: this daemon is not a replica"};
      } else {
        repl_->pause();
        repl_->resume(repoint->primary_addr);
        resp = role_response_locked();
      }
    } else {
      resp = ErrorResponse{"unsupported request"};
    }
  } catch (const std::exception& e) {
    // Engine/semantic failure executing a well-framed request: report it,
    // keep the connection (and the resident set) intact.
    resp = ErrorResponse{e.what()};
    comp.stop_after = false;
  }
  comp.frame = encode_response(resp);
  post_completion(std::move(comp));
}

void Server::exec_subscribe(PendingOp&& op) {
  const auto& sub = std::get<SubscribeRequest>(op.req);
  Completion comp{op.conn_id, op.seq, std::string{}};
  if (sub.epoch > epoch()) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    std::uint64_t cur = peer_epoch_.load(std::memory_order_relaxed);
    while (sub.epoch > cur &&
           !peer_epoch_.compare_exchange_weak(cur, sub.epoch,
                                              std::memory_order_acq_rel)) {
    }
    if (role() == Role::kPrimary &&
        sub.epoch > epoch_.load(std::memory_order_relaxed) && !fenced()) {
      // The fence, passive direction: a subscriber living in a later
      // epoch proves a newer primary was promoted somewhere.  This
      // daemon must never commit again — split-brain ends here.
      fenced_.store(true, std::memory_order_release);
      GMFNET_LOG_ERROR(
          "rpc server: fenced — subscriber at epoch %llu outranks our "
          "epoch %llu; refusing mutations until promoted",
          static_cast<unsigned long long>(sub.epoch),
          static_cast<unsigned long long>(
              epoch_.load(std::memory_order_relaxed)));
    }
  }
  {
    std::unique_lock<std::mutex> lock(writer_mu_);
    if (role() != Role::kPrimary || fenced()) {
      const NotPrimaryResponse np = not_primary_locked();
      lock.unlock();
      comp.frame = encode_response(Response{np});
      comp.close_after = true;
      post_completion(std::move(comp));
      return;
    }
  }
  // Journal catch-up needs the EXACT history: same token (not a restarted
  // primary whose fresh sequence numbers merely collide), same epoch, and
  // a position the bounded journal still covers.  Anything else gets the
  // whole world — degrading to a full sync is always safe.
  const bool catch_up =
      sub.history == history_token_ && sub.epoch == epoch() &&
      sub.next_seq >= journal_.first_seq() &&
      sub.next_seq <= journal_.next_seq();
  if (catch_up) {
    comp.frame = encode_response(
        Response{SubscribeResponse{epoch(), sub.next_seq}});
    comp.sub_next = sub.next_seq;
  } else {
    SyncFullResponse full;
    {
      std::lock_guard<std::mutex> lock(writer_mu_);
      std::ostringstream os;
      engine()->save(os);
      full.checkpoint = std::move(os).str();
      full.epoch = epoch_.load(std::memory_order_relaxed);
      full.commit_seq = commit_seq_.load(std::memory_order_relaxed);
      full.history = history_token_;
    }
    comp.sub_next = full.commit_seq + 1;
    // The (possibly large) blob is encoded here but streamed by the
    // reactor's buffered writer: a slow replica link never stalls the
    // mutation path.
    comp.frame = encode_response(Response{std::move(full)});
  }
  comp.sub_start = true;
  post_completion(std::move(comp));
}

void Server::note_mutation_locked() {
  const std::size_t n = mutations_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_path.empty() &&
      n % cfg_.checkpoint_every == 0) {
    try {
      write_checkpoint_locked();
    } catch (const std::exception& e) {
      // An auto-checkpoint failure must not fail the mutation that
      // triggered it (the admission itself committed fine); the previous
      // checkpoint generation is still on disk thanks to the atomic
      // writer.
      GMFNET_LOG_WARN("rpc server: auto-checkpoint failed: %s", e.what());
    }
  }
}

void Server::write_checkpoint_locked() {
  io::AtomicFileWriter writer(cfg_.checkpoint_path, /*keep_previous=*/true);
  engine()->save(writer.stream());
  writer.commit();
}

// --------------------------------------------------------------- replication

void Server::journal_commit_locked(DeltaResponse&& delta) {
  const std::uint64_t seq =
      commit_seq_.load(std::memory_order_relaxed) + 1;
  delta.epoch = epoch_.load(std::memory_order_relaxed);
  delta.seq = seq;
  delta.flows_after = engine()->flow_count();
  // Encoded ONCE here; every subscriber streams the same frame bytes.
  journal_.append(seq, encode_response(Response{std::move(delta)}));
  commit_seq_.store(seq, std::memory_order_release);
}

NotPrimaryResponse Server::not_primary_locked() {
  NotPrimaryResponse np;
  np.epoch = epoch_.load(std::memory_order_relaxed);
  if (repl_) np.primary_addr = repl_->primary_addr();
  return np;
}

RoleResponse Server::role_response_locked() {
  RoleResponse r;
  r.role = role();
  r.fenced = fenced();
  r.epoch = epoch();
  r.commit_seq = commit_seq();
  if (repl_) {
    r.primary_addr = repl_->primary_addr();
    r.connected = repl_->connected();
    r.full_syncs = repl_->full_syncs();
    r.deltas_applied = repl_->deltas_applied();
  }
  r.subscribers = subscribers_.load(std::memory_order_relaxed);
  r.journal_begin = journal_.first_seq();
  r.journal_end = journal_.next_seq() - 1;  // begin - 1 when empty
  return r;
}

std::uint64_t Server::promote() {
  std::unique_ptr<ReplicationClient> old;
  std::uint64_t fresh_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (role() == Role::kPrimary && !fenced()) {
      // Idempotent: re-promoting the live primary must not fence anyone.
      return epoch_.load(std::memory_order_acquire);
    }
    // Outrank every history this daemon has ever seen — its own and any
    // peer that subscribed or synced to it.
    fresh_epoch = std::max(epoch_.load(std::memory_order_relaxed),
                           peer_epoch_.load(std::memory_order_relaxed)) +
                  1;
    epoch_.store(fresh_epoch, std::memory_order_release);
    // History before the promotion is not streamable under the new
    // epoch; every subscriber starts from here (or from a full sync).
    journal_.reset(commit_seq_.load(std::memory_order_relaxed) + 1);
    role_.store(static_cast<std::uint8_t>(Role::kPrimary),
                std::memory_order_release);
    fenced_.store(false, std::memory_order_release);
    old = std::move(repl_);
  }
  // Stopping the subscription joins its thread, which may be blocked on
  // writer_mu_ inside an apply hook — MUST happen outside the lock.  The
  // hook re-checks the role under the lock and refuses (kStale) now.
  if (old) old->stop();
  GMFNET_LOG_WARN("rpc server: promoted to primary at epoch %llu",
                  static_cast<unsigned long long>(fresh_epoch));
  return fresh_epoch;
}

void Server::replica_full_sync(const SyncFullResponse& full) {
  // Build the fresh engine outside the writer lock (checkpoint restore is
  // the expensive part), swap under it.
  std::istringstream is(full.checkpoint);
  std::shared_ptr<engine::AnalysisEngine> fresh =
      engine::AnalysisEngine::restore_unique(is, cfg_.engine_opts);
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (role() != Role::kReplica) {
    // Promoted while the sync was in flight — the new primary's state
    // must not be overwritten by its old upstream.
    throw std::runtime_error("full sync refused: no longer a replica");
  }
  std::atomic_store(&engine_, std::move(fresh));
  epoch_.store(full.epoch, std::memory_order_release);
  commit_seq_.store(full.commit_seq, std::memory_order_release);
  upstream_history_.store(full.history, std::memory_order_release);
  note_mutation_locked();
}

ApplyResult Server::replica_apply(const DeltaResponse& delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (role() != Role::kReplica) return ApplyResult::kStale;
  const std::uint64_t our_epoch = epoch_.load(std::memory_order_relaxed);
  if (delta.epoch < our_epoch) return ApplyResult::kStale;
  if (delta.epoch > our_epoch ||
      delta.seq != commit_seq_.load(std::memory_order_relaxed) + 1) {
    return ApplyResult::kGap;
  }
  const std::shared_ptr<engine::AnalysisEngine> eng = engine();
  switch (delta.kind) {
    case DeltaKind::kAdmit:
      // Single-op deltas come from older primaries' journals (a lone
      // mutation now travels as a one-op kBatch).  The primary only
      // journals flows try_admit COMMITTED, and the
      // engine is deterministic: add_flow + evaluate reproduces the
      // primary's post-admission world bit for bit (the equivalence
      // guarantee the engine test suite holds it to).
      (void)eng->add_flow(delta.flow);
      (void)eng->snapshot();
      break;
    case DeltaKind::kRemove:
      if (!eng->remove_flow(static_cast<std::size_t>(delta.index))) {
        return ApplyResult::kGap;  // divergence — resync
      }
      (void)eng->snapshot();
      break;
    case DeltaKind::kRestore: {
      std::istringstream is(delta.checkpoint);
      std::shared_ptr<engine::AnalysisEngine> fresh =
          engine::AnalysisEngine::restore_unique(is, cfg_.engine_opts);
      std::atomic_store(&engine_, std::move(fresh));
      break;
    }
    case DeltaKind::kBatch:
      // A coalesced commit group: apply the ops in order, evaluate ONCE
      // at the end — the replica coalesces exactly like its primary did.
      for (const DeltaOp& op : delta.ops) {
        if (op.kind == DeltaKind::kAdmit) {
          (void)eng->add_flow(op.flow);
        } else if (op.kind == DeltaKind::kRemove) {
          if (!eng->remove_flow(static_cast<std::size_t>(op.index))) {
            return ApplyResult::kGap;  // divergence — resync
          }
        } else {
          return ApplyResult::kGap;  // malformed group — resync
        }
      }
      (void)eng->snapshot();
      break;
  }
  if (engine()->flow_count() != delta.flows_after) {
    // Tripwire: local state disagrees with the primary's after-image.
    // The state is already perturbed, but kGap forces a full resync that
    // replaces it wholesale — divergence never survives.
    return ApplyResult::kGap;
  }
  commit_seq_.store(delta.seq, std::memory_order_release);
  note_mutation_locked();
  return ApplyResult::kApplied;
}

}  // namespace gmfnet::rpc
