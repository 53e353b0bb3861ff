// gmfnetd: the operator daemon serving one AnalysisEngine over the
// rpc/protocol wire format (Unix-domain or loopback TCP socket).
//
// Concurrency model — an epoll reactor in front of the PR 3 engine
// contract:
//
//  * One reactor thread (the serve() caller) owns the listener, an epoll
//    set and every connection's state machine: non-blocking reads feed an
//    incremental frame decoder, responses accumulate in per-connection
//    write buffers flushed as the socket allows (EPOLLOUT only while a
//    partial write is pending), and the PR 7 io/idle deadlines are timer-
//    wheel entries instead of per-thread blocking polls.  One thread
//    services hundreds of connections.
//
//  * Clients may PIPELINE: many request frames may be in flight on one
//    connection before the first response arrives.  Responses are always
//    delivered in request order per connection — completions that finish
//    out of order are buffered until the contiguous prefix is ready.
//
//  * WHAT_IF_BATCH takes no lock at all: probes run against the engine's
//    published EngineSnapshot (the RCU read path), so they never block a
//    writer performing admissions, and vice versa.  Small batches (<= 2
//    candidates — the dominant operator pattern) probe inline on the
//    reactor thread, which skips a pool hand-off and lets the response
//    join the current write batch, but holds the reactor for the probe
//    (~40 us to ~0.9 ms in-process; see Server::dispatch_what_if); fat
//    batches fan their candidates over a reader thread pool.  A request
//    with verdict_only set gets lean responses — the admission verdict
//    and summary fields without the O(world) per-flow payload, whose
//    serialization would otherwise dwarf the probe itself.
//
//  * Mutating requests flow through ONE mutation worker thread.  The
//    worker drains its queue in arrival order and COALESCES adjacent
//    ADMIT / REMOVE / ADMIT_BATCH frames that queued up while the
//    previous commit was in flight into a single engine commit group
//    (AnalysisEngine::begin_batch / try_admit_lean / end_batch): one
//    snapshot publish and one replication DELTA frame per group instead
//    of one per mutation.  A lone mutation is a group of one (journalled
//    as a one-op batch DELTA); replicas still apply the single-op
//    ADMIT/REMOVE deltas that older primaries journal.
//    Non-coalescable mutations (RESTORE, SAVE_CHECKPOINT, PROMOTE, ROLE,
//    REPOINT, SUBSCRIBE setup, SHUTDOWN) are barriers: they split groups
//    and execute alone.  All of it under the same writer mutex the
//    replication hooks use, so the engine still sees exactly one writer.
//
//  * RESTORE swaps the whole engine behind an atomic shared_ptr: readers
//    that loaded the old engine finish their probes against its (still
//    immutable) snapshots, later requests see the restored world.
//
// A malformed frame closes that connection (the stream can no longer be
// trusted) without disturbing the daemon or other connections.
//
// Robustness contract — no peer can pin daemon resources indefinitely:
//
//  * Deadline I/O.  A peer that starts a frame and stalls (slow-loris),
//    or stops reading while responses are pending, is sent a best-effort
//    ERROR frame and disconnected when io_timeout_ms expires.  A peer
//    idle between requests past idle_timeout_ms is likewise disconnected.
//    Deadlines are wheel entries: arming/cancelling is O(1) and expiry is
//    checked once per reactor tick.
//
//  * Connection cap.  At most max_connections concurrent connections;
//    when a new one arrives at the cap, the connection idle the longest
//    is shed to make room (operator tooling reconnects; a leaked
//    connection must not starve the daemon).
//
//  * Accept resilience.  Transient accept failures (EMFILE/ENFILE fd
//    exhaustion, backlog aborts) back the accept loop off with a capped
//    exponential delay instead of killing the listener.
//
//  * Graceful drain.  request_drain() (SIGTERM in gmfnetd) stops
//    accepting, stops reading new frames, lets dispatched requests finish
//    and their responses flush up to drain_timeout_ms, force-closes
//    stragglers, then — like every serve() exit when checkpoint_path is
//    set — writes a final crash-safe checkpoint.
//
//  * Crash-safe persistence.  Auto-checkpoints (every checkpoint_every
//    committed mutations) and the final checkpoint go through
//    io::AtomicFileWriter with rotation: the newest valid checkpoint is
//    always recoverable at checkpoint_path or checkpoint_path + ".prev",
//    no matter when the process dies.
//
// Replication (rpc/replication.hpp has the full protocol story):
//
//  * A primary stamps every committed mutation (or coalesced group, as
//    one kBatch delta) with (epoch, commit_seq), journals it as a
//    pre-encoded DELTA frame, and streams the journal to SUBSCRIBE
//    connections.  Subscriber streams are reactor-managed long-lived
//    writers: the reactor pumps journal frames into their write buffers
//    (bounded — a slow replica pauses its own stream, never the daemon)
//    as commits land.  A subscriber whose position the bounded journal
//    cannot cover gets a full checkpoint (SYNC_FULL) first.
//
//  * A replica (cfg.replica_of set) runs a ReplicationClient that applies
//    those frames under the same writer mutex as local mutations would
//    use, keeping published() fresh after every applied delta — replicas
//    serve WHAT_IF_BATCH / STATS exactly like a primary serves them.
//    Mutations are refused with NOT_PRIMARY (carrying the upstream's
//    address).
//
//  * PROMOTE turns a replica into a primary and bumps the epoch above
//    any epoch it has ever seen; an ex-primary that observes a subscriber
//    from a higher epoch fences itself (mutations refused) — two daemons
//    can never both commit on the same epoch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "rpc/protocol.hpp"
#include "rpc/replication.hpp"
#include "rpc/timer_wheel.hpp"
#include "rpc/transport.hpp"
#include "util/thread_pool.hpp"

namespace gmfnet::rpc {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path.  Empty: listen on
  /// tcp_host:tcp_port.
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral (read back via tcp_port())
  std::size_t reader_threads = 0;  ///< what-if pool size (0 = hardware)
  /// Must equal the options the engine was built with; RESTORE rebuilds
  /// the engine under these (the checkpoint's option fingerprint is
  /// validated against them).
  core::HolisticOptions engine_opts;

  /// Whole-operation deadline for a peer stalled mid-frame or not reading
  /// its responses (kNoTimeout = never).
  int io_timeout_ms = 30'000;
  /// Allowance for a connection sitting idle between requests
  /// (kNoTimeout = keep idle connections forever).
  int idle_timeout_ms = 120'000;
  /// Max concurrent connections (0 = unlimited); at the cap the
  /// oldest-idle connection is shed to admit the new one.
  std::size_t max_connections = 1024;
  /// How long request_drain() waits for in-flight requests before
  /// force-closing their connections.
  int drain_timeout_ms = 5'000;
  /// Non-empty: serve() exits (and auto-checkpoints, see below) write the
  /// engine state here via io::AtomicFileWriter with .prev rotation.
  std::string checkpoint_path;
  /// With checkpoint_path: also checkpoint after every N committed
  /// mutations (0 = only the final checkpoint).
  std::size_t checkpoint_every = 0;
  /// Frames one connection may have in flight (decoded, response not yet
  /// flushed) before the reactor stops reading from it until the pipeline
  /// drains (backpressure, not an error).
  std::size_t max_pipeline = 1024;

  // ----------------------------------------------------------- replication --
  /// Non-empty ("unix:PATH" or "HOST:PORT"): start as a replica of that
  /// primary.  Empty: start as a primary.
  std::string replica_of;
  /// Primary: DELTA frames the in-memory journal retains.  A replica
  /// that falls further behind recovers via full sync instead.
  std::size_t journal_capacity = 1024;
  /// Replication-link deadlines and reconnect backoff (replica side).
  int repl_connect_timeout_ms = 5'000;
  int repl_io_timeout_ms = 30'000;
  int repl_backoff_initial_ms = 20;
  int repl_backoff_max_ms = 2'000;
  std::uint64_t repl_backoff_seed = 0;  ///< 0 = derive from the clock
  /// Non-null: installed on the replication thread, so chaos tests can
  /// storm the replication link while operator links stay clean.  Must
  /// outlive the server.
  FaultInjector* repl_fault = nullptr;
};

class Server {
 public:
  /// Binds and listens (throws TransportError on failure); serve() then
  /// accepts connections.  The engine must have been constructed with
  /// `cfg.engine_opts` (its hop options and pass cap), since RESTORE
  /// rebuilds it under them.
  Server(std::shared_ptr<engine::AnalysisEngine> engine, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound TCP port (meaningful when listening on TCP).
  [[nodiscard]] std::uint16_t tcp_port() const { return listener_.port(); }
  [[nodiscard]] const std::string& unix_path() const {
    return listener_.unix_path();
  }

  /// The reactor loop; returns after a SHUTDOWN request, request_stop(),
  /// or request_drain() once every connection has wound down (drain gives
  /// in-flight requests cfg.drain_timeout_ms first).
  void serve();

  /// Asks a running serve() to wind down (safe from any thread).
  void request_stop();
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Graceful wind-down (safe from any thread, e.g. a signal watcher):
  /// stop accepting, drain in-flight requests up to cfg.drain_timeout_ms,
  /// write the final checkpoint, return from serve().
  void request_drain();
  [[nodiscard]] bool drain_requested() const {
    return drain_.load(std::memory_order_acquire);
  }

  /// The currently served engine (atomic shared_ptr load — safe from any
  /// thread; RESTORE swaps it).
  [[nodiscard]] std::shared_ptr<engine::AnalysisEngine> engine() const {
    return std::atomic_load(&engine_);
  }

  // Observability for tests and operators.
  [[nodiscard]] std::size_t live_connections() const {
    return active_conns_.load(std::memory_order_acquire);
  }
  /// Connections dropped to make room at the max_connections cap.
  [[nodiscard]] std::size_t shed_connections() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for a blown io/idle deadline.
  [[nodiscard]] std::size_t timed_out_connections() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  /// Committed mutations (ADMIT that admitted, REMOVE that removed,
  /// RESTORE) — the auto-checkpoint cadence counter.
  [[nodiscard]] std::size_t committed_mutations() const {
    return mutations_.load(std::memory_order_relaxed);
  }
  /// Request frames decoded and dispatched over the server's lifetime.
  [[nodiscard]] std::uint64_t frames_served() const {
    return frames_served_.load(std::memory_order_relaxed);
  }
  /// Mutations folded into a coalesced commit group beyond each group's
  /// first (0 = every commit was solo).
  [[nodiscard]] std::uint64_t coalesced_commits() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// High-water mark of frames in flight on one connection (pipelining
  /// depth actually reached).
  [[nodiscard]] std::uint64_t pipelined_hwm() const {
    return pipelined_hwm_.load(std::memory_order_relaxed);
  }
  /// True when serve() wound down abnormally (persistent accept failure)
  /// rather than via SHUTDOWN / request_stop / request_drain — gmfnetd
  /// turns this into a distinct exit status.
  [[nodiscard]] bool abnormal_stop() const {
    return abnormal_.load(std::memory_order_acquire);
  }

  // Replication observability (all safe from any thread).
  [[nodiscard]] Role role() const {
    return static_cast<Role>(role_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool fenced() const {
    return fenced_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t commit_seq() const {
    return commit_seq_.load(std::memory_order_acquire);
  }
  /// The replica's subscription loop, for tests that pause/inspect it
  /// (null on a primary).
  [[nodiscard]] ReplicationClient* replication_client() {
    return repl_.get();
  }
  /// Promotes this daemon to primary (idempotent on an unfenced primary):
  /// bumps the epoch above every epoch it has ever seen, restarts the
  /// journal at the current position, and stops the replication client.
  /// Returns the new epoch.
  std::uint64_t promote();

 private:
  /// One connection's reactor state machine.  Owned and touched by the
  /// reactor thread only; other threads reach a connection exclusively by
  /// posting a Completion keyed by its id.
  struct Conn {
    std::uint64_t id = 0;
    Socket sock;
    std::string in_buf;       ///< unparsed inbound bytes
    std::size_t in_off = 0;   ///< parse cursor into in_buf
    std::string out_buf;      ///< encoded responses awaiting the socket
    std::size_t out_off = 0;  ///< flush cursor into out_buf
    /// Pipelining bookkeeping: requests get per-connection sequence
    /// numbers at decode; completions buffer in `done` until the
    /// contiguous prefix starting at flush_seq is ready.
    std::uint64_t next_seq = 0;
    std::uint64_t flush_seq = 0;
    std::map<std::uint64_t, std::string> done;
    std::size_t inflight = 0;  ///< dispatched, response not yet in out_buf
    std::int64_t last_active_ms = 0;  ///< shedding order key
    bool reading = true;       ///< wants EPOLLIN
    bool want_write = false;   ///< wants EPOLLOUT (partial write pending)
    std::uint32_t ep_events = 0;     ///< events currently registered
    bool closing = false;      ///< flush out_buf, then close
    bool stop_when_flushed = false;  ///< SHUTDOWN acked: stop after flush
    bool subscriber = false;         ///< live delta stream
    bool sub_pending = false;        ///< SUBSCRIBE dispatched, not yet set up
    std::uint64_t sub_next = 0;      ///< next journal seq to stream
    /// Response sequence numbers that trigger an action the moment that
    /// response is appended to out_buf (kNoSeq = unarmed): stop the
    /// daemon (SHUTDOWN), close the connection (refused SUBSCRIBE), or
    /// enter subscriber stream mode (accepted SUBSCRIBE).
    static constexpr std::uint64_t kNoSeq = ~0ull;
    std::uint64_t stop_seq = kNoSeq;
    std::uint64_t close_seq = kNoSeq;
    std::uint64_t sub_seq = kNoSeq;
    std::uint64_t pending_sub_next = 0;
    enum class Deadline { kNone, kIdle, kIo } dl = Deadline::kNone;
  };

  /// A decoded mutation/barrier request queued for the mutation worker.
  struct PendingOp {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Request req;
  };

  /// A finished response traveling back to the reactor thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;  ///< encoded Response
    bool stop_after = false;   ///< SHUTDOWN: request_stop once flushed
    bool close_after = false;  ///< refused SUBSCRIBE: close once flushed
    bool sub_start = false;    ///< accepted SUBSCRIBE: enter stream mode
    std::uint64_t sub_next = 0;
  };

  // ------------------------------------------------ reactor (serve thread) --
  void reactor_loop();
  void accept_ready(int& consecutive_failures, int& backoff_ms,
                    std::vector<std::string>& accept_errors);
  void add_conn(Socket sock);
  void close_conn(std::uint64_t id);
  void shed_oldest_idle();
  void on_readable(Conn& c);
  void parse_frames(Conn& c);
  void dispatch(Conn& c, Request&& req);
  void dispatch_what_if(std::uint64_t conn_id, std::uint64_t seq,
                        WhatIfBatchRequest&& req);
  [[nodiscard]] StatsResponse build_stats();
  /// Buffers a completed response for in-order flushing.  Appends to
  /// out_buf only: the caller owes one flush_out() per delivery batch, so
  /// responses that complete together leave in one send.
  void deliver(Conn& c, std::uint64_t seq, std::string frame);
  void flush_out(Conn& c);
  void pump_completions();
  void pump_subscribers();
  /// Queues a best-effort ERROR frame and puts the connection on the
  /// flush-then-close path with a short grace deadline.
  void error_close(Conn& c, const std::string& message);
  void update_deadline(Conn& c);
  /// Syncs the epoll registration to (reading, want_write).
  void update_epoll(Conn& c);
  void begin_drain();
  void handle_expired(std::uint64_t id);
  [[nodiscard]] bool pending_out(const Conn& c) const {
    return c.out_off < c.out_buf.size();
  }

  // --------------------------------------------- mutation worker (1 thread) --
  void mutation_loop();
  void exec_barrier(PendingOp&& op);
  void exec_group(std::vector<PendingOp>&& ops);
  void exec_subscribe(PendingOp&& op);
  void post_completion(Completion c);
  void wake_reactor();

  /// Journals one committed mutation as a DELTA frame and advances
  /// commit_seq_.  Caller holds writer_mu_ and has already applied the
  /// mutation to the engine.
  void journal_commit_locked(DeltaResponse&& delta);
  /// The NOT_PRIMARY answer for a mutation refused on this daemon.
  /// Caller holds writer_mu_ (it reads repl_).
  [[nodiscard]] NotPrimaryResponse not_primary_locked();
  /// Caller holds writer_mu_ (it reads repl_).
  [[nodiscard]] RoleResponse role_response_locked();
  /// Replica side: install a full checkpoint / apply one delta (the
  /// ReplicationClient hooks; both take writer_mu_ themselves).
  void replica_full_sync(const SyncFullResponse& full);
  [[nodiscard]] ApplyResult replica_apply(const DeltaResponse& delta);
  /// Counts a committed mutation and auto-checkpoints on cadence.
  /// Caller holds writer_mu_.
  void note_mutation_locked();
  /// Atomic (temp + fsync + rename + dir fsync, with .prev rotation)
  /// checkpoint to cfg_.checkpoint_path.  Caller holds writer_mu_.
  void write_checkpoint_locked();

  ServerConfig cfg_;
  Listener listener_;
  /// Accessed only via std::atomic_load / std::atomic_store (see
  /// engine/analysis_engine.hpp on why the free functions, not
  /// std::atomic<shared_ptr>).
  std::shared_ptr<engine::AnalysisEngine> engine_;
  std::mutex writer_mu_;  ///< serializes engine mutation (worker + repl hooks)

  // Cross-thread plumbing.  Declared before readers_ so worker tasks that
  // outlive the reactor loop still find them alive at destruction time.
  std::mutex comp_mu_;
  std::vector<Completion> comp_queue_;
  std::mutex mut_mu_;
  std::condition_variable mut_cv_;
  std::deque<PendingOp> mut_queue_;
  bool mut_stop_ = false;  ///< guarded by mut_mu_
  int wake_fd_ = -1;       ///< eventfd: workers → reactor

  ThreadPool readers_;  ///< fans WHAT_IF_BATCH candidates
  /// Warm per-probe scratches for reader tasks (internally synchronized).
  engine::ProbeScratchPool conn_scratch_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<bool> abnormal_{false};
  std::atomic<std::size_t> active_conns_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> timeouts_{0};
  std::atomic<std::size_t> mutations_{0};
  std::atomic<std::uint64_t> frames_served_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> pipelined_hwm_{0};

  // Reactor-thread-only state (no locks: one owner).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Closed connections parked until the end of the loop iteration, so a
  /// Conn& on the call stack stays valid through a close.
  std::vector<std::unique_ptr<Conn>> dead_;
  std::uint64_t next_conn_id_ = 16;  ///< ids below 16 are epoll sentinels
  int epoll_fd_ = -1;
  TimerWheel wheel_{/*tick_ms=*/20};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  // ----------------------------------------------------------- replication --
  /// Stored as the underlying integer so handlers can read it lock-free;
  /// transitions (promote, fence) happen under writer_mu_.
  std::atomic<std::uint8_t> role_;
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> epoch_;
  std::atomic<std::uint64_t> commit_seq_{0};
  /// Highest epoch ever seen on a peer (subscribers, upstream syncs) —
  /// promote() must clear it, so a promoted daemon outranks everyone it
  /// has ever talked to.
  std::atomic<std::uint64_t> peer_epoch_{0};
  /// This process's own history token (random per construction): journal
  /// catch-up is only offered to replicas whose position carries it.
  std::uint64_t history_token_;
  /// Replica: the history token of the primary it last synced from.
  std::atomic<std::uint64_t> upstream_history_{0};
  ReplicationLog journal_;
  /// Live SUBSCRIBE streams (observability).
  std::atomic<std::uint64_t> subscribers_{0};
  /// Guarded by writer_mu_ (created in the ctor, moved out by promote()).
  std::unique_ptr<ReplicationClient> repl_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace gmfnet::rpc
