// gmfnetd server contracts:
//
//  * Round-trip fidelity: over randomized multi-domain scenarios, ADMIT /
//    REMOVE / WHAT_IF_BATCH / STATS responses obtained through the client
//    library are bit-identical to the same calls on an in-process
//    AnalysisEngine driven through the same mutation sequence.
//
//  * Concurrency: many reader connections issuing WHAT_IF_BATCH probes
//    (lock-free snapshot reads on the daemon's reader pool) make progress
//    while a writer connection keeps admitting and removing — the soak the
//    TSan CI job runs.
//
//  * Robustness: engine-level failures come back as RemoteError with the
//    connection intact; a malformed frame drops only that connection; the
//    wire save/restore pair is the identity on the daemon's world;
//    SHUTDOWN winds the serve loop down.
//
//  * Hardening: a peer that dies mid-frame (clean close or RST) costs
//    only its own connection; a peer that stalls mid-frame is
//    disconnected within the io deadline while other connections keep
//    serving; idle connections are closed after their allowance; at the
//    connection cap the oldest-idle connection is shed; a truncated
//    server response fails the client instead of hanging it; drain
//    finishes in-flight work and leaves a restorable final checkpoint.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "io/atomic_file.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::rpc {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

void expect_bit_identical(const core::HolisticResult& a,
                          const core::HolisticResult& b,
                          const std::string& where) {
  ASSERT_EQ(a.converged, b.converged) << where;
  ASSERT_EQ(a.schedulable, b.schedulable) << where;
  ASSERT_EQ(a.sweeps, b.sweeps) << where;
  EXPECT_TRUE(a.jitters == b.jitters) << where << ": jitter maps differ";
  ASSERT_EQ(a.flows.size(), b.flows.size()) << where;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    ASSERT_EQ(a.flows[f].frames.size(), b.flows[f].frames.size()) << where;
    for (std::size_t k = 0; k < a.flows[f].frames.size(); ++k) {
      EXPECT_EQ(a.flows[f].frames[k].response, b.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
      EXPECT_EQ(a.flows[f].frames[k].meets_deadline,
                b.flows[f].frames[k].meets_deadline)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

/// A served engine on a fresh Unix socket, plus the serve thread.
class TestDaemon {
 public:
  explicit TestDaemon(const net::Network& network,
                      core::HolisticOptions opts = {}, ServerConfig cfg = {})
      : engine_(std::make_shared<engine::AnalysisEngine>(network, opts)) {
    static std::atomic<int> counter{0};
    cfg.unix_path = "/tmp/gmfnet_rpc_test_" + std::to_string(::getpid()) +
                    "_" + std::to_string(counter.fetch_add(1)) + ".sock";
    cfg.engine_opts = opts;
    server_ = std::make_unique<Server>(engine_, cfg);
    path_ = server_->unix_path();
    thread_ = std::thread([this] { server_->serve(); });
  }

  ~TestDaemon() {
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] Client connect() const { return Client::connect_unix(path_); }
  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::shared_ptr<engine::AnalysisEngine> engine_;
  std::unique_ptr<Server> server_;
  std::string path_;
  std::thread thread_;
};

/// Multi-cell star campus (several locality domains by construction).
struct Campus {
  net::Network net;
  std::vector<net::NodeId> hosts;  // cell-major
  std::vector<net::NodeId> switches;
};

Campus make_campus(int cells, int hosts_per_cell) {
  Campus c;
  for (int cell = 0; cell < cells; ++cell) {
    const net::NodeId sw = c.net.add_switch("sw" + std::to_string(cell));
    c.switches.push_back(sw);
    for (int h = 0; h < hosts_per_cell; ++h) {
      const net::NodeId host = c.net.add_endhost(
          "c" + std::to_string(cell) + "h" + std::to_string(h));
      c.net.add_duplex_link(host, sw, kSpeed);
      c.hosts.push_back(host);
    }
  }
  return c;
}

// --------------------------------------------------- round-trip fidelity --

class RpcRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcRoundTrip, MatchesInProcessEngineBitForBit) {
  const std::uint64_t seed = GetParam();
  Rng rng(0x5e7f00d5ull + seed * 0x9E3779B9ull);

  const int cells = 2 + static_cast<int>(seed % 3);
  const Campus campus = make_campus(cells, 4);

  workload::TasksetParams params;
  params.num_flows = 5 + static_cast<int>(rng.next_below(6));
  params.total_utilization = rng.uniform(0.2, 0.6);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(campus.net, campus.hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  TestDaemon daemon(campus.net);
  Client client = daemon.connect();
  engine::AnalysisEngine mirror(campus.net);  // the in-process reference

  const std::string where = "seed " + std::to_string(seed);

  // Gated admissions, remote vs in-process.
  for (const gmf::Flow& f : ts->flows) {
    const std::optional<core::HolisticResult> remote = client.admit(f);
    const std::optional<core::HolisticResult> local = mirror.try_admit(f);
    ASSERT_EQ(remote.has_value(), local.has_value()) << where;
    if (remote) expect_bit_identical(*remote, *local, where + " admit");
  }

  // A couple of removals (ids shift, domains split) — identical outcomes.
  const std::size_t removals = rng.next_below(3);
  for (std::size_t r = 0; r < removals && mirror.flow_count() > 2; ++r) {
    const auto idx =
        static_cast<std::size_t>(rng.next_below(mirror.flow_count()));
    EXPECT_EQ(client.remove(idx), mirror.remove_flow(idx)) << where;
  }
  EXPECT_FALSE(client.remove(1u << 20));  // out of range: false, not error

  // Batch what-ifs answered from the daemon's published snapshot must
  // match the same probes on the in-process engine.
  std::vector<gmf::Flow> cands(ts->flows.begin(),
                               ts->flows.begin() + 3);
  const std::vector<engine::WhatIfResult> remote_probes =
      client.what_if_batch(cands);
  const std::vector<engine::WhatIfResult> local_probes =
      mirror.evaluate_batch(cands);
  ASSERT_EQ(remote_probes.size(), local_probes.size()) << where;
  for (std::size_t i = 0; i < remote_probes.size(); ++i) {
    EXPECT_EQ(remote_probes[i].admissible, local_probes[i].admissible)
        << where;
    expect_bit_identical(remote_probes[i].result(), local_probes[i].result(),
                         where + " probe " + std::to_string(i));
  }

  // STATS mirrors the engine's introspection.
  const StatsResponse stats = client.stats();
  EXPECT_EQ(stats.flows, mirror.flow_count()) << where;
  EXPECT_EQ(stats.shards, mirror.shard_count()) << where;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RpcRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 6));

// ------------------------------------------------------- wire checkpoint --

TEST(RpcServer, SaveRestoreOverWireIsIdentity) {
  const auto star = net::make_star_network(8, kSpeed);
  TestDaemon daemon(star.net);
  Client client = daemon.connect();

  for (int n = 0; n < 5; ++n) {
    const auto a = static_cast<std::size_t>(n);
    ASSERT_TRUE(client.admit(workload::make_voip_flow(
        "c" + std::to_string(n),
        net::Route({star.hosts[a], star.sw, star.hosts[a + 1]}))));
  }

  const std::string blob = client.save_checkpoint();
  ASSERT_FALSE(blob.empty());

  // The wire blob is a PR 4 checkpoint stream: an in-process restore sees
  // the daemon's exact world.
  {
    std::istringstream is(blob);
    engine::AnalysisEngine restored = engine::AnalysisEngine::restore(is);
    EXPECT_EQ(restored.flow_count(), 5u);
  }

  // Mutate, then RESTORE the snapshot: the daemon is rolled back, and
  // re-saving yields the identical byte stream.
  ASSERT_TRUE(client.admit(workload::make_voip_flow(
      "extra", net::Route({star.hosts[6], star.sw, star.hosts[7]}))));
  EXPECT_EQ(client.stats().flows, 6u);
  EXPECT_EQ(client.restore(blob), 5u);
  EXPECT_EQ(client.stats().flows, 5u);
  EXPECT_EQ(client.save_checkpoint(), blob);

  // A corrupt blob is rejected server-side (RemoteError), world intact.
  std::string bad = blob;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x4D);
  EXPECT_THROW((void)client.restore(bad), RemoteError);
  EXPECT_EQ(client.stats().flows, 5u);
}

// ------------------------------------------------------------ error paths --

TEST(RpcServer, EngineErrorsComeBackAsRemoteErrorAndConnectionSurvives) {
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net);
  Client client = daemon.connect();

  // A flow whose route names a node the daemon's network does not have.
  const gmf::Flow bogus("bogus",
                        net::Route({net::NodeId(100), net::NodeId(101)}),
                        {{gmfnet::Time::ms(20), gmfnet::Time::ms(20),
                          gmfnet::Time::zero(), 1280}});
  EXPECT_THROW((void)client.admit(bogus), RemoteError);
  EXPECT_THROW((void)client.what_if(bogus), RemoteError);

  // Same connection keeps answering.
  EXPECT_EQ(client.stats().flows, 0u);
}

TEST(RpcServer, MalformedFrameDropsOnlyThatConnection) {
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net);

  {
    Socket raw = rpc::connect_unix(daemon.path());
    raw.send_all("definitely not a gmfnet rpc frame header............");
    // The server rejects the stream: a best-effort ERROR frame saying
    // why, then the close.  Drain until EOF (or a reset, depending on
    // timing) with a deadline so a regression can't hang the test.
    raw.set_recv_timeout_ms(5'000);
    char byte = 0;
    try {
      while (raw.recv_exact(&byte, 1)) {
      }
    } catch (const TransportError&) {
      // ECONNRESET is an equally valid way to learn the connection died.
    }
  }

  // The daemon is unharmed: fresh connections serve normally.
  Client client = daemon.connect();
  EXPECT_EQ(client.stats().flows, 0u);
}

// ------------------------------------------------------------- lifecycle --

TEST(RpcServer, ShutdownStopsServeLoop) {
  const auto star = net::make_star_network(4, kSpeed);
  auto daemon = std::make_unique<TestDaemon>(star.net);
  Client client = daemon->connect();
  client.shutdown();
  daemon.reset();  // joins the serve thread — hangs here if SHUTDOWN broke

  // The socket file is gone; reconnecting fails.
  EXPECT_THROW((void)Client::connect_unix("/tmp/gone.gmfnet.sock"),
               TransportError);
}

TEST(RpcServer, ServesLoopbackTcpToo) {
  const auto star = net::make_star_network(4, kSpeed);
  auto eng = std::make_shared<engine::AnalysisEngine>(star.net);
  ServerConfig cfg;  // loopback TCP, ephemeral port
  Server server(eng, cfg);
  ASSERT_NE(server.tcp_port(), 0);
  std::thread serve([&server] { server.serve(); });

  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(client.admit(workload::make_voip_flow(
      "c0", net::Route({star.hosts[0], star.sw, star.hosts[1]}))));
  EXPECT_EQ(client.stats().flows, 1u);
  client.shutdown();
  serve.join();
}

// -------------------------------------------------------------- hardening --

TEST(RpcServer, TransientAcceptErrnosAreClassified) {
  // The accept loop backs off (instead of dying) exactly on the errnos
  // that clear by themselves: fd exhaustion and backlog casualties.
  EXPECT_TRUE(is_transient_accept_error(EMFILE));
  EXPECT_TRUE(is_transient_accept_error(ENFILE));
  EXPECT_TRUE(is_transient_accept_error(ECONNABORTED));
  EXPECT_TRUE(is_transient_accept_error(EINTR));
  EXPECT_FALSE(is_transient_accept_error(EBADF));
  EXPECT_FALSE(is_transient_accept_error(EINVAL));
}

TEST(RpcServer, MidFramePeerDeathCostsOnlyThatConnection) {
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net);
  Client witness = daemon.connect();
  EXPECT_EQ(witness.stats().flows, 0u);

  // Peer dies after the header magic, before the rest of the header.
  {
    Socket raw = rpc::connect_unix(daemon.path());
    raw.send_all(std::string_view(kMagic, sizeof kMagic));
  }
  // Peer dies mid-body: a well-formed header promising more bytes than
  // ever arrive.
  {
    Socket raw = rpc::connect_unix(daemon.path());
    const std::string frame =
        encode_request(Request{RestoreRequest{std::string(256, 'x')}});
    ASSERT_GT(frame.size(), kHeaderSize + 64);
    raw.send_all(std::string_view(frame).substr(0, kHeaderSize + 64));
  }
  // The witness connection (and the daemon) never noticed.
  EXPECT_EQ(witness.stats().flows, 0u);
  Client fresh = daemon.connect();
  EXPECT_EQ(fresh.stats().flows, 0u);
}

TEST(RpcServer, MidBodyResetOverTcpCostsOnlyThatConnection) {
  const auto star = net::make_star_network(4, kSpeed);
  auto eng = std::make_shared<engine::AnalysisEngine>(star.net);
  Server server(eng, ServerConfig{});  // loopback TCP, ephemeral port
  std::thread serve([&server] { server.serve(); });

  Client witness = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(witness.stats().flows, 0u);
  {
    // SO_LINGER{on, 0} makes close() send a real RST, not a FIN — the
    // "process killed mid-send" wire signature.
    Socket raw = rpc::connect_tcp("127.0.0.1", server.tcp_port());
    const std::string frame =
        encode_request(Request{RestoreRequest{std::string(256, 'x')}});
    raw.send_all(std::string_view(frame).substr(0, kHeaderSize + 64));
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ASSERT_EQ(::setsockopt(raw.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg),
              0);
  }
  EXPECT_EQ(witness.stats().flows, 0u);
  witness.shutdown();
  serve.join();
}

TEST(RpcServer, TruncatedServerResponseFailsTheClientInsteadOfHanging) {
  // An impostor daemon that answers every request with a third of a
  // header, then closes.  The client must surface TransportError promptly
  // — not hang waiting for bytes that will never come.
  const std::string path = "/tmp/gmfnet_rpc_impostor_" +
                           std::to_string(::getpid()) + ".sock";
  Listener fake = Listener::listen_unix(path);
  std::thread impostor([&fake] {
    Socket s = fake.accept(5'000);
    if (!s.valid()) return;
    s.set_recv_timeout_ms(2'000);
    std::string header(kHeaderSize, '\0');
    try {
      if (!s.recv_exact(header.data(), header.size())) return;
      s.send_all(std::string_view(kMagic, sizeof kMagic));
    } catch (const TransportError&) {
    }
  });

  ClientConfig cfg;
  cfg.request_timeout_ms = 3'000;
  Client client = Client::connect_unix(path, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.stats(), TransportError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 5'000);
  impostor.join();
}

TEST(RpcServer, StalledPeerIsDisconnectedWithinDeadlineWhileOthersServe) {
  ServerConfig cfg;
  cfg.io_timeout_ms = 300;
  cfg.idle_timeout_ms = 10'000;
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net, {}, cfg);

  // A slow-loris peer: starts a frame, then stalls forever.
  Socket stalled = rpc::connect_unix(daemon.path());
  stalled.send_all(std::string_view(kMagic, sizeof kMagic));
  const auto t0 = std::chrono::steady_clock::now();

  // Another connection keeps getting answers while the peer stalls.
  Client other = daemon.connect();
  EXPECT_EQ(other.stats().flows, 0u);

  // The daemon closes the stalled connection once io_timeout_ms expires:
  // drain the best-effort ERROR frame until EOF and check the clock.
  stalled.set_recv_timeout_ms(5'000);
  char byte = 0;
  try {
    while (stalled.recv_exact(&byte, 1)) {
    }
  } catch (const TransportError&) {
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 4'000);
  EXPECT_GE(daemon.server().timed_out_connections(), 1u);
  EXPECT_EQ(other.stats().flows, 0u);  // bystander still healthy
}

TEST(RpcServer, IdleConnectionIsClosedWithAnErrorFrame) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 200;
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net, {}, cfg);

  Socket raw = rpc::connect_unix(daemon.path());
  raw.set_recv_timeout_ms(5'000);
  // Send nothing: after the idle allowance the server says why and closes.
  const std::optional<std::string> frame = recv_frame(raw);
  ASSERT_TRUE(frame.has_value());
  Response resp = decode_response(*frame);
  auto* err = std::get_if<ErrorResponse>(&resp);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("idle"), std::string::npos) << err->message;
  EXPECT_FALSE(recv_frame(raw).has_value());  // then EOF
  EXPECT_GE(daemon.server().timed_out_connections(), 1u);
}

TEST(RpcServer, ConnectionCapShedsTheOldestIdleConnection) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  const auto star = net::make_star_network(4, kSpeed);
  TestDaemon daemon(star.net, {}, cfg);

  Client oldest = daemon.connect();
  EXPECT_EQ(oldest.stats().flows, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client middle = daemon.connect();
  EXPECT_EQ(middle.stats().flows, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The third connection arrives at the cap: the longest-idle one goes.
  Client newest = daemon.connect();
  EXPECT_EQ(newest.stats().flows, 0u);
  EXPECT_EQ(daemon.server().shed_connections(), 1u);

  EXPECT_THROW((void)oldest.stats(), TransportError);
  EXPECT_EQ(middle.stats().flows, 0u);
  EXPECT_EQ(newest.stats().flows, 0u);
}

TEST(RpcServer, DrainFinishesAndWritesRestorableFinalCheckpoint) {
  const std::string stamp = std::to_string(::getpid());
  const std::string ckpt = "/tmp/gmfnet_drain_" + stamp + ".ckpt";
  ::unlink(ckpt.c_str());
  ::unlink(io::AtomicFileWriter::previous_path(ckpt).c_str());

  const auto star = net::make_star_network(4, kSpeed);
  auto eng = std::make_shared<engine::AnalysisEngine>(star.net);
  ServerConfig cfg;
  cfg.unix_path = "/tmp/gmfnet_drain_" + stamp + ".sock";
  cfg.drain_timeout_ms = 1'500;
  cfg.checkpoint_path = ckpt;
  Server server(eng, cfg);
  std::thread serve([&server] { server.serve(); });

  Client client = Client::connect_unix(cfg.unix_path);
  ASSERT_TRUE(client.admit(workload::make_voip_flow(
      "resident", net::Route({star.hosts[0], star.sw, star.hosts[1]}))));
  // An extra idle connection must not pin the drain past its deadline:
  // its handler notices the wind-down within an idle-wait slice.
  Socket idle_conn = rpc::connect_unix(cfg.unix_path);

  const auto t0 = std::chrono::steady_clock::now();
  server.request_drain();
  serve.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 10'000);
  EXPECT_TRUE(server.drain_requested());

  std::ifstream in(ckpt, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no final checkpoint at " << ckpt;
  engine::AnalysisEngine restored = engine::AnalysisEngine::restore(in);
  EXPECT_EQ(restored.flow_count(), 1u);
  ::unlink(ckpt.c_str());
  ::unlink(io::AtomicFileWriter::previous_path(ckpt).c_str());
}

TEST(RpcServer, AutoCheckpointsOnTheMutationCadence) {
  const std::string ckpt =
      "/tmp/gmfnet_autockpt_" + std::to_string(::getpid()) + ".ckpt";
  ::unlink(ckpt.c_str());
  ::unlink(io::AtomicFileWriter::previous_path(ckpt).c_str());

  ServerConfig cfg;
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 2;
  const auto star = net::make_star_network(6, kSpeed);
  TestDaemon daemon(star.net, {}, cfg);
  Client client = daemon.connect();

  ASSERT_TRUE(client.admit(workload::make_voip_flow(
      "c0", net::Route({star.hosts[0], star.sw, star.hosts[1]}))));
  EXPECT_NE(::access(ckpt.c_str(), R_OK), 0) << "checkpointed too early";

  ASSERT_TRUE(client.admit(workload::make_voip_flow(
      "c1", net::Route({star.hosts[2], star.sw, star.hosts[3]}))));
  EXPECT_EQ(daemon.server().committed_mutations(), 2u);
  std::ifstream in(ckpt, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no auto-checkpoint at " << ckpt;
  engine::AnalysisEngine restored = engine::AnalysisEngine::restore(in);
  EXPECT_EQ(restored.flow_count(), 2u);
  ::unlink(ckpt.c_str());
  ::unlink(io::AtomicFileWriter::previous_path(ckpt).c_str());
}

// ---------------------------------------------------- concurrency (soak) --

TEST(RpcServer, ConcurrentWhatIfReadersDontBlockTheWriter) {
  const int cells = 4;
  const Campus campus = make_campus(cells, 4);
  TestDaemon daemon(campus.net);

  // A warm resident world: one call per cell.
  {
    Client boot = daemon.connect();
    for (int cell = 0; cell < cells; ++cell) {
      const auto a = static_cast<std::size_t>(cell * 4);
      ASSERT_TRUE(boot.admit(workload::make_voip_flow(
          "resident" + std::to_string(cell),
          net::Route({campus.hosts[a], campus.switches[
                          static_cast<std::size_t>(cell)],
                      campus.hosts[a + 1]}))));
    }
  }

  // Probe candidates across all cells.
  std::vector<gmf::Flow> cands;
  for (int cell = 0; cell < cells; ++cell) {
    const auto a = static_cast<std::size_t>(cell * 4 + 2);
    cands.push_back(workload::make_voip_flow(
        "cand" + std::to_string(cell),
        net::Route({campus.hosts[a],
                    campus.switches[static_cast<std::size_t>(cell)],
                    campus.hosts[a + 1]})));
  }

  constexpr int kReaders = 4;
  constexpr int kWriterOps = 24;
  std::atomic<bool> writer_done{false};
  std::atomic<std::int64_t> probes{0};
  std::atomic<int> failures{0};

  // The writer starts only after every reader has completed one batch (or
  // given up): otherwise all of the writer's round trips can finish before
  // any reader's first batch returns, and `probes` reads 0.  The wait is
  // bounded, so a wedged reader fails the test instead of hanging it.
  std::mutex ready_mu;
  std::condition_variable ready_cv;
  int readers_ready = 0;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool counted = false;
      const auto count_down = [&] {
        if (counted) return;
        counted = true;
        {
          const std::lock_guard<std::mutex> lock(ready_mu);
          ++readers_ready;
        }
        ready_cv.notify_all();
      };
      try {
        Client c = daemon.connect();
        while (!writer_done.load(std::memory_order_acquire)) {
          const std::vector<engine::WhatIfResult> results =
              c.what_if_batch(cands);
          if (results.size() != cands.size()) {
            failures.fetch_add(1);
            break;
          }
          probes.fetch_add(static_cast<std::int64_t>(results.size()));
          count_down();
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
      count_down();
    });
  }
  {
    std::unique_lock<std::mutex> lock(ready_mu);
    EXPECT_TRUE(ready_cv.wait_for(lock, std::chrono::seconds(60),
                                  [&] { return readers_ready == kReaders; }))
        << "readers never completed a first what-if batch";
  }

  // The writer keeps mutating the resident set while the readers probe.
  {
    Client writer = daemon.connect();
    for (int op = 0; op < kWriterOps; ++op) {
      const int cell = op % cells;
      const auto a = static_cast<std::size_t>(cell * 4);
      const std::optional<core::HolisticResult> admitted =
          writer.admit(workload::make_voip_flow(
              "churn" + std::to_string(op),
              net::Route({campus.hosts[a],
                          campus.switches[static_cast<std::size_t>(cell)],
                          campus.hosts[a + 1]})));
      ASSERT_TRUE(admitted.has_value()) << "op " << op;
      // Remove what we just added (it landed at the end).
      const StatsResponse s = writer.stats();
      ASSERT_TRUE(writer.remove(s.flows - 1)) << "op " << op;
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(probes.load(), 0);

  // Quiesced world: back to the residents, and probe answers match an
  // in-process engine fed the same final state.
  Client check = daemon.connect();
  const StatsResponse s = check.stats();
  EXPECT_EQ(s.flows, static_cast<std::uint64_t>(cells));

  engine::AnalysisEngine mirror(campus.net);
  for (int cell = 0; cell < cells; ++cell) {
    const auto a = static_cast<std::size_t>(cell * 4);
    ASSERT_TRUE(mirror.try_admit(workload::make_voip_flow(
        "resident" + std::to_string(cell),
        net::Route({campus.hosts[a],
                    campus.switches[static_cast<std::size_t>(cell)],
                    campus.hosts[a + 1]}))));
  }
  const std::vector<engine::WhatIfResult> remote = check.what_if_batch(cands);
  const std::vector<engine::WhatIfResult> local = mirror.evaluate_batch(cands);
  ASSERT_EQ(remote.size(), local.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].admissible, local[i].admissible);
    expect_bit_identical(remote[i].result(), local[i].result(),
                         "post-soak probe " + std::to_string(i));
  }
}

}  // namespace
}  // namespace gmfnet::rpc
