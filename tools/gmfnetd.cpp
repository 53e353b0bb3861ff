// gmfnetd — the gmfnet operator daemon.
//
// Owns one AnalysisEngine and serves the rpc/protocol message catalog
// (ADMIT / REMOVE / WHAT_IF_BATCH / STATS / SAVE_CHECKPOINT / RESTORE /
// SHUTDOWN) over a Unix-domain or loopback TCP socket until an operator
// sends SHUTDOWN (gmfnet_ctl shutdown) or the process receives
// SIGTERM/SIGINT — which drains gracefully: stop accepting, finish
// in-flight requests up to the drain deadline, write a final crash-safe
// checkpoint, exit 0.
//
//   gmfnetd (--unix PATH | --tcp PORT) (--scenario FILE | --restore FILE)
//           [--host ADDR] [--readers N]
//           [--checkpoint-path P] [--checkpoint-every N]
//           [--io-timeout MS] [--idle-timeout MS] [--max-conns N]
//           [--drain-timeout MS]
//           [--replica-of ADDR] [--journal-cap N]
//
// Replication: with --replica-of the daemon boots as a replica of the
// primary at ADDR ("unix:PATH" or "HOST:PORT").  A replica needs no
// --scenario/--restore — it cold-boots empty and bootstraps from the
// primary's full-sync checkpoint, then follows the delta stream.  It
// serves WHAT_IF_BATCH/STATS from its own snapshots and answers
// mutations with NOT_PRIMARY until `gmfnet_ctl promote` makes it the
// primary (epoch-fenced — see README "Replication & failover").
//
// Exit status: 0 clean shutdown/drain, 1 runtime error, 2 usage,
// 3 abnormal stop (the accept loop died persistently — the daemon was
// NOT shut down by an operator; supervisors should treat this as a
// crash and restart/alert).
//
//   --scenario FILE       boot from a gmfnet scenario file: the network
//                         plus its flows as the initial resident set
//                         (evaluated before serving, so the first probe
//                         hits a warm world)
//   --restore FILE        warm-boot from a checkpoint (zero solver runs);
//                         when FILE is truncated/corrupt/missing, falls
//                         back to FILE.prev — the rotation slot the
//                         atomic checkpoint writer maintains — so a crash
//                         mid-save never strands the daemon
//   --readers N           what-if reader pool size (default: hardware)
//   --checkpoint-path P   write crash-safe checkpoints to P (final one on
//                         drain/shutdown; P.prev keeps the previous
//                         generation)
//   --checkpoint-every N  also auto-checkpoint after every N committed
//                         mutations (requires --checkpoint-path)
//   --io-timeout MS       per-connection send/recv deadline; a peer
//                         stalled mid-frame is disconnected (default
//                         30000; 0 = never)
//   --idle-timeout MS     close connections idle between requests this
//                         long (default 120000; 0 = never)
//   --max-conns N         connection cap; at the cap the oldest-idle
//                         connection is shed (default 1024; 0 = unlimited)
//   --drain-timeout MS    how long SIGTERM waits for in-flight requests
//                         (default 5000)
//   --replica-of ADDR     boot as a replica following the primary at ADDR
//                         ("unix:PATH" or "HOST:PORT")
//   --journal-cap N       delta frames the primary retains for replica
//                         catch-up; a replica further behind than N takes
//                         a full resync instead (default 1024)
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "engine/analysis_engine.hpp"
#include "io/atomic_file.hpp"
#include "io/scenario_io.hpp"
#include "rpc/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_signal(int sig) { g_signal = sig; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--unix PATH | --tcp PORT) (--scenario FILE | --restore "
      "FILE)\n"
      "          [--host ADDR] [--readers N]\n"
      "          [--checkpoint-path P] [--checkpoint-every N]\n"
      "          [--io-timeout MS] [--idle-timeout MS] [--max-conns N]\n"
      "          [--drain-timeout MS]\n"
      "          [--replica-of ADDR] [--journal-cap N]\n"
      "(a replica may omit --scenario/--restore: it bootstraps from its "
      "primary)\n",
      argv0);
  return 2;
}

/// Strict decimal parse: pure digits, in [lo, hi] — `--tcp 80abc` and
/// `--readers -1` are usage errors, not silently truncated/wrapped values.
bool parse_number(const std::string& s, long long lo, long long hi,
                  long long& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end && !s.empty() && out >= lo &&
         out <= hi;
}

/// Warm boot with recovery: try the checkpoint at `path`, fall back to the
/// rotation slot `path.prev` when the newest generation is truncated,
/// corrupt, or missing (e.g. the process died between the atomic writer's
/// two renames).  Returns nullptr when no valid checkpoint exists.
std::shared_ptr<gmfnet::engine::AnalysisEngine> restore_with_fallback(
    const std::string& path) {
  namespace io = gmfnet::io;
  const std::string candidates[] = {path,
                                    io::AtomicFileWriter::previous_path(path)};
  for (const std::string& p : candidates) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "gmfnetd: cannot read checkpoint %s\n", p.c_str());
      continue;
    }
    try {
      auto eng = std::shared_ptr<gmfnet::engine::AnalysisEngine>(
          gmfnet::engine::AnalysisEngine::restore_unique(in));
      std::printf(
          "gmfnetd: warm-booted %zu resident flows in %zu domains from %s "
          "(no solver runs)\n",
          eng->flow_count(), eng->shard_count(), p.c_str());
      return eng;
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "gmfnetd: checkpoint %s is not restorable (%s)%s\n",
                   p.c_str(), e.what(),
                   p == path ? ", trying previous generation" : "");
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmfnet;

  std::string unix_path;
  std::string host = "127.0.0.1";
  long long tcp_port = -1;
  std::string scenario_path;
  std::string restore_path;
  std::string checkpoint_path;
  long long readers = 0;
  long long checkpoint_every = 0;
  long long io_timeout = 30'000;
  long long idle_timeout = 120'000;
  long long max_conns = 1024;
  long long drain_timeout = 5'000;
  std::string replica_of;
  long long journal_cap = 1024;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      unix_path = argv[++i];
    } else if (arg == "--tcp" && has_value) {
      if (!parse_number(argv[++i], 0, 65535, tcp_port)) return usage(argv[0]);
    } else if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--scenario" && has_value) {
      scenario_path = argv[++i];
    } else if (arg == "--restore" && has_value) {
      restore_path = argv[++i];
    } else if (arg == "--readers" && has_value) {
      if (!parse_number(argv[++i], 0, 4096, readers)) return usage(argv[0]);
    } else if (arg == "--checkpoint-path" && has_value) {
      checkpoint_path = argv[++i];
    } else if (arg == "--checkpoint-every" && has_value) {
      if (!parse_number(argv[++i], 0, 1'000'000'000, checkpoint_every)) {
        return usage(argv[0]);
      }
    } else if (arg == "--io-timeout" && has_value) {
      if (!parse_number(argv[++i], 0, 86'400'000, io_timeout)) {
        return usage(argv[0]);
      }
    } else if (arg == "--idle-timeout" && has_value) {
      if (!parse_number(argv[++i], 0, 86'400'000, idle_timeout)) {
        return usage(argv[0]);
      }
    } else if (arg == "--max-conns" && has_value) {
      if (!parse_number(argv[++i], 0, 1'000'000, max_conns)) {
        return usage(argv[0]);
      }
    } else if (arg == "--drain-timeout" && has_value) {
      if (!parse_number(argv[++i], 0, 86'400'000, drain_timeout)) {
        return usage(argv[0]);
      }
    } else if (arg == "--replica-of" && has_value) {
      replica_of = argv[++i];
    } else if (arg == "--journal-cap" && has_value) {
      if (!parse_number(argv[++i], 1, 1'000'000'000, journal_cap)) {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  // A primary needs exactly one boot source; a replica bootstraps from
  // its primary, so at most one (a warm --restore shortens the first
  // sync, a --scenario is allowed but will be replaced by the sync).
  const bool replica = !replica_of.empty();
  if ((unix_path.empty() && tcp_port < 0) ||
      (!unix_path.empty() && tcp_port >= 0) ||
      (!replica && scenario_path.empty() == restore_path.empty()) ||
      (replica && !scenario_path.empty() && !restore_path.empty()) ||
      (checkpoint_every > 0 && checkpoint_path.empty())) {
    return usage(argv[0]);
  }

  try {
    std::shared_ptr<engine::AnalysisEngine> eng;
    if (!scenario_path.empty()) {
      workload::Scenario sc = io::load_scenario(scenario_path);
      eng = std::make_shared<engine::AnalysisEngine>(std::move(sc.network));
      for (gmf::Flow& f : sc.flows) eng->add_flow(std::move(f));
      (void)eng->snapshot();
      std::printf("gmfnetd: booted %zu resident flows in %zu domains from %s\n",
                  eng->flow_count(), eng->shard_count(),
                  scenario_path.c_str());
    } else if (!restore_path.empty()) {
      eng = restore_with_fallback(restore_path);
      if (!eng) {
        std::fprintf(stderr, "gmfnetd: no restorable checkpoint at %s\n",
                     restore_path.c_str());
        return 1;
      }
    } else {
      // Replica cold boot: an empty engine that the first SYNC_FULL from
      // the primary will replace wholesale.
      eng = std::make_shared<engine::AnalysisEngine>(net::Network{});
      std::printf("gmfnetd: cold replica boot — awaiting full sync from %s\n",
                  replica_of.c_str());
    }

    rpc::ServerConfig cfg;
    cfg.unix_path = unix_path;
    cfg.tcp_host = host;
    cfg.tcp_port = static_cast<std::uint16_t>(tcp_port < 0 ? 0 : tcp_port);
    cfg.reader_threads = static_cast<std::size_t>(readers);
    cfg.io_timeout_ms =
        io_timeout == 0 ? rpc::kNoTimeout : static_cast<int>(io_timeout);
    cfg.idle_timeout_ms =
        idle_timeout == 0 ? rpc::kNoTimeout : static_cast<int>(idle_timeout);
    cfg.max_connections = static_cast<std::size_t>(max_conns);
    cfg.drain_timeout_ms = static_cast<int>(drain_timeout);
    cfg.checkpoint_path = checkpoint_path;
    cfg.checkpoint_every = static_cast<std::size_t>(checkpoint_every);
    cfg.replica_of = replica_of;
    cfg.journal_capacity = static_cast<std::size_t>(journal_cap);
    rpc::Server server(std::move(eng), std::move(cfg));
    if (replica) {
      std::printf("gmfnetd: replica of %s (epoch %llu)\n", replica_of.c_str(),
                  static_cast<unsigned long long>(server.epoch()));
    }
    if (!unix_path.empty()) {
      std::printf("gmfnetd: serving on unix:%s\n", unix_path.c_str());
    } else {
      std::printf("gmfnetd: serving on tcp:%s:%u\n", host.c_str(),
                  static_cast<unsigned>(server.tcp_port()));
    }
    std::fflush(stdout);

    // SIGTERM/SIGINT request a graceful drain; the handler only sets a
    // flag (async-signal-safe), the watcher thread relays it to the
    // server off the signal context.
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::atomic<bool> watcher_stop{false};
    std::thread watcher([&server, &watcher_stop] {
      while (!watcher_stop.load(std::memory_order_acquire)) {
        if (g_signal != 0) {
          std::printf("gmfnetd: signal %d — draining\n",
                      static_cast<int>(g_signal));
          std::fflush(stdout);
          server.request_drain();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });

    server.serve();
    watcher_stop.store(true, std::memory_order_release);
    watcher.join();

    if (server.abnormal_stop()) {
      std::fprintf(stderr,
                   "gmfnetd: abnormal stop — the accept loop died "
                   "persistently; see the error log above\n");
      return 3;
    }
    if (!checkpoint_path.empty()) {
      std::printf("gmfnetd: final checkpoint at %s\n",
                  checkpoint_path.c_str());
    }
    std::printf("gmfnetd: %s complete\n",
                server.drain_requested() ? "drain" : "shutdown");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gmfnetd: %s\n", e.what());
    return 1;
  }
}
