// gmfnet_ctl — operator CLI for a running gmfnetd.
//
//   gmfnet_ctl (--unix PATH | --tcp HOST:PORT) [--timeout MS] [--retries N]
//              <command> [args]
//
//   admit <scenario>    admit every flow of the scenario file (gated:
//                       AnalysisEngine::try_admit); exit 0 when all were
//                       admitted, 3 when any was rejected
//   what-if <scenario>  non-committing batch probe of the scenario's
//                       flows; exit 0 when all are admissible, 3 otherwise
//   remove <index>      drop the resident flow at <index> (as reported by
//                       stats/admit ids); exit 3 when out of range
//   stats               print engine counters + resident/shard counts
//   save <file>         write the daemon's converged state as a
//                       checkpoint file (warm-boot input for gmfnetd);
//                       written atomically (temp + fsync + rename)
//   restore <file>      replace the daemon's world with a checkpoint
//   shutdown            stop the daemon
//   promote             make the daemon the primary: bumps the epoch so a
//                       fenced ex-primary's stale deltas are rejected
//                       (see README "Replication & failover")
//   role                print the daemon's replication role, epoch,
//                       commit position and link health
//   sync                alias of role for watching a replica catch up
//   repoint <addr>      point a replica at a different primary
//                       ("unix:PATH" or "HOST:PORT")
//
//   --timeout MS        connect + per-request deadline (default 30000;
//                       0 = wait forever).  A daemon that is unreachable
//                       or stops answering fails fast instead of hanging
//                       the operator's shell.
//   --retries N         transparent retries for the idempotent commands
//                       (what-if, stats) after a transport failure
//                       (default 0).  Mutating commands are never
//                       retried: a mid-exchange failure leaves it unknown
//                       whether the daemon committed.
//
// Scenario files passed to admit/what-if must describe flows over the
// network the daemon was booted with (routes are resolved by node id).
// Exit codes: 0 ok, 1 daemon/local error, 2 usage, 3 rejected,
// 4 unreachable or deadline exceeded, 5 not the primary (the daemon is a
// replica or a fenced ex-primary; stderr names the primary when known).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/scenario_io.hpp"
#include "rpc/client.hpp"

namespace {

using namespace gmfnet;

/// Strict decimal parse: pure digits, in [lo, hi] — `remove 3x` and a
/// port of `80abc` are errors, not silently truncated values.
bool parse_number(const std::string& s, long long lo, long long hi,
                  long long& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end && !s.empty() && out >= lo &&
         out <= hi;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp HOST:PORT) [--timeout MS] "
               "[--retries N] <command> [args]\n"
               "commands: admit <scenario> | what-if <scenario> | "
               "remove <index> | stats | save <file> | restore <file> | "
               "shutdown | promote | role | sync | repoint <addr>\n",
               argv0);
  return 2;
}

std::vector<gmf::Flow> load_flows(const std::string& path) {
  workload::Scenario sc = io::load_scenario(path);
  if (sc.flows.empty()) {
    throw std::runtime_error(path + " contains no flows");
  }
  return std::move(sc.flows);
}

int cmd_admit(rpc::Client& client, const std::string& path) {
  std::size_t rejected = 0;
  for (const gmf::Flow& f : load_flows(path)) {
    const std::optional<core::HolisticResult> res = client.admit(f);
    if (res) {
      std::printf("admitted  %-20s (schedulable=%s)\n", f.name().c_str(),
                  res->schedulable ? "yes" : "no");
    } else {
      std::printf("rejected  %-20s\n", f.name().c_str());
      ++rejected;
    }
  }
  return rejected == 0 ? 0 : 3;
}

int cmd_what_if(rpc::Client& client, const std::string& path) {
  const std::vector<gmf::Flow> flows = load_flows(path);
  const std::vector<engine::WhatIfResult> results =
      client.what_if_batch(flows);
  std::size_t inadmissible = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    std::printf("%-12s  %-20s\n",
                results[i].admissible ? "admissible" : "inadmissible",
                flows[i].name().c_str());
    if (!results[i].admissible) ++inadmissible;
  }
  return inadmissible == 0 ? 0 : 3;
}

int cmd_stats(rpc::Client& client) {
  const rpc::StatsResponse s = client.stats();
  std::printf("resident_flows      %llu\n",
              static_cast<unsigned long long>(s.flows));
  std::printf("locality_domains    %llu\n",
              static_cast<unsigned long long>(s.shards));
  std::printf("evaluations         %zu\n", s.stats.evaluations);
  std::printf("full_runs           %zu\n", s.stats.full_runs);
  std::printf("incremental_runs    %zu\n", s.stats.incremental_runs);
  std::printf("flow_analyses       %zu\n", s.stats.flow_analyses);
  std::printf("flow_results_reused %zu\n", s.stats.flow_results_reused);
  std::printf("sweeps              %zu\n", s.stats.sweeps);
  std::printf("role                %s\n",
              s.role == rpc::Role::kPrimary ? "primary" : "replica");
  std::printf("epoch               %llu\n",
              static_cast<unsigned long long>(s.epoch));
  std::printf("commit_seq          %llu\n",
              static_cast<unsigned long long>(s.commit_seq));
  std::printf("uptime_ms           %llu\n",
              static_cast<unsigned long long>(s.uptime_ms));
  std::printf("active_connections  %llu\n",
              static_cast<unsigned long long>(s.active_connections));
  std::printf("frames_served       %llu\n",
              static_cast<unsigned long long>(s.frames_served));
  std::printf("coalesced_commits   %llu\n",
              static_cast<unsigned long long>(s.coalesced_commits));
  std::printf("pipelined_hwm       %llu\n",
              static_cast<unsigned long long>(s.pipelined_hwm));
  return 0;
}

int print_role(const rpc::RoleResponse& r) {
  const bool primary = r.role == rpc::Role::kPrimary;
  std::printf("role                %s%s\n", primary ? "primary" : "replica",
              r.fenced ? " (FENCED)" : "");
  std::printf("epoch               %llu\n",
              static_cast<unsigned long long>(r.epoch));
  std::printf("commit_seq          %llu\n",
              static_cast<unsigned long long>(r.commit_seq));
  if (primary) {
    std::printf("subscribers         %llu\n",
                static_cast<unsigned long long>(r.subscribers));
    std::printf("journal             [%llu, %llu]\n",
                static_cast<unsigned long long>(r.journal_begin),
                static_cast<unsigned long long>(r.journal_end));
  } else {
    std::printf("primary             %s\n", r.primary_addr.c_str());
    std::printf("link                %s\n",
                r.connected ? "connected" : "down");
    std::printf("full_syncs          %llu\n",
                static_cast<unsigned long long>(r.full_syncs));
    std::printf("deltas_applied      %llu\n",
                static_cast<unsigned long long>(r.deltas_applied));
  }
  return 0;
}

int cmd_save(rpc::Client& client, const std::string& path) {
  const std::string blob = client.save_checkpoint();
  // Atomic replace: a crash (or full disk) mid-save must not clobber an
  // existing checkpoint with a truncated one.
  io::atomic_write_file(path, blob);
  std::printf("saved %zu bytes to %s\n", blob.size(), path.c_str());
  return 0;
}

int cmd_restore(rpc::Client& client, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "gmfnet_ctl: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::uint64_t flows = client.restore(std::move(ss).str());
  std::printf("restored %llu resident flows\n",
              static_cast<unsigned long long>(flows));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ep_flag;
  std::string ep;
  long long timeout_ms = 30'000;
  long long retries = 0;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) break;  // first non-option = command
    const bool has_value = i + 1 < argc;
    if ((arg == "--unix" || arg == "--tcp") && has_value) {
      ep_flag = arg;
      ep = argv[++i];
    } else if (arg == "--timeout" && has_value) {
      if (!parse_number(argv[++i], 0, 86'400'000, timeout_ms)) {
        return usage(argv[0]);
      }
    } else if (arg == "--retries" && has_value) {
      if (!parse_number(argv[++i], 0, 1000, retries)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (ep_flag.empty() || i >= argc) return usage(argv[0]);
  const std::string command = argv[i];
  const bool has_arg = i + 1 < argc;
  const std::string cmd_arg = has_arg ? argv[i + 1] : "";
  if (i + 2 < argc) return usage(argv[0]);  // at most one command argument

  rpc::ClientConfig cfg;
  cfg.connect_timeout_ms =
      timeout_ms == 0 ? rpc::kNoTimeout : static_cast<int>(timeout_ms);
  cfg.request_timeout_ms = cfg.connect_timeout_ms;
  cfg.max_retries = static_cast<int>(retries);

  try {
    rpc::Client client = [&]() -> rpc::Client {
      try {
        if (ep_flag == "--unix") return rpc::Client::connect_unix(ep, cfg);
        const std::size_t colon = ep.rfind(':');
        if (colon == std::string::npos) {
          throw std::runtime_error("--tcp wants HOST:PORT, got " + ep);
        }
        long long port = 0;
        if (!parse_number(ep.substr(colon + 1), 1, 65535, port)) {
          throw std::runtime_error("bad port in " + ep);
        }
        return rpc::Client::connect_tcp(
            ep.substr(0, colon), static_cast<std::uint16_t>(port), cfg);
      } catch (const rpc::TransportError& e) {
        // Unreachable daemon: distinct exit code so scripts can tell
        // "daemon down" from "daemon said no".
        std::fprintf(stderr, "gmfnet_ctl: daemon unreachable: %s\n",
                     e.what());
        std::exit(4);
      }
    }();

    if (command == "admit" && has_arg) return cmd_admit(client, cmd_arg);
    if (command == "what-if" && has_arg) return cmd_what_if(client, cmd_arg);
    if (command == "remove" && has_arg) {
      long long index = 0;
      if (!parse_number(cmd_arg, 0, (1ll << 62), index)) {
        return usage(argv[0]);
      }
      const bool removed = client.remove(static_cast<std::uint64_t>(index));
      std::printf("%s\n", removed ? "removed" : "no such flow");
      return removed ? 0 : 3;
    }
    if (command == "stats" && !has_arg) return cmd_stats(client);
    if (command == "save" && has_arg) return cmd_save(client, cmd_arg);
    if (command == "restore" && has_arg) return cmd_restore(client, cmd_arg);
    if (command == "shutdown" && !has_arg) {
      client.shutdown();
      std::printf("daemon shutting down\n");
      return 0;
    }
    if (command == "promote" && !has_arg) {
      const std::uint64_t epoch = client.promote();
      std::printf("promoted to primary at epoch %llu\n",
                  static_cast<unsigned long long>(epoch));
      return 0;
    }
    if ((command == "role" || command == "sync") && !has_arg) {
      return print_role(client.role());
    }
    if (command == "repoint" && has_arg) {
      return print_role(client.repoint(cmd_arg));
    }
    return usage(argv[0]);
  } catch (const rpc::NotPrimaryError& e) {
    // Distinct exit code: scripts following a failover can redirect the
    // mutation to e.primary_addr() instead of treating it as a failure.
    std::fprintf(stderr, "gmfnet_ctl: %s\n", e.what());
    return 5;
  } catch (const rpc::TimeoutError& e) {
    std::fprintf(stderr, "gmfnet_ctl: deadline exceeded: %s\n", e.what());
    return 4;
  } catch (const rpc::TransportError& e) {
    std::fprintf(stderr, "gmfnet_ctl: transport failure: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gmfnet_ctl: %s\n", e.what());
    return 1;
  }
}
