// gmfbench — the gmfnet benchmark's load generator: one process that boots
// a fresh gmfnetd on a world generated from a seed, drives it over a
// private Unix socket, checks every answer against an in-process mirror
// engine, and prints the run's metrics as the last line of stdout.
//
//   gmfbench --workload NAME --seed N --seconds S --trace 0|1
//            --daemon PATH --workdir DIR [--source-id ID]
//
// Reader connections are closed-loop: each keeps a fixed number of
// verdict-only WHAT_IF_BATCH frames from a seeded request script in flight
// and sends the next one only when a response returns.  One writer
// connection sends ADMIT_BATCH/REMOVE pairs of the workload's churn flows,
// closed-loop or paced (worlds.hpp).  A control connection takes STATS at
// the window edges and sends the final SHUTDOWN.  Connections plus threads stay within
// the host's processor count, and the daemon's reader pool gets what the
// busy generator threads and the reactor leave.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: STATS deltas over the window plus an in-process traced replay of
// the same requests (replay.hpp).
//
// Exit status: 0 when every answer matched the mirror, 1 on a mismatch or
// a failed run, 2 on bad usage or a build that must not be measured.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "engine/analysis_engine.hpp"
#include "io/codec.hpp"
#include "io/scenario_io.hpp"
#include "replay.hpp"
#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"
#include "worlds.hpp"

namespace {

using namespace perfbench;
namespace engine = gmfnet::engine;
namespace gmf = gmfnet::gmf;
namespace rpc = gmfnet::rpc;

/// A second seed, never used while the benchmark was tuned, for checking
/// later claims.
constexpr std::uint64_t kHeldOutSeed = 9001;
constexpr int kBoots = 11;  ///< daemon boots per run (setup_s is their median)
constexpr std::int64_t kWarmupNs = 500'000'000;
constexpr int kIoTimeoutMs = 30'000;
constexpr std::size_t kSubWindows = 5;  ///< parts of the window (medians)

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string workdir;
  std::string source_id = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: gmfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH --workdir DIR [--source-id ID]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--daemon") {
      a.daemon = v;
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.daemon.empty() &&
         !a.workdir.empty() && a.seconds > 0;
}

/// Refuses builds whose timings mean nothing: anything but Release, and
/// sanitizer-instrumented code.
bool measurable_build(std::string& why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
  return false;
#endif
  if (std::strcmp(GMFBENCH_BUILD_TYPE, "Release") != 0) {
    why = std::string("build type ") + GMFBENCH_BUILD_TYPE + ", need Release";
    return false;
  }
  if (std::strstr(GMFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    why = "sanitizer flags";
    return false;
  }
  return true;
}

/// The summary a verdict-only WHAT_IF answer carries; compared field by
/// field against the in-process mirror.
struct Verdict {
  bool admissible = false;
  int sweeps = 0;
  std::uint64_t flow_count = 0;
  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const engine::WhatIfResult& wi) {
  return Verdict{wi.admissible, wi.sweeps(), wi.flow_count()};
}

struct ProbeRec {
  std::uint32_t group;
  bool error;
  std::int64_t send_ns;
  std::int64_t recv_ns;
  std::uint32_t verdicts;  ///< offset of the group's verdicts in ConnLog
};

struct MutRec {
  std::uint32_t churn;
  bool admit;  ///< ADMIT_BATCH (else REMOVE)
  bool error;
  bool ok;     ///< admitted / removed
  std::uint64_t flows_after;
  std::int64_t send_ns;
  std::int64_t recv_ns;
};

/// Everything one load connection saw.
struct ConnLog {
  std::vector<ProbeRec> probes;
  std::vector<Verdict> verdicts;
  std::vector<MutRec> muts;
  std::uint64_t window_bytes = 0;  ///< request + response bytes in window
  std::string error;               ///< transport failure, if any
};

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] bool holds(std::int64_t t) const {
    return t >= start_ns && t <= end_ns;
  }
};

/// Completions of one request kind within one part of the window.
struct SubWindow {
  std::vector<double> lat;  ///< latencies, us
  std::int64_t first_ns = INT64_MAX;
  std::int64_t last_ns = INT64_MIN;
  double items = 0.0;        ///< items completed (candidates, commits)
  double first_items = 0.0;  ///< items of the earliest completion

  void add(std::int64_t t, double us, double n) {
    lat.push_back(us);
    items += n;
    if (t < first_ns) {
      first_ns = t;
      first_items = n;
    }
    last_ns = std::max(last_ns, t);
  }
  /// Items per second between the first and the last completion.
  [[nodiscard]] double rate() const {
    return last_ns > first_ns ? (items - first_items) * 1e9 /
                                    static_cast<double>(last_ns - first_ns)
                              : std::nan("");
  }
  template <typename Fn>
  static double median_of(const std::vector<SubWindow>& parts, Fn&& fn) {
    std::vector<double> v;
    for (const SubWindow& s : parts) {
      if (!s.lat.empty()) v.push_back(fn(s));
    }
    return median(std::move(v));
  }
};

rpc::Socket open_load_socket(const std::string& path) {
  rpc::Socket s = rpc::connect_unix(path, 5'000);
  s.set_recv_timeout_ms(kIoTimeoutMs);
  s.set_send_timeout_ms(kIoTimeoutMs);
  return s;
}

/// A reader connection: `depth` WHAT_IF frames in flight until the window
/// ends.
void probe_loop(const std::string& path, const std::vector<std::string>& frames,
                const std::vector<std::uint32_t>& script, std::size_t depth,
                std::size_t batch, Window w, ConnLog& log) {
  try {
    rpc::Socket s = open_load_socket(path);
    std::deque<std::pair<std::uint32_t, std::int64_t>> inflight;
    std::size_t next = 0;
    for (;;) {
      while (inflight.size() < depth && now_ns() < w.end_ns) {
        const std::uint32_t g = script[next++ % script.size()];
        const std::int64_t t = now_ns();
        rpc::send_frame(s, frames[g]);
        inflight.emplace_back(g, t);
      }
      if (inflight.empty()) break;
      const std::optional<std::string> reply = rpc::recv_frame(s);
      if (!reply) throw rpc::TransportError("daemon closed the connection");
      const std::int64_t r = now_ns();
      const auto [g, t] = inflight.front();
      inflight.pop_front();
      const rpc::Response resp = rpc::decode_response(*reply);
      ProbeRec rec{g, true, t, r,
                   static_cast<std::uint32_t>(log.verdicts.size())};
      const auto* ok = std::get_if<rpc::WhatIfBatchResponse>(&resp);
      if (ok != nullptr && ok->results.size() == batch) {
        rec.error = false;
        for (const engine::WhatIfResult& wi : ok->results) {
          log.verdicts.push_back(verdict_of(wi));
        }
      } else {
        log.verdicts.resize(log.verdicts.size() + batch);
      }
      if (w.holds(r)) log.window_bytes += frames[g].size() + reply->size();
      log.probes.push_back(rec);
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

/// The writer connection: ADMIT_BATCH{churn[j]} then REMOVE{n0} for
/// j = 0, 1, ... (cyclic), one frame in flight, so every admitted churn
/// flow is published before its removal.  With `pace_us` > 0 the writer is
/// paced instead of closed-loop: pair p is due `p * pace_us` after the
/// start, and its admit is timed from when it was due, so a stalled daemon
/// charges the wait to every pair behind it.  Pairs are always completed,
/// so the daemon ends the run in its boot world.
void writer_loop(const std::string& path,
                 const std::vector<std::string>& admit_frames,
                 const std::string& remove_frame, int pace_us, Window w,
                 ConnLog& log) {
  try {
    rpc::Socket s = open_load_socket(path);
    const std::int64_t start_ns = now_ns();
    for (std::uint64_t k = 0;; ++k) {  // op k: pair k / 2, admit when even
      const bool admit = k % 2 == 0;
      if (admit && now_ns() >= w.end_ns) break;
      std::int64_t t = now_ns();
      if (admit && pace_us > 0) {
        const std::int64_t due =
            start_ns + static_cast<std::int64_t>(k / 2) * pace_us * 1000;
        if (t < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - t));
        t = due;
      }
      const auto j = static_cast<std::uint32_t>((k / 2) % admit_frames.size());
      const std::string& frame = admit ? admit_frames[j] : remove_frame;
      rpc::send_frame(s, frame);
      const std::optional<std::string> reply = rpc::recv_frame(s);
      if (!reply) throw rpc::TransportError("daemon closed the connection");
      const std::int64_t r = now_ns();
      const rpc::Response resp = rpc::decode_response(*reply);
      MutRec rec{j, admit, true, false, 0, t, r};
      if (const auto* a = std::get_if<rpc::AdmitBatchResponse>(&resp);
          a != nullptr && admit && a->admitted.size() == 1) {
        rec.error = false;
        rec.ok = a->admitted[0] == 1;
        rec.flows_after = a->flows_after;
      } else if (const auto* rm = std::get_if<rpc::RemoveResponse>(&resp);
                 rm != nullptr && !admit) {
        rec.error = false;
        rec.ok = rm->removed;
      }
      if (w.holds(r)) log.window_bytes += frame.size() + reply->size();
      log.muts.push_back(rec);
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

std::string stats_json(const rpc::StatsResponse& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"evaluations\":%zu,\"full_runs\":%zu,\"incremental_runs\":%zu,"
      "\"flow_analyses\":%zu,\"flow_results_reused\":%zu,\"sweeps\":%zu,"
      "\"accel_accepted\":%zu,\"accel_rejected\":%zu,\"flows\":%" PRIu64
      ",\"shards\":%" PRIu64 ",\"epoch\":%" PRIu64 ",\"commit_seq\":%" PRIu64
      ",\"uptime_ms\":%" PRIu64 ",\"active_connections\":%" PRIu64
      ",\"frames_served\":%" PRIu64 ",\"coalesced_commits\":%" PRIu64
      ",\"pipelined_hwm\":%" PRIu64 ",\"solver_mode\":%u}",
      s.stats.evaluations, s.stats.full_runs, s.stats.incremental_runs,
      s.stats.flow_analyses, s.stats.flow_results_reused, s.stats.sweeps,
      s.stats.accel_accepted, s.stats.accel_rejected, s.flows, s.shards,
      s.epoch, s.commit_seq, s.uptime_ms, s.active_connections,
      s.frames_served, s.coalesced_commits, s.pipelined_hwm,
      static_cast<unsigned>(s.solver_mode));
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), metric.value,
                  metric.unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fold(std::uint64_t h, const Verdict& v) {
  h = fnv1a(h, v.admissible ? 1 : 0);
  h = fnv1a(h, static_cast<std::uint64_t>(v.sweeps));
  return fnv1a(h, v.flow_count);
}

int run(const Args& args) {
  std::string why;
  if (!measurable_build(why)) {
    std::fprintf(stderr, "gmfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  // ------------------------------------------------------------- inputs --
  const Workload wl = make_workload(args.workload, args.seed);
  const std::string scn = gmfnet::io::format_scenario(wl.world);
  const gmfnet::workload::Scenario parsed = gmfnet::io::parse_scenario(scn);
  {
    gmfnet::io::ByteWriter a, b;
    gmfnet::io::codec::encode_network(a, wl.world.network);
    gmfnet::io::codec::encode_network(b, parsed.network);
    if (a.bytes() != b.bytes() || parsed.flows != wl.world.flows) {
      std::fprintf(stderr, "gmfbench: scenario round trip is not exact\n");
      return 1;
    }
  }
  const std::string scn_path = args.workdir + "/world.scn";
  const std::string sock_path = args.workdir + "/gmfnetd.sock";
  const std::string log_path = args.workdir + "/gmfnetd.log";
  {
    std::ofstream out(scn_path);
    out << scn;
    if (!out) throw std::runtime_error("cannot write " + scn_path);
  }

  // Connections: readers + writer + control stay within nproc, and so do
  // the busy generator threads plus the reactor plus the reader pool.
  const int probe_conns =
      std::max(1, std::min<int>(wl.probe_conns, static_cast<int>(nproc) - 2));
  const int readers = std::max(1, static_cast<int>(nproc) - wl.busy_gen - 1);
  const std::vector<std::string> daemon_args = {
      "--unix", sock_path, "--scenario", scn_path, "--readers",
      std::to_string(readers)};

  // -------------------------------------------------------------- mirror --
  auto mirror = std::make_unique<engine::AnalysisEngine>(parsed.network);
  for (const gmf::Flow& f : parsed.flows) mirror->add_flow(f);
  (void)mirror->evaluate();
  const std::size_t n0 = mirror->flow_count();
  std::vector<Verdict> expect;  // per candidate, in the boot world
  std::uint64_t mirror_sum = 0xCBF29CE484222325ull;
  for (const gmf::Flow& c : wl.candidates) {
    expect.push_back(verdict_of(mirror->what_if(c)));
    mirror_sum = fold(mirror_sum, expect.back());
  }
  std::vector<bool> admit_ok;
  for (const gmf::Flow& c : wl.churn) {
    admit_ok.push_back(mirror->what_if(c).admissible);
  }

  // -------------------------------------------------------------- frames --
  const std::size_t groups = wl.candidates.size() / wl.batch;
  std::vector<std::string> probe_frames;
  for (std::size_t g = 0; g < groups; ++g) {
    rpc::WhatIfBatchRequest req;
    req.candidates.assign(
        wl.candidates.begin() + static_cast<std::ptrdiff_t>(g * wl.batch),
        wl.candidates.begin() + static_cast<std::ptrdiff_t>((g + 1) * wl.batch));
    req.verdict_only = true;
    probe_frames.push_back(rpc::encode_request(rpc::Request{std::move(req)}));
  }
  std::vector<std::string> admit_frames;
  for (const gmf::Flow& c : wl.churn) {
    rpc::AdmitBatchRequest req;
    req.flows = {c};
    admit_frames.push_back(rpc::encode_request(rpc::Request{std::move(req)}));
  }
  const std::string remove_frame = rpc::encode_request(
      rpc::Request{rpc::RemoveRequest{static_cast<std::uint64_t>(n0)}});
  const std::string stats_frame =
      rpc::encode_request(rpc::Request{rpc::StatsRequest{}});
  const std::string shutdown_frame =
      rpc::encode_request(rpc::Request{rpc::ShutdownRequest{}});

  // --------------------------------------------------------------- setup --
  // Spawn to first answered STATS, kBoots times; the last daemon serves
  // the run.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  rpc::Socket ctl;
  for (int b = 0; b < kBoots; ++b) {
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(args.daemon, daemon_args, log_path);
    ctl = connect_retry(sock_path, 60'000);
    ctl.set_recv_timeout_ms(kIoTimeoutMs);
    (void)exchange(ctl, stats_frame);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (b + 1 < kBoots) {
      (void)exchange(ctl, shutdown_frame);
      ctl.close();
      if (daemon->wait_exit(10'000) != 0) {
        std::fprintf(stderr, "gmfbench: boot %d did not exit cleanly\n", b);
        return 1;
      }
    }
  }

  // ---------------------------------------------------------------- load --
  Window w;
  w.start_ns = now_ns() + kWarmupNs;
  w.end_ns = w.start_ns + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<ConnLog> logs(static_cast<std::size_t>(probe_conns) + 1);
  std::vector<std::vector<std::uint32_t>> scripts;
  for (int c = 0; c < probe_conns; ++c) {
    scripts.push_back(request_script(groups, args.seed, c));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < probe_conns; ++c) {
    threads.emplace_back(probe_loop, std::cref(sock_path),
                         std::cref(probe_frames), std::cref(scripts[static_cast<std::size_t>(c)]),
                         static_cast<std::size_t>(wl.probe_depth), wl.batch, w,
                         std::ref(logs[static_cast<std::size_t>(c)]));
  }
  threads.emplace_back(writer_loop, std::cref(sock_path),
                       std::cref(admit_frames), std::cref(remove_frame),
                       wl.pace_us, w, std::ref(logs.back()));
  const auto sleep_until_ns = [](std::int64_t t) {
    const std::int64_t d = t - now_ns();
    if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  };
  rpc::StatsResponse before, after;
  ProcSample proc_before, proc_after, proc_end;
  double steal_before = 0.0, steal_after = 0.0;
  std::string ctl_error;
  try {
    sleep_until_ns(w.start_ns);
    before = std::get<rpc::StatsResponse>(exchange(ctl, stats_frame));
    proc_before = read_proc(daemon->pid());
    steal_before = host_steal_s();
    sleep_until_ns(w.end_ns);
    after = std::get<rpc::StatsResponse>(exchange(ctl, stats_frame));
    proc_after = read_proc(daemon->pid());
    steal_after = host_steal_s();
  } catch (const std::exception& e) {
    ctl_error = e.what();
  }
  for (std::thread& t : threads) t.join();
  proc_end = read_proc(daemon->pid());
  int exit_status = -1;
  try {
    (void)exchange(ctl, shutdown_frame);
    exit_status = daemon->wait_exit(15'000);
  } catch (const std::exception& e) {
    ctl_error += std::string(ctl_error.empty() ? "" : "; ") + e.what();
    exit_status = daemon->wait_exit(0);
  }

  // ------------------------------------------------------------- checking --
  // The daemon's world is W0 or W0 + one churn flow; a probe may have seen
  // churn flow j iff j's admit was sent before the probe's answer came back
  // and j's removal was acknowledged after the probe was sent.
  struct Life {
    std::uint32_t churn;
    std::int64_t from, to;
  };
  std::vector<Life> lives;
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  const ConnLog& wlog = logs.back();
  for (std::size_t i = 0; i < wlog.muts.size(); ++i) {
    const MutRec& r = wlog.muts[i];
    ++attempted;
    bool good = !r.error && r.ok == admit_ok[r.churn];
    if (r.admit) {
      good = good && r.flows_after == n0 + (r.ok ? 1 : 0);
      if (r.ok) {
        const bool closed = i + 1 < wlog.muts.size();
        lives.push_back(Life{r.churn, r.send_ns,
                             closed ? wlog.muts[i + 1].recv_ns : INT64_MAX});
      }
    }
    if (!good) {
      ++failed;
      if (!r.error && mismatches++ < 5) {
        std::fprintf(stderr,
                     "gmfbench: %s of %s: daemon ok=%d flows_after=%" PRIu64
                     ", mirror ok=%d\n",
                     r.admit ? "admit" : "remove",
                     wl.churn[r.churn].name().c_str(), r.ok, r.flows_after,
                     static_cast<int>(admit_ok[r.churn]));
      }
    }
  }
  const auto overlapping = [&lives](std::int64_t s, std::int64_t r) {
    std::vector<std::uint32_t> out;
    auto it = std::lower_bound(
        lives.begin(), lives.end(), s,
        [](const Life& l, std::int64_t t) { return l.to < t; });
    for (; it != lives.end() && it->from <= r; ++it) out.push_back(it->churn);
    return out;
  };
  // First pass: which (candidate, churn) worlds the mirror must answer.
  std::map<std::uint32_t, std::vector<std::uint32_t>> need;  // churn -> cands
  for (int c = 0; c < probe_conns; ++c) {
    const ConnLog& log = logs[static_cast<std::size_t>(c)];
    for (const ProbeRec& p : log.probes) {
      if (p.error) continue;
      for (std::size_t b = 0; b < wl.batch; ++b) {
        const auto ci = static_cast<std::uint32_t>(p.group * wl.batch + b);
        if (log.verdicts[p.verdicts + b] == expect[ci]) continue;
        for (const std::uint32_t j : overlapping(p.send_ns, p.recv_ns)) {
          need[j].push_back(ci);
        }
      }
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, Verdict> with_churn;
  for (auto& [j, cands] : need) {
    mirror->add_flow(wl.churn[j]);
    (void)mirror->evaluate();
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    for (const std::uint32_t ci : cands) {
      with_churn[{ci, j}] = verdict_of(mirror->what_if(wl.candidates[ci]));
    }
    (void)mirror->remove_flow(n0);
    (void)mirror->evaluate();
  }
  std::uint64_t verdict_sum = 0xCBF29CE484222325ull;
  for (int c = 0; c < probe_conns; ++c) {
    const ConnLog& log = logs[static_cast<std::size_t>(c)];
    for (const ProbeRec& p : log.probes) {
      for (std::size_t b = 0; b < wl.batch; ++b) {
        ++attempted;
        if (p.error) {
          ++failed;
          continue;
        }
        const auto ci = static_cast<std::uint32_t>(p.group * wl.batch + b);
        const Verdict& v = log.verdicts[p.verdicts + b];
        verdict_sum = fold(verdict_sum, v);
        bool good = v == expect[ci];
        for (const std::uint32_t j : overlapping(p.send_ns, p.recv_ns)) {
          if (good) break;
          good = v == with_churn[{ci, j}];
        }
        if (!good) {
          if (mismatches < 5) {
            std::fprintf(stderr,
                         "gmfbench: verdict mismatch on %s: daemon "
                         "(%d, %d sweeps, %" PRIu64 " flows), mirror (%d, %d "
                         "sweeps, %" PRIu64 " flows)\n",
                         wl.candidates[ci].name().c_str(), v.admissible,
                         v.sweeps, v.flow_count, expect[ci].admissible,
                         expect[ci].sweeps, expect[ci].flow_count);
          }
          ++failed;
          ++mismatches;
        }
      }
    }
  }
  std::string errors = ctl_error;
  for (const ConnLog& log : logs) {
    if (!log.error.empty()) {
      errors += (errors.empty() ? "" : "; ") + log.error;
      ++failed;  // the in-flight tail of a broken connection is lost
    }
  }
  if (exit_status != 0) {
    errors += (errors.empty() ? "" : "; ") +
              std::string("gmfnetd exit status ") + std::to_string(exit_status);
  }
  const bool correct = failed == 0 && errors.empty();
  if (!errors.empty()) std::fprintf(stderr, "gmfbench: %s\n", errors.c_str());

  // -------------------------------------------------------------- metrics --
  // Every rate and latency is computed per sub-window and reported as the
  // median over the sub-windows, so one disturbed stretch of a run (a
  // noisy neighbour, a stall) cannot move it.
  std::vector<SubWindow> probe_sw(kSubWindows), mut_sw(kSubWindows),
      commit_sw(kSubWindows);
  const auto part = [&w](std::int64_t t) {
    const auto k = static_cast<std::size_t>((t - w.start_ns) * kSubWindows /
                                            (w.end_ns - w.start_ns + 1));
    return std::min<std::size_t>(k, kSubWindows - 1);
  };
  std::vector<double> probe_lat, mut_lat;
  double window_probes = 0, window_muts = 0, sweeps_sum = 0;
  std::uint64_t window_bytes = 0;
  for (const ConnLog& log : logs) {
    window_bytes += log.window_bytes;
    for (const ProbeRec& p : log.probes) {
      if (!w.holds(p.recv_ns) || p.error) continue;
      const double us = static_cast<double>(p.recv_ns - p.send_ns) / 1e3;
      probe_lat.push_back(us);
      probe_sw[part(p.recv_ns)].add(p.recv_ns, us,
                                     static_cast<double>(wl.batch));
      window_probes += static_cast<double>(wl.batch);
      for (std::size_t b = 0; b < wl.batch; ++b) {
        sweeps_sum += log.verdicts[p.verdicts + b].sweeps;
      }
    }
    for (const MutRec& r : log.muts) {
      if (!w.holds(r.recv_ns) || r.error) continue;
      const double us = static_cast<double>(r.recv_ns - r.send_ns) / 1e3;
      mut_lat.push_back(us);
      mut_sw[part(r.recv_ns)].add(r.recv_ns, us, 1.0);
      commit_sw[part(r.recv_ns)].add(r.recv_ns, us, r.ok ? 1.0 : 0.0);
      window_muts += 1;
    }
  }
  const double ops = window_probes + window_muts;
  Metrics m;
  const auto put = [&m](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  const double probe_p50 = SubWindow::median_of(
      probe_sw, [](const SubWindow& s) { return percentile(s.lat, 0.5); });
  if (!args.trace) {
    put("setup_s", median(setup_s), "s");
    put("probe_qps",
        SubWindow::median_of(probe_sw, [](const SubWindow& s) { return s.rate(); }),
        "1/s");
    put("probe_p50_us", probe_p50, "us");
    put("admit_qps",
        SubWindow::median_of(commit_sw, [](const SubWindow& s) { return s.rate(); }),
        "1/s");
    put("admit_p50_us",
        SubWindow::median_of(
            mut_sw, [](const SubWindow& s) { return percentile(s.lat, 0.5); }),
        "us");
    put("cpu_us_per_op", (proc_after.cpu_s - proc_before.cpu_s) * 1e6 / ops,
        "us");
    put("daemon_rss_mb", proc_end.hwm_mb, "MB");
  } else {
    ReplayInput in;
    in.wl = &wl;
    in.scenario_text = scn;
    for (int c = 0; c < probe_conns; ++c) {
      for (const ProbeRec& p : logs[static_cast<std::size_t>(c)].probes) {
        in.probe_groups.push_back(p.group);
      }
    }
    for (const MutRec& r : wlog.muts) {
      if (r.admit) in.churn_pairs.push_back(r.churn);
    }
    m = run_traced_replay(in, args.workdir + "/trace-" + args.workload + "-" +
                                  std::to_string(args.seed) + ".json");
    const auto delta = [&](std::size_t engine::EngineStats::*f) {
      return static_cast<double>(after.stats.*f - before.stats.*f);
    };
    const double muts = std::max(1.0, window_muts);
    // The engine time on a request's critical path: the batch's in-process
    // evaluate_batch, or the single probe.
    put("rpc.overhead_us",
        probe_p50 - m[wl.batch > 1 ? "engine.batch_what_if_us"
                                   : "engine.what_if_p50_us"]
                        .value,
        "us");
    put("rpc.bytes_per_op", static_cast<double>(window_bytes) / ops, "B");
    put("rpc.frames_per_op",
        static_cast<double>(after.frames_served - before.frames_served) / ops,
        "count");
    put("rpc.pipelined_hwm", static_cast<double>(after.pipelined_hwm),
        "count");
    put("engine.sweeps_per_probe", sweeps_sum / std::max(1.0, window_probes),
        "count");
    put("engine.sweeps_per_commit", delta(&engine::EngineStats::sweeps) / muts,
        "count");
    put("engine.flow_analyses_per_op",
        delta(&engine::EngineStats::flow_analyses) / muts, "count");
    const double reused = delta(&engine::EngineStats::flow_results_reused);
    put("engine.reuse_frac",
        reused / std::max(1.0, reused +
                                   delta(&engine::EngineStats::flow_analyses)),
        "fraction");
    put("engine.full_runs_per_commit",
        delta(&engine::EngineStats::full_runs) / muts, "count");
    put("engine.shards", static_cast<double>(after.shards), "count");
  }

  // ----------------------------------------------------------- provenance --
  char prov[4096];
  std::string flags_joined;
  for (const std::string& a : daemon_args) flags_joined += " " + a;
  std::snprintf(
      prov, sizeof prov,
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"held_out_seed\": %" PRIu64 ", \"seconds\": %.3f, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s %s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"source_id\": \"%s\", \"daemon_flags\": "
      "\"%s\", \"readers\": %d, \"load_connections\": %d, "
      "\"generator_threads\": %d, \"probe_depth\": %d, "
      "\"writer_pace_us\": %d, \"residents\": %zu, \"candidates\": %zu, "
      "\"batch\": %zu, \"churn\": %zu, \"probe_samples\": %zu, "
      "\"mutation_samples\": %zu, \"setup_samples\": %zu, "
      "\"probe_p90_us\": %.1f, \"probe_p99_us\": %.1f, "
      "\"admit_p90_us\": %.1f, "
      "\"admit_p99_us\": %.1f, \"sub_windows\": %zu, \"steal_s\": %.2f, "
      "\"mirror_checksum\": \"%016" PRIx64 "\", \"verdict_checksum\": \"%016"
      PRIx64 "\", \"mismatches\": %" PRIu64 ", \"daemon_exit\": %d, "
      "\"stats_before\": %s, \"stats_after\": %s}}",
      args.workload.c_str(), args.seed, kHeldOutSeed,
      static_cast<double>(w.end_ns - w.start_ns) / 1e9, args.trace ? 1 : 0,
      nproc,
#if defined(__clang__)
      "clang",
#else
      "gcc",
#endif
      __VERSION__, GMFBENCH_BUILD_TYPE, GMFBENCH_CXX_FLAGS,
      args.source_id.c_str(), flags_joined.c_str(), readers, probe_conns + 2,
      probe_conns + 2, wl.probe_depth, wl.pace_us, n0,
      wl.candidates.size(), wl.batch, wl.churn.size(), probe_lat.size(),
      mut_lat.size(), setup_s.size(), percentile(probe_lat, 0.9),
      percentile(probe_lat, 0.99),
      percentile(mut_lat, 0.9), percentile(mut_lat, 0.99), kSubWindows,
      steal_after - steal_before, mirror_sum, verdict_sum, mismatches,
      exit_status, stats_json(before).c_str(), stats_json(after).c_str());
  std::printf("%s\n", prov);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gmfbench: %s\n", e.what());
    return 1;
  }
}
