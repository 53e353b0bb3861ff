// gmfnetd process lifecycle for the benchmark: spawn on a private Unix
// socket, wait for the first answered STATS, sample /proc, and stop it —
// with a hard kill when it does not exit in time, so a hung daemon fails
// the run instead of hanging it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"

namespace perfbench {

/// CPU time and memory of a live process, from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0.0;   ///< utime + stime of all threads
  double hwm_mb = 0.0;  ///< VmHWM: peak resident set
};
[[nodiscard]] ProcSample read_proc(pid_t pid);

/// CPU time the hypervisor gave other guests while this one wanted to
/// run (the "steal" column of /proc/stat, all CPUs), in seconds.  Recorded
/// with every result: it explains runs slowed by a busy host.
[[nodiscard]] double host_steal_s();

class Daemon {
 public:
  /// Spawns `exe args...` with stdout and stderr appended to `log_path`.
  /// Throws std::runtime_error when the spawn fails.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  /// Kills (SIGKILL) and reaps the process if it is still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits up to `timeout_ms` for the process to exit; on timeout kills it
  /// (SIGKILL) and reaps it.  Returns the exit status, or -1 when it had to
  /// be killed or died on a signal.
  int wait_exit(int timeout_ms);

 private:
  pid_t pid_ = -1;
};

/// Connects to `path`, retrying until `timeout_ms` passes (the daemon binds
/// only after its boot solve).  Throws rpc::TransportError on timeout.
[[nodiscard]] gmfnet::rpc::Socket connect_retry(const std::string& path,
                                                int timeout_ms);

/// One synchronous exchange of an already-encoded request frame; throws on
/// transport errors, a closed connection, or an ERROR response.
[[nodiscard]] gmfnet::rpc::Response exchange(gmfnet::rpc::Socket& s,
                                             const std::string& frame);

}  // namespace perfbench
