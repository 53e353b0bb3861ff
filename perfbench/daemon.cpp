#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

ProcSample read_proc(pid_t pid) {
  ProcSample out;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (std::getline(stat, line)) {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    const std::size_t close = line.rfind(')');
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
      if (i == 12 || i == 13) ticks += std::stod(field);
    }
    out.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(base + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.hwm_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return out;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (double& x : v) stat >> x;  // user nice system idle iowait irq softirq steal
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  std::vector<std::string> argv_s = {exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + exe + ": " +
                             std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) (void)wait_exit(0);
}

int Daemon::wait_exit(int timeout_ms) {
  if (pid_ <= 0) return -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0) {
      pid_ = -1;
      return -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      kill(pid_, SIGKILL);
      (void)waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

gmfnet::rpc::Socket connect_retry(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    try {
      return gmfnet::rpc::connect_unix(path, 1000);
    } catch (const gmfnet::rpc::TransportError&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

gmfnet::rpc::Response exchange(gmfnet::rpc::Socket& s,
                               const std::string& frame) {
  gmfnet::rpc::send_frame(s, frame);
  const std::optional<std::string> reply = gmfnet::rpc::recv_frame(s);
  if (!reply) throw gmfnet::rpc::TransportError("daemon closed connection");
  gmfnet::rpc::Response resp = gmfnet::rpc::decode_response(*reply);
  if (const auto* err = std::get_if<gmfnet::rpc::ErrorResponse>(&resp)) {
    throw std::runtime_error("daemon error: " + err->message);
  }
  return resp;
}

}  // namespace perfbench
