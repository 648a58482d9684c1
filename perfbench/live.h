// The live side of the benchmark: cqac_serve as a child process, blocking
// loopback clients, and the /proc readings the end-to-end metrics need.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A running cqac_serve. Start() forks and execs it with `args` and waits
/// for its "listening" line; the destructor SIGKILLs and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Empty on success, otherwise why the server did not come up.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& stderr_path);
  /// SIGKILL and reap; a no-op when not running.
  void Kill();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One blocking, line-oriented loopback connection.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port);
  /// Sends `line` plus '\n' and reads one response line (without '\n').
  /// False on a transport error.
  bool Call(const std::string& line, std::string* response);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid);
/// VmHWM of `pid` in MiB, from /proc/<pid>/status.
double ProcessPeakRssMiB(pid_t pid);

/// Aggregate CPU jiffies from /proc/stat, for the steal-time share.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Total bytes of regular files below `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// `rm -rf dir` for a directory the benchmark created.
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
