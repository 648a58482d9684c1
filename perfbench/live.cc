#include "live.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::string& stderr_path) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return "pipe failed";
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    // The server must not outlive perfbench, however perfbench ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    close(out[0]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];
  // First stdout line: "cqac_serve listening on 127.0.0.1:PORT".
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    int left = static_cast<int>(std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline - Clock::now()).count());
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left <= 0 || poll(&p, 1, left) <= 0) return "no listening line";
    char buf[256];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return "server exited before listening";
    line.append(buf, static_cast<size_t>(n));
  }
  size_t colon = line.rfind(':', line.find('\n'));
  if (colon == std::string::npos) return "bad listening line: " + line;
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return port_ == 0 ? "bad listening line: " + line : "";
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Connect(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A hung server becomes a transport error instead of a hung benchmark.
  timeval timeout{60, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool Connection::Call(const std::string& line, std::string* response) {
  std::string out = line + "\n";
  for (size_t sent = 0; sent < out.size();) {
    ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  size_t scanned = 0;
  while (true) {
    size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      response->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    scanned = buffer_.size();
    char buf[65536];
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  size_t rparen = text.rfind(')');
  if (rparen == std::string::npos) return 0;
  std::istringstream rest(text.substr(rparen + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / sysconf(_SC_CLK_TCK);
}

double ProcessPeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  uint64_t v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user.
    if (i < 8) t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
