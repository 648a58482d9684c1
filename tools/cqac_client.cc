// cqac_client — a line-oriented client for cqac_serve.
//
// Usage:
//   cqac_client --port N [--host H] [--check] [--retries N] [file | -]
//
// Reads request lines (one JSON object per line; blank lines and lines
// starting with '#' are skipped) from the file or stdin, sends each to the
// server in strict request/response lockstep, and prints each response line
// to stdout. With --check, exits 1 if any response carries "ok":false
// (otherwise the exit status only reflects transport failures).
//
// --retries N tolerates a restarting server (e.g. one recovering a
// --data-dir): a refused connect — and a connection lost mid-stream — is
// retried up to N times with exponential backoff plus jitter (100ms base,
// doubling, ±50%) instead of being fatal. After a mid-stream reconnect the
// in-flight request line is sent again; against a durable server replaying
// an idempotent request stream this resumes exactly where the stream broke.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "src/base/strings.h"

namespace cqac {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cqac_client --port N [--host H] [--check] "
               "[--retries N] [file | -]\n");
  return 3;
}

/// Sleeps the exponential-backoff delay for retry `attempt` (0-based):
/// 100ms * 2^attempt, jittered ±50% so a fleet of retrying clients does not
/// stampede a recovering server, capped at 5s.
void BackoffSleep(int attempt, std::mt19937* rng) {
  double base_ms = 100.0 * static_cast<double>(1u << std::min(attempt, 10));
  base_ms = std::min(base_ms, 5000.0);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  auto delay = std::chrono::duration<double, std::milli>(base_ms * jitter(*rng));
  std::this_thread::sleep_for(delay);
}

/// Connects to host:port; returns the socket fd or -1.
int Connect(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line into *line (newline stripped); `acc`
/// carries bytes read past the previous line.
bool RecvLine(int fd, std::string* acc, std::string* line) {
  size_t pos;
  while ((pos = acc->find('\n')) == std::string::npos) {
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    acc->append(buf, static_cast<size_t>(n));
  }
  *line = acc->substr(0, pos);
  acc->erase(0, pos + 1);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

int Run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string input = "-";
  uint16_t port = 0;
  bool check = false;
  int retries = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--port") {
      size_t n = 0;
      if (i + 1 >= argc || !ParseSize(argv[++i], &n) || n == 0 || n > 65535)
        return Usage();
      port = static_cast<uint16_t>(n);
    } else if (arg == "--host") {
      if (i + 1 >= argc) return Usage();
      host = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--retries") {
      size_t n = 0;
      if (i + 1 >= argc || !ParseSize(argv[++i], &n) || n > 1000)
        return Usage();
      retries = static_cast<int>(n);
    } else if (arg == "-" || arg[0] != '-') {
      input = arg;
    } else {
      std::fprintf(stderr, "cqac_client: unknown option '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (port == 0) return Usage();

  std::string text;
  if (input == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "cqac_client: cannot open %s\n", input.c_str());
      return 3;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  std::mt19937 rng(std::random_device{}());
  auto connect_with_retries = [&]() -> int {
    for (int attempt = 0;; ++attempt) {
      int fd = Connect(host, port);
      if (fd >= 0) return fd;
      if (attempt >= retries) return -1;
      std::fprintf(stderr,
                   "cqac_client: connect to %s:%u failed, retry %d/%d\n",
                   host.c_str(), static_cast<unsigned>(port), attempt + 1,
                   retries);
      BackoffSleep(attempt, &rng);
    }
  };

  int fd = connect_with_retries();
  if (fd < 0) {
    std::fprintf(stderr, "cqac_client: cannot connect to %s:%u\n",
                 host.c_str(), static_cast<unsigned>(port));
    return 2;
  }

  int rc = 0;
  int reconnects = 0;  // bounds mid-stream reconnects across the whole run
  std::string acc;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::string response;
    while (!SendAll(fd, line + "\n") || !RecvLine(fd, &acc, &response)) {
      ::close(fd);
      fd = -1;
      if (reconnects++ >= retries) {
        std::fprintf(stderr, "cqac_client: connection lost\n");
        return 2;
      }
      std::fprintf(stderr,
                   "cqac_client: connection lost, reconnecting to resend "
                   "the in-flight request\n");
      acc.clear();  // a partial response from the dead connection is stale
      fd = connect_with_retries();
      if (fd < 0) {
        std::fprintf(stderr, "cqac_client: cannot reconnect to %s:%u\n",
                     host.c_str(), static_cast<unsigned>(port));
        return 2;
      }
    }
    std::printf("%s\n", response.c_str());
    if (check && response.rfind("{\"ok\":false", 0) == 0) rc = 1;
  }
  ::close(fd);
  return rc;
}

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) { return cqac::Run(argc, argv); }
