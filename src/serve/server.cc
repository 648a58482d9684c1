#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/serve/json_value.h"
#include "src/serve/protocol.h"

namespace cqac {
namespace serve {

namespace {

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

size_t ShardForSession(const std::string& session, size_t shards) {
  if (shards <= 1) return 0;
  // FNV-1a, 64-bit: stable across platforms and releases — session pinning
  // is part of the operational contract (docs/serve.md).
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : session) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % shards);
}

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    if (options_.threads_per_shard > 0) {
      shard->owned_pool =
          std::make_unique<TaskPool>(options_.threads_per_shard);
      shard->ctx.set_task_pool(shard->owned_pool.get());
    }
    shard->service = std::make_unique<Service>(shard->ctx, options_.service);
    shard->service->set_shard(i, options_.shards);
    shard->service->set_cluster_view([this] { return ShardSummaries(); });
    shards_.push_back(std::move(shard));
  }
}

Server::~Server() { Stop(); }

std::string RecoverySummary::ToString() const {
  return StrCat(sessions, " sessions recovered, ", replayed_records,
                " log records replayed",
                any_tail_truncated ? ", torn wal tail truncated" : "");
}

Status Server::OpenStore(RecoverySummary* summary) {
  if (options_.data_dir.empty() || store_opened_) return Status::OK();
  CQAC_RETURN_IF_ERROR(store::InitDataDir(
      options_.data_dir, static_cast<uint32_t>(shards_.size())));

  // Shard logs are independent files and recovery replays through each
  // shard's private context, so all shards recover in parallel — startup
  // latency is the slowest shard, not the sum.
  std::vector<Status> statuses(shards_.size(), Status::OK());
  std::vector<store::RecoveredShard> recovered(shards_.size());
  {
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers.emplace_back([this, i, &statuses, &recovered] {
        Result<store::RecoveredShard> r = store::RecoverShard(
            shards_[i]->ctx,
            store::ShardDirPath(options_.data_dir,
                                static_cast<uint32_t>(i)));
        if (r.ok())
          recovered[i] = std::move(r).value();
        else
          statuses[i] = r.status();
      });
    }
    for (std::thread& w : workers) w.join();
  }

  stores_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    CQAC_RETURN_IF_ERROR(statuses[i]);
    for (std::unique_ptr<store::SessionState>& s : recovered[i].sessions) {
      if (ShardForSession(s->name, shards_.size()) != i)
        return Status::Inconsistent(
            StrCat("recovered session '", s->name, "' found in shard ", i,
                   " but pins to shard ",
                   ShardForSession(s->name, shards_.size()),
                   "; was the data dir rearranged by hand?"));
      CQAC_RETURN_IF_ERROR(shards_[i]->service->sessions().Adopt(
          std::make_unique<Session>(std::move(*s))));
    }
    Result<std::unique_ptr<store::ShardStore>> st = store::ShardStore::Open(
        options_.data_dir, static_cast<uint32_t>(i),
        static_cast<uint32_t>(shards_.size()), options_.store,
        &shards_[i]->ctx);
    CQAC_RETURN_IF_ERROR(st.status());
    stores_[i] = std::move(st).value();
    shards_[i]->service->set_store(stores_[i].get());
    if (summary != nullptr) {
      summary->sessions += recovered[i].sessions.size();
      summary->replayed_records += recovered[i].replayed_records;
      summary->snapshot_lsn_max =
          std::max(summary->snapshot_lsn_max, recovered[i].snapshot_lsn);
      summary->any_tail_truncated |= recovered[i].wal_tail_truncated;
    }
  }
  store_opened_ = true;
  return Status::OK();
}

Status Server::Start() {
  CQAC_RETURN_IF_ERROR(OpenStore());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(StrCat("bind: ", std::strerror(errno)));
    CloseFd(listen_fd_);
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Internal(StrCat("listen: ", std::strerror(errno)));
    CloseFd(listen_fd_);
    return st;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    Status st =
        Status::Internal(StrCat("getsockname: ", std::strerror(errno)));
    CloseFd(listen_fd_);
    return st;
  }
  port_ = ntohs(bound.sin_port);

  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->engine_thread = std::thread([this, s] { EngineLoop(*s); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::RequestDrain() {
  bool was_draining = draining_.exchange(true);
  if (was_draining) return;
  // shutdown() (not close()) wakes the thread blocked in accept(); the fd
  // itself is closed in Stop() after the accept thread has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& shard : shards_) shard->queue_cv.notify_all();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] { return shards_done_ == shards_.size(); });
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  RequestDrain();
  for (auto& shard : shards_)
    if (shard->engine_thread.joinable()) shard->engine_thread.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  // Shut down every connection so its reader sees EOF, then join readers.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto& [id, conn] : connections_) conns.push_back(conn);
    connections_.clear();
  }
  for (auto& conn : conns) {
    {
      std::lock_guard<std::mutex> lk(conn->order_mu);
      conn->closed.store(true, std::memory_order_release);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (conn->reader.joinable()) conn->reader.join();
    std::lock_guard<std::mutex> lk(conn->order_mu);
    CloseFd(conn->fd);
  }
}

std::vector<ShardSummary> Server::ShardSummaries() const {
  std::vector<ShardSummary> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSummary s = shard->service->Summary();
    {
      std::lock_guard<std::mutex> lk(shard->queue_mu);
      s.queue_depth = shard->queue.size();
    }
    s.enqueued = shard->enqueued.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void Server::AcceptLoop() {
  while (true) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR && !draining_.load(std::memory_order_acquire))
        continue;
      return;  // listen socket shut down (drain) or fatal error
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(client);
      return;
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      conn->id = next_conn_id_++;
      connections_[conn->id] = conn;
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    ReapFinishedConnections();
  }
}

void Server::ReapFinishedConnections() {
  std::vector<std::shared_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second->reader_done.load(std::memory_order_acquire)) {
        done.push_back(it->second);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done) {
    if (conn->reader.joinable()) conn->reader.join();
    std::lock_guard<std::mutex> lk(conn->order_mu);
    CloseFd(conn->fd);
  }
}

// Stage 1 of the pipeline: framing, byte-cap enforcement, JSON + envelope
// parsing, sequence stamping, and shard routing — all off the engine
// threads. Parse and envelope errors are answered here and accounted to
// shard 0 (no session is known for them).
void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string acc;
  char buf[4096];
  bool fatal = false;
  while (!fatal) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF or error: client is gone
    acc.append(buf, static_cast<size_t>(n));
    size_t pos;
    while (!fatal && (pos = acc.find('\n')) != std::string::npos) {
      std::string line = acc.substr(0, pos);
      acc.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      uint64_t seq = conn->next_request_seq++;
      if (line.size() > options_.max_request_bytes) {
        WriteSequenced(*conn, seq,
                       ErrorResponse(nullptr, ServeErrorCode::kTooLarge,
                                     "request line exceeds the size cap"));
        fatal = true;
        break;
      }
      if (draining_.load(std::memory_order_acquire)) {
        WriteSequenced(*conn, seq,
                       ErrorResponse(nullptr, ServeErrorCode::kShuttingDown,
                                     "server is draining; request rejected"));
        continue;
      }
      Result<JsonValue> json = ParseJson(line);
      if (!json.ok()) {
        shards_[0]->service->CountPreparseError();
        WriteSequenced(*conn, seq,
                       ErrorResponse(nullptr, ServeErrorCode::kParseError,
                                     json.status().message()));
        continue;
      }
      Result<Request> parsed = ParseRequestEnvelope(std::move(json).value());
      if (!parsed.ok()) {
        shards_[0]->service->CountPreparseError();
        WriteSequenced(*conn, seq,
                       ErrorResponse(nullptr, ServeErrorCode::kInvalidRequest,
                                     parsed.status().message()));
        continue;
      }
      EnqueueRequest(conn, seq, std::move(parsed).value());
    }
    // A partial line past the cap can never frame a valid request; fail
    // now instead of buffering without bound.
    if (acc.size() > options_.max_request_bytes) {
      WriteSequenced(*conn, conn->next_request_seq++,
                     ErrorResponse(nullptr, ServeErrorCode::kTooLarge,
                                   "request line exceeds the size cap"));
      fatal = true;
    }
  }
  conn->closed.store(true, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
  // Cooperative cancellation: if any shard's engine thread is currently
  // executing a request from this connection, tell it to stop — nobody is
  // left to read the answer. (Spurious cancels are impossible: a shard
  // clears executing_conn_id before it returns, and Service::ExecuteParsed
  // clears the cancel flag at the start of the next request.)
  for (auto& shard : shards_)
    if (shard->executing_conn_id.load(std::memory_order_acquire) == conn->id)
      shard->ctx.RequestCancel();
  conn->reader_done.store(true, std::memory_order_release);
}

void Server::EnqueueRequest(const std::shared_ptr<Connection>& conn,
                            uint64_t seq, Request request) {
  Shard& shard =
      *shards_[ShardForSession(request.session, shards_.size())];
  bool overloaded = false;
  bool draining = false;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(shard.queue_mu);
    // The drain check must happen under queue_mu: the engine thread only
    // exits after observing (draining && queue empty) under this lock, so
    // a request admitted here is guaranteed to be answered.
    if (draining_.load(std::memory_order_acquire)) {
      draining = true;
    } else if (shard.queue.size() >= options_.max_queue) {
      overloaded = true;
    } else {
      shard.queue.push_back(QueueItem{conn, seq, std::move(request)});
      depth = shard.queue.size();
    }
  }
  if (draining) {
    WriteSequenced(*conn, seq,
                   ErrorResponse(&request, ServeErrorCode::kShuttingDown,
                                 "server is draining; request rejected"));
    return;
  }
  if (overloaded) {
    // Per-shard backpressure: only this shard is full; the client can keep
    // talking to sessions on the other shards.
    ++shard.ctx.stats().serve_overload_rejections;
    WriteSequenced(
        *conn, seq,
        ErrorResponse(&request, ServeErrorCode::kOverloaded,
                      StrCat("shard ", shard.index,
                             " request queue is full; retry later")));
    return;
  }
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  shard.ctx.stats().serve_queue_peak.MaxWith(depth);
  shard.queue_cv.notify_one();
}

// Stage 2: one engine thread per shard executes that shard's requests
// strictly in arrival order against the shard-private context and session
// table, then writes each response itself through the connection's
// sequencer. When it returns, the shard has answered and written every
// request it admitted.
void Server::EngineLoop(Shard& shard) {
  while (true) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lk(shard.queue_mu);
      shard.queue_cv.wait(lk, [&] {
        return !shard.queue.empty() ||
               draining_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) break;  // draining, nothing left to answer
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    shard.executing_conn_id.store(item.conn->id, std::memory_order_release);
    bool shutdown_requested = false;
    std::string response =
        shard.service->ExecuteParsed(item.request, &shutdown_requested);
    shard.executing_conn_id.store(0, std::memory_order_release);
    WriteSequenced(*item.conn, item.seq, std::move(response));
    if (shutdown_requested) RequestDrain();
  }
  std::lock_guard<std::mutex> lk(done_mu_);
  ++shards_done_;
  done_cv_.notify_all();
}

void Server::WriteSequenced(Connection& conn, uint64_t seq,
                            std::string line) {
  std::lock_guard<std::mutex> lk(conn.order_mu);
  if (seq != conn.next_write_seq) {
    // An earlier response (possibly from another shard) is still pending;
    // hold this one until the gap closes.
    conn.held_responses.emplace(seq, std::move(line));
    return;
  }
  // In order: write, then flush any directly following held responses.
  // WriteLine drops silently on a closed connection, but the sequence
  // still advances — later responses must never stall behind a vanished
  // client.
  WriteLine(conn, line);
  ++conn.next_write_seq;
  auto it = conn.held_responses.begin();
  while (it != conn.held_responses.end() &&
         it->first == conn.next_write_seq) {
    WriteLine(conn, it->second);
    ++conn.next_write_seq;
    it = conn.held_responses.erase(it);
  }
}

void Server::WriteLine(Connection& conn, const std::string& line) {
  if (conn.closed.load(std::memory_order_acquire) || conn.fd < 0) return;
  // Set when the socket first has no room: the write may wait until then.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(conn.fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = std::chrono::steady_clock::now();
      if (!deadline) deadline = now + kSendTimeout;
      pollfd writable{conn.fd, POLLOUT, 0};
      const auto wait =
          std::chrono::ceil<std::chrono::milliseconds>(*deadline - now);
      // Room, a socket error for send to report, or a signal: try again.
      if (now < *deadline &&
          ::poll(&writable, 1, static_cast<int>(wait.count())) != 0)
        continue;
    }
    // Gone, or no room for kSendTimeout: closed either way.
    conn.closed.store(true, std::memory_order_release);
    ::shutdown(conn.fd, SHUT_RDWR);
    return;
  }
}

}  // namespace serve
}  // namespace cqac
