#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/index_maintainer.h"
#include "core/query_batch.h"
#include "learning/model_io.h"
#include "util/logging.h"

namespace metaprox::server {

namespace {

/// The listener's epoll tag; connection ids start at 1 and EpollLoop
/// reserves ~0 for Wake.
constexpr uint64_t kListenerTag = 0;

}  // namespace

QueryServer::QueryServer(IndexRegistry* indexes, ModelRegistry* models,
                         ServerOptions options, IndexMaintainer* maintainer)
    : indexes_(indexes),
      registry_(models),
      maintainer_(maintainer),
      options_(std::move(options)) {
  MX_CHECK_MSG(indexes_ != nullptr, "QueryServer needs an index registry");
  MX_CHECK_MSG(registry_ != nullptr, "QueryServer needs a model registry");
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  options_.default_k = std::max<size_t>(1, options_.default_k);
  options_.max_k = std::max(options_.max_k, options_.default_k);
  options_.max_pending = std::max(options_.max_pending, options_.max_batch);
  options_.max_pipeline = std::max<size_t>(1, options_.max_pipeline);
  options_.max_response_queue_bytes =
      std::max<size_t>(4096, options_.max_response_queue_bytes);
}

QueryServer::~QueryServer() { Stop(); }

util::Status QueryServer::Start() {
  MX_CHECK_MSG(!started_, "QueryServer::Start() called twice");
  // The registries must be paired: every registered model scores against
  // the served index's metagraph axis. A mismatch here means the caller
  // wired a registry built for some other offline phase.
  if (registry_->expected_weights() !=
      indexes_->Get()->index().num_metagraphs()) {
    return util::Status::FailedPrecondition(
        "model registry expects " +
        std::to_string(registry_->expected_weights()) +
        " weights but the served index has " +
        std::to_string(indexes_->Get()->index().num_metagraphs()) +
        " metagraphs");
  }
  if (!IsValidModelName(options_.default_model)) {
    return util::Status::InvalidArgument("invalid default model name: '" +
                                         options_.default_model + "'");
  }
  // v1 lines are answered from the default model, so a server without it
  // would refuse every legacy client — fail loudly now, not per request.
  if (registry_->Get(options_.default_model) == nullptr) {
    return util::Status::FailedPrecondition(
        "default model '" + options_.default_model +
        "' is not in the registry");
  }
  // A C10K connect burst overflows the default backlog of 128 and the
  // kernel silently drops the SYNs; listen deep enough for the connection
  // limit we intend to serve.
  const int backlog = static_cast<int>(std::clamp<size_t>(
      options_.max_connections, 128, 4096));
  auto listener = util::ListenTcpLoopback(options_.port, backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  auto nonblock = util::SetNonBlocking(listener_);
  if (!nonblock.ok()) return nonblock;
  auto port = util::LocalTcpPort(listener_);
  if (!port.ok()) return port.status();
  port_ = *port;

  auto loop = EpollLoop::Create();
  if (!loop.ok()) return loop.status();
  loop_ = std::make_unique<EpollLoop>(std::move(*loop));
  auto added = loop_->Add(listener_.fd(), kListenerTag, /*want_read=*/true,
                          /*want_write=*/false);
  if (!added.ok()) return added;

  const size_t workers = util::ResolveNumThreads(options_.num_threads);
  if (workers > 1) pool_ = std::make_unique<util::ThreadPool>(workers);

  started_ = true;
  reactor_thread_ = std::thread(&QueryServer::ReactorLoop, this);
  batcher_thread_ = std::thread(&QueryServer::BatcherLoop, this);
  if (options_.admin) {
    admin_thread_ = std::thread(&QueryServer::AdminLoop, this);
  }
  return util::Status::Ok();
}

void QueryServer::Stop() {
  if (!started_) return;
  {
    mx::MutexLock lock(queue_mu_);
    draining_.store(true);
  }
  queue_cv_.NotifyAll();
  admin_cv_.NotifyAll();
  loop_->Wake();
  // Join the producers first: once they are gone, every response that
  // will ever exist is in an outbox, and the reactor's "all outboxes
  // empty" check is a final answer.
  if (batcher_thread_.joinable()) batcher_thread_.join();
  if (admin_thread_.joinable()) admin_thread_.join();
  producers_done_.store(true);
  loop_->Wake();
  if (reactor_thread_.joinable()) reactor_thread_.join();
}

ServerStats QueryServer::stats() const {
  mx::MutexLock lock(stats_mu_);
  return stats_;
}

// ---- reactor thread -------------------------------------------------------

void QueryServer::ReactorLoop() {
  using Clock = std::chrono::steady_clock;
  std::vector<EpollLoop::Event> events;
  Clock::time_point drain_deadline{};
  bool drain_deadline_set = false;

  while (true) {
    // While draining the loop polls: producers may still be filling
    // outboxes, and the exit condition below needs re-checking.
    const int timeout_millis = drain_started_ ? 10 : -1;
    auto waited = loop_->Wait(timeout_millis, &events);
    if (!waited.ok()) {
      MX_LOG(Warning) << "reactor wait failed: "
                      << waited.status().ToString();
      break;
    }

    if (draining_.load() && !drain_started_) {
      // Drain, phase 1: stop accepting and stop reading. Everything
      // already accepted into the queue will still be ranked and its
      // responses flushed.
      drain_started_ = true;
      (void)loop_->Del(listener_.fd());
      for (auto& [id, conn] : conns_) UpdateReadInterest(conn);
    }

    for (const EpollLoop::Event& event : events) {
      if (event.tag == EpollLoop::kWakeTag) continue;
      if (event.tag == kListenerTag) {
        if (!drain_started_) AcceptNew();
        continue;
      }
      auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      std::shared_ptr<Connection> conn = it->second;
      if (event.error) {
        CloseConnection(conn);
        continue;
      }
      if (event.writable) FlushOutbox(conn);
      if (event.readable && !drain_started_ && conns_.count(conn->id)) {
        HandleReadable(conn);
      }
    }

    SweepDirty();
    if (!drain_started_) ResumeQueueBlocked();

    if (drain_started_ && producers_done_.load()) {
      // Drain, phase 2: the batcher and admin worker have exited, so the
      // outboxes are complete. Leave once they are flushed — or the
      // timeout says the stragglers aren't taking their bytes.
      if (!drain_deadline_set) {
        drain_deadline_set = true;
        drain_deadline = Clock::now() + std::chrono::milliseconds(
                                            options_.drain_timeout_millis);
      }
      bool all_flushed = true;
      for (auto& [id, conn] : conns_) {
        mx::MutexLock lock(conn->out_mu);
        if (conn->outbox.size() > conn->out_off) {
          all_flushed = false;
          break;
        }
      }
      if (all_flushed || Clock::now() >= drain_deadline) break;
    }
  }

  // Teardown: close every socket. EOF is the client's signal that the
  // server is gone; anything unflushed past the drain timeout is lost.
  for (auto& [id, conn] : conns_) {
    {
      mx::MutexLock lock(conn->out_mu);
      conn->closed = true;
    }
    (void)loop_->Del(conn->socket.fd());
    conn->socket.Close();
  }
  conns_.clear();
}

void QueryServer::AcceptNew() {
  while (true) {
    auto accepted = util::AcceptNonBlocking(listener_);
    if (!accepted.ok()) {
      MX_LOG(Warning) << "accept failed: " << accepted.status().ToString();
      return;
    }
    if (!accepted->valid()) return;  // backlog drained

    if (conns_.size() >= options_.max_connections) {
      // Refused on the still-blocking fresh socket: the buffer is empty,
      // one short line cannot block.
      (void)util::SendAll(
          *accepted,
          BuildErrorResponse(ErrorCode::kServerFull, "server full"));
      mx::MutexLock lock(stats_mu_);
      ++stats_.protocol_errors;
      continue;  // socket closes as `accepted` goes out of scope
    }

    // Count BEFORE the connection can be served: a client must never
    // observe its own responses while the counters still miss it.
    {
      mx::MutexLock lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->socket = std::move(*accepted);
    (void)util::SetNonBlocking(conn->socket);
    (void)util::SetTcpNoDelay(conn->socket);
    conn->tokens = std::max(1.0, options_.max_queries_per_second);
    conn->tokens_refilled = std::chrono::steady_clock::now();
    auto added = loop_->Add(conn->socket.fd(), conn->id, /*want_read=*/true,
                            /*want_write=*/false);
    if (!added.ok()) {
      MX_LOG(Warning) << "epoll add failed: " << added.ToString();
      continue;
    }
    conns_[conn->id] = conn;
  }
}

void QueryServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16384];
  while (true) {
    auto chunk = util::RecvSome(conn->socket, buf, sizeof(buf));
    if (!chunk.ok() || chunk->eof) {
      // EOF on the request direction is a full disconnect: responses
      // still pending are forfeited (see docs/WIRE_PROTOCOL.md).
      CloseConnection(conn);
      return;
    }
    if (chunk->would_block) return;
    conn->input.Append({buf, chunk->bytes});
    ProcessInput(conn);
    if (conn->closed) return;
    // Paused (outbox backpressure or queue full): stop pulling bytes off
    // the socket too — TCP pushes back on the client from here.
    if (conn->paused_backpressure || conn->paused_queue_full) return;
  }
}

void QueryServer::ProcessInput(const std::shared_ptr<Connection>& conn) {
  if (drain_started_) return;
  std::string line;
  while (!conn->closed && !conn->paused_backpressure &&
         !conn->paused_queue_full) {
    if (conn->has_stashed) {
      // A query parsed earlier, still waiting for global queue space.
      if (!EnqueuePending(conn, conn->stashed)) {
        conn->paused_queue_full = true;
        queue_blocked_.push_back(conn->id);
        queue_blocked_count_.fetch_add(1);
        UpdateReadInterest(conn);
        return;
      }
      conn->has_stashed = false;
      continue;
    }
    if (!conn->input.TakeLine(&line)) {
      if (conn->input.overflowed()) CloseConnection(conn);
      return;
    }
    Request request;
    if (!ParseRequest(line, &request)) {
      SendError(conn, ErrorCode::kMalformed, "malformed request");
      continue;
    }
    if (!HandleRequest(conn, request)) return;  // stashed + paused
  }
}

bool QueryServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                const Request& request) {
  switch (request.kind) {
    case Request::Kind::kPing:
      EnqueueResponse(conn, "PONG\n");
      return true;
    case Request::Kind::kStats:
      EnqueueResponse(conn, BuildStatsResponse());
      return true;
    case Request::Kind::kHello:
      // Both wire versions are spoken by this server; a client asking for
      // a NEWER protocol than ours must be refused, not half-served.
      if (request.version > kWireVersion) {
        SendError(conn, ErrorCode::kUnsupportedVersion,
                  "server speaks protocol <= " +
                      std::to_string(kWireVersion));
        return true;
      }
      EnqueueResponse(conn,
                      BuildHelloResponse(request.version, options_.max_k,
                                         options_.default_model));
      return true;
    case Request::Kind::kLoad:
    case Request::Kind::kReload:
    case Request::Kind::kUnload:
    case Request::Kind::kList:
    case Request::Kind::kStat:
    case Request::Kind::kAppendNode:
    case Request::Kind::kAppendEdge:
    case Request::Kind::kRefresh:
    case Request::Kind::kSwapIndex: {
      if (!options_.admin) {
        SendError(conn, ErrorCode::kAdminDisabled,
                  "admin verbs are disabled on this server");
        return true;
      }
      {
        mx::MutexLock lock(stats_mu_);
        ++stats_.admin_commands;
      }
      // Model disk I/O must not stall the event loop: the admin worker
      // runs the verb and posts the reply through the outbox like any
      // other producer.
      {
        mx::MutexLock lock(admin_mu_);
        admin_tasks_.push_back(AdminTask{conn, request});
      }
      admin_cv_.NotifyOne();
      return true;
    }
    case Request::Kind::kQuery:
      break;
  }

  // ---- a query: validate, enforce the per-client limits, enqueue ----
  if (request.k > options_.max_k) {
    // Explicit refusal, never a silent clamp (see ServerOptions::max_k).
    SendError(conn, ErrorCode::kKTooLarge,
              "k " + std::to_string(request.k) + " exceeds server max " +
                  std::to_string(options_.max_k));
    return true;
  }
  // Validate here, not in the batcher: RankBatch MX_CHECKs its node
  // ids, and a bad remote request must be an 'E' response, not a crash.
  // The registry only ever publishes graphs that grow (Publish refuses
  // shrinks), so a node valid now stays valid for the snapshot the query
  // pins in EnqueuePending.
  if (request.node >= indexes_->Get()->graph().num_nodes()) {
    SendError(conn, ErrorCode::kNodeOutOfRange, "node out of range");
    return true;
  }
  if (conn->in_flight.load(std::memory_order_relaxed) >=
      options_.max_pipeline) {
    {
      mx::MutexLock lock(stats_mu_);
      ++stats_.pipeline_refused;
    }
    SendError(conn, ErrorCode::kPipelineLimit,
              "more than " + std::to_string(options_.max_pipeline) +
                  " queries in flight on this connection");
    return true;
  }
  const bool rate_limited = options_.max_queries_per_second > 0.0;
  if (rate_limited) {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - conn->tokens_refilled).count();
    const double capacity = std::max(1.0, options_.max_queries_per_second);
    conn->tokens = std::min(
        capacity,
        conn->tokens + elapsed * options_.max_queries_per_second);
    conn->tokens_refilled = now;
    if (conn->tokens < 1.0) {
      {
        mx::MutexLock lock(stats_mu_);
        ++stats_.rate_limited;
      }
      SendError(conn, ErrorCode::kRateLimited,
                "connection exceeded " +
                    std::to_string(options_.max_queries_per_second) +
                    " queries/second");
      return true;
    }
    conn->tokens -= 1.0;
  }

  if (!EnqueuePending(conn, request)) {
    // Global queue full: stash the query and stop reading until the
    // batcher makes room. The token was consumed for a query that hasn't
    // been accepted yet — give it back.
    if (rate_limited) conn->tokens += 1.0;
    conn->stashed = request;
    conn->has_stashed = true;
    conn->paused_queue_full = true;
    queue_blocked_.push_back(conn->id);
    queue_blocked_count_.fetch_add(1);
    UpdateReadInterest(conn);
    return false;
  }
  return true;
}

bool QueryServer::EnqueuePending(const std::shared_ptr<Connection>& conn,
                                 const Request& request) {
  const std::string& name =
      request.model.empty() ? options_.default_model : request.model;
  // The snapshot is pinned NOW: a RELOAD that lands while this query waits
  // in the queue does not change its weights (hot-swaps affect only
  // queries accepted after them).
  std::shared_ptr<const ServableModel> snapshot = registry_->Get(name);
  if (snapshot == nullptr) {
    SendError(conn, ErrorCode::kUnknownModel, "unknown model " + name);
    return true;
  }

  PendingQuery pending;
  pending.conn = conn;
  pending.model = std::move(snapshot);
  // Pinned together with the model: this query ranks on the index
  // generation current NOW, even if a REFRESH publishes while it queues.
  pending.index = indexes_->Get();
  pending.node = request.node;
  pending.k = request.k == 0 ? options_.default_k : request.k;
  pending.deadline =
      options_.request_deadline_micros == 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::microseconds(options_.request_deadline_micros);
  {
    mx::MutexLock lock(queue_mu_);
    if (draining_.load()) return true;  // dropped; the drain closes us
    if (queue_.size() >= options_.max_pending) return false;
    queue_.push_back(std::move(pending));
    conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.NotifyOne();
  return true;
}

bool QueryServer::TrySendLocked(Connection& conn) {
  while (conn.out_off < conn.outbox.size()) {
    auto chunk = util::SendSome(
        conn.socket, std::string_view(conn.outbox).substr(conn.out_off));
    if (!chunk.ok()) return false;
    if (chunk->would_block) break;
    conn.out_off += chunk->bytes;
  }
  if (conn.out_off == conn.outbox.size()) {
    conn.outbox.clear();
    conn.out_off = 0;
  }
  return true;
}

void QueryServer::FlushOutbox(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  bool dead = false;
  bool evict = false;
  size_t backlog = 0;
  {
    mx::MutexLock lock(conn->out_mu);
    dead = !TrySendLocked(*conn);
    if (conn->out_off > (size_t{1} << 16) &&
        conn->out_off * 2 > conn->outbox.size()) {
      conn->outbox.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    backlog = conn->outbox.size() - conn->out_off;
    evict = conn->evict;
  }
  if (dead || evict) {
    // evict: the E kSlowConsumer line got its one best-effort flush
    // above; whatever the socket didn't take is forfeit.
    CloseConnection(conn);
    return;
  }

  bool interest_changed = false;
  const bool want_write = backlog > 0;
  if (want_write != conn->reg_write) {
    conn->reg_write = want_write;
    interest_changed = true;
  }
  const size_t half = options_.max_response_queue_bytes / 2;
  bool resumed = false;
  if (!conn->paused_backpressure && backlog > half) {
    conn->paused_backpressure = true;
    interest_changed = true;
  } else if (conn->paused_backpressure && backlog <= half) {
    conn->paused_backpressure = false;
    interest_changed = true;
    resumed = true;
  }
  if (interest_changed) UpdateReadInterest(conn);
  // Lines buffered while reads were paused won't re-trigger epoll;
  // process them now.
  if (resumed) ProcessInput(conn);
}

void QueryServer::ResumeQueueBlocked() {
  if (queue_blocked_.empty()) return;
  {
    mx::MutexLock lock(queue_mu_);
    if (queue_.size() >= options_.max_pending) return;
  }
  std::vector<uint64_t> blocked;
  blocked.swap(queue_blocked_);
  queue_blocked_count_.store(0);
  for (uint64_t id : blocked) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    std::shared_ptr<Connection> conn = it->second;
    conn->paused_queue_full = false;
    UpdateReadInterest(conn);
    ProcessInput(conn);  // may re-pause, re-adding itself to the list
  }
}

void QueryServer::SweepDirty() {
  // Loop to a fixed point: flushing can resume reads, which can produce
  // new immediate replies (PONG, E) that dirty more connections.
  while (true) {
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      mx::MutexLock lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    if (dirty.empty()) return;
    for (const auto& conn : dirty) {
      conn->dirty.store(false);
      if (conn->closed) continue;
      FlushOutbox(conn);
    }
  }
}

void QueryServer::UpdateReadInterest(
    const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->reg_read = !drain_started_ && !conn->paused_backpressure &&
                   !conn->paused_queue_full;
  (void)loop_->Mod(conn->socket.fd(), conn->id, conn->reg_read,
                   conn->reg_write);
}

void QueryServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conns_.find(conn->id) == conns_.end()) return;  // already closed
  {
    mx::MutexLock lock(conn->out_mu);
    conn->closed = true;
  }
  if (conn->paused_queue_full) {
    auto it = std::find(queue_blocked_.begin(), queue_blocked_.end(),
                        conn->id);
    if (it != queue_blocked_.end()) {
      queue_blocked_.erase(it);
      queue_blocked_count_.fetch_sub(1);
    }
  }
  (void)loop_->Del(conn->socket.fd());
  conn->socket.Close();
  conns_.erase(conn->id);
}

void QueryServer::SendError(const std::shared_ptr<Connection>& conn,
                            ErrorCode code, std::string_view message) {
  {
    mx::MutexLock lock(stats_mu_);
    ++stats_.protocol_errors;
  }
  EnqueueResponse(conn, BuildErrorResponse(code, message));
}

// ---- any thread -----------------------------------------------------------

void QueryServer::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                  std::string line) {
  bool evicted_now = false;
  {
    mx::MutexLock lock(conn->out_mu);
    if (conn->closed || conn->evict) return;  // response dropped
    size_t backlog = conn->outbox.size() - conn->out_off;
    if (backlog > options_.max_response_queue_bytes) {
      // The backlog crossing the bound may be nothing worse than reactor
      // lag — the batcher can append a burst faster than the event loop
      // gets a turn. Before judging the consumer slow, push bytes into
      // the socket right here: only a socket that won't take them
      // (kernel buffer full because the client is not reading) evicts.
      if (!TrySendLocked(*conn)) {
        conn->evict = true;  // peer reset: the reactor closes us
      }
      backlog = conn->outbox.size() - conn->out_off;
    }
    if (conn->evict) {
      // Send failed above: nothing to append, the sweep reaps the fd.
    } else if (backlog > options_.max_response_queue_bytes) {
      // Slow consumer: the client is not reading fast enough for the
      // traffic it generates. The eviction notice is appended best-effort
      // (the reactor flushes what the socket takes, then closes); the
      // response that crossed the bound is dropped with everything after.
      conn->evict = true;
      conn->outbox += BuildErrorResponse(
          ErrorCode::kSlowConsumer,
          "response backlog exceeded " +
              std::to_string(options_.max_response_queue_bytes) +
              " bytes; closing");
      evicted_now = true;
    } else {
      conn->outbox += line;
    }
  }
  if (evicted_now) {
    mx::MutexLock lock(stats_mu_);
    ++stats_.slow_consumer_evictions;
    ++stats_.protocol_errors;
  }
  MarkDirty(conn);
}

void QueryServer::MarkDirty(const std::shared_ptr<Connection>& conn) {
  if (conn->dirty.exchange(true)) return;  // already on the list
  mx::MutexLock lock(dirty_mu_);
  dirty_.push_back(conn);
}

std::string QueryServer::BuildStatsResponse() {
  const ServerStats s = stats();
  // Left-to-right compatible: fields only ever append (see
  // docs/WIRE_PROTOCOL.md).
  return "STATS " + std::to_string(s.connections_accepted) + ' ' +
         std::to_string(s.queries) + ' ' + std::to_string(s.batches) + ' ' +
         std::to_string(s.largest_batch) + ' ' +
         std::to_string(s.protocol_errors) + ' ' +
         std::to_string(s.windows) + ' ' +
         // Two retired fields (rows_gathered, rows_saved_vs_per_model)
         // keep their positions, always 0.
         "0 0 " + std::to_string(s.window_model_groups) + ' ' +
         std::to_string(s.slow_consumer_evictions) + ' ' +
         std::to_string(s.pipeline_refused) + ' ' +
         std::to_string(s.rate_limited) + ' ' +
         std::to_string(s.deadline_expired) + ' ' +
         std::to_string(s.append_nodes) + ' ' +
         std::to_string(s.append_edges) + ' ' +
         std::to_string(s.index_refreshes) + ' ' +
         std::to_string(s.index_swaps) + '\n';
}

// ---- batcher thread -------------------------------------------------------

void QueryServer::WarmTables() {
  const std::shared_ptr<const IndexSnapshot> index = indexes_->Get();
  for (const ModelInfo& info : registry_->List()) {
    const auto model = registry_->Get(info.name);
    if (model != nullptr) (void)node_dots_.Get(model, index, pool_.get());
  }
}

void QueryServer::BatcherLoop() {
  // One scoped lock per iteration (RAII, so the thread-safety analysis
  // tracks it): hold queue_mu_ to wait and pop, release it to rank — the
  // engine call must never run under the queue lock.
  while (true) {
    std::vector<PendingQuery> batch;
    bool warm = false;
    {
      mx::MutexLock lock(queue_mu_);
      while (!draining_.load() && queue_.empty() && !warm_tables_.load()) {
        queue_cv_.Wait(lock);
      }
      if (queue_.empty()) {
        if (draining_.load()) return;  // drained: every query ranked
        // Idle with new snapshots published: build their tables now, so
        // the next window does not pay for them.
        warm_tables_.store(false);
        warm = true;
      } else {
        // Micro-batching: once at least one query is pending, wait up to
        // the window for the batch to fill. Responses never change with the
        // window (the batched determinism contract) — only throughput does.
        // A drain skips the wait: latency no longer matters, finishing
        // does.
        if (!draining_.load() && options_.window_micros > 0 &&
            queue_.size() < options_.max_batch) {
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(options_.window_micros);
          while (!draining_.load() && queue_.size() < options_.max_batch) {
            if (queue_cv_.WaitUntil(lock, deadline) ==
                std::cv_status::timeout) {
              break;
            }
          }
        }
        const size_t take = std::min(queue_.size(), options_.max_batch);
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    if (warm) {
      WarmTables();
      continue;
    }
    // Connections paused on queue space can move again — tell the
    // reactor before the (possibly long) ranking call.
    if (queue_blocked_count_.load() > 0) loop_->Wake();
    RankAndRespond(std::move(batch));
  }
}

void QueryServer::RankAndRespond(std::vector<PendingQuery> batch) {
  // A query whose connection already closed has nobody to answer: drop it
  // before ranking (its response would be discarded anyway) and count it
  // neither as served nor as an error. Then the deadline pass: a query
  // that waited past its deadline is answered with E kDeadlineExceeded IN
  // ITS FIFO POSITION (the response loop below walks pop order), so
  // per-connection ordering survives overload.
  enum : char { kRank, kAbandoned, kExpired };
  std::vector<char> fate(batch.size(), kRank);
  size_t n_abandoned = 0;
  size_t n_expired = 0;
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].conn->closed.load()) {
      fate[i] = kAbandoned;
      ++n_abandoned;
    } else if (options_.request_deadline_micros > 0 &&
               now > batch[i].deadline) {
      fate[i] = kExpired;
      ++n_expired;
    }
  }

  // One RankBatch per distinct (index snapshot, k) in the window, carrying
  // EVERY model the group mixes. Identity keys on the snapshot POINTERS
  // (the batch pins them): two queries sharing a model slot provably score
  // under identical weights, and a query that pinned a pre-RELOAD model
  // (or a pre-REFRESH index generation) simply rides along as its own
  // column (or its own group), read against its own node-dot table —
  // determinism per request, whatever the interleaving.
  struct Group {
    size_t k = 0;
    std::shared_ptr<const IndexSnapshot> index;
    // Distinct model snapshots of this group, first-appearance order;
    // model_of indexes into it, aligned with nodes.
    std::vector<std::shared_ptr<const ServableModel>> models;
    std::vector<NodeId> nodes;
    std::vector<uint32_t> model_of;
    std::vector<QueryResult> results;
  };
  std::vector<Group> groups;
  std::vector<std::pair<size_t, size_t>> member_of(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (fate[i] != kRank) continue;
    const PendingQuery& query = batch[i];
    size_t g = 0;
    while (g < groups.size() &&
           (groups[g].k != query.k || groups[g].index != query.index)) {
      ++g;
    }
    if (g == groups.size()) {
      groups.emplace_back();
      groups.back().k = query.k;
      groups.back().index = query.index;
    }
    Group& group = groups[g];
    uint32_t m = 0;
    while (m < group.models.size() && group.models[m] != query.model) ++m;
    if (m == group.models.size()) group.models.push_back(query.model);
    member_of[i] = {g, group.nodes.size()};
    group.nodes.push_back(query.node);
    group.model_of.push_back(m);
  }

  size_t window_models = 0;
  for (Group& group : groups) {
    // The batcher is the pool's and the tables' only user; each call ranks
    // on the group's pinned snapshot against tables of that generation.
    std::vector<RankModel> models;
    models.reserve(group.models.size());
    for (const auto& model : group.models) {
      models.push_back(RankModel{
          model->model.weights,
          node_dots_.Get(model, group.index, pool_.get())});
    }
    group.results = RankBatch(group.index->index(), models, group.nodes,
                              group.model_of, group.k, pool_.get());
    std::vector<uint64_t> served(group.models.size(), 0);
    for (uint32_t m : group.model_of) ++served[m];
    for (size_t m = 0; m < group.models.size(); ++m) {
      group.models[m]->CountServed(served[m]);
    }
    window_models += group.models.size();
    mx::MutexLock lock(stats_mu_);
    ++stats_.batches;
    stats_.largest_batch =
        std::max<uint64_t>(stats_.largest_batch, group.nodes.size());
  }

  // Count the window as served BEFORE the responses go out: a client that
  // reads its last response and immediately asks for stats must see it.
  {
    mx::MutexLock lock(stats_mu_);
    ++stats_.windows;
    stats_.window_model_groups += window_models;
    stats_.queries += batch.size() - n_expired - n_abandoned;
    stats_.deadline_expired += n_expired;
    stats_.protocol_errors += n_expired;
  }

  // Respond in pop order: the queue is FIFO and this loop is sequential,
  // so each connection sees its responses in the order it sent requests.
  // One Wake covers the whole window.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (fate[i] == kExpired) {
      EnqueueResponse(batch[i].conn,
                      BuildErrorResponse(ErrorCode::kDeadlineExceeded,
                                         "query waited past the server "
                                         "deadline"));
    } else if (fate[i] == kRank) {
      const auto [g, pos] = member_of[i];
      EnqueueResponse(batch[i].conn,
                      BuildQueryResponse(batch[i].node,
                                         groups[g].results[pos]));
    }
    batch[i].conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
  }
  loop_->Wake();
}

// ---- admin worker thread --------------------------------------------------

void QueryServer::AdminLoop() {
  // Same RAII shape as BatcherLoop: hold admin_mu_ to wait and pop,
  // release it for the (possibly disk-bound) verb itself.
  while (true) {
    AdminTask task;
    {
      mx::MutexLock lock(admin_mu_);
      while (!draining_.load() && admin_tasks_.empty()) {
        admin_cv_.Wait(lock);
      }
      // Drained: every accepted admin verb got its reply.
      if (admin_tasks_.empty()) return;
      task = std::move(admin_tasks_.front());
      admin_tasks_.pop_front();
    }
    RunAdminTask(task);
    // The verb may have published a model or an index: let an idle
    // batcher build the new tables before traffic needs them.
    {
      mx::MutexLock lock(queue_mu_);
      warm_tables_.store(true);
    }
    queue_cv_.NotifyAll();
  }
}

void QueryServer::RunAdminTask(const AdminTask& task) {
  const Request& request = task.request;
  auto reply = [&](std::string line) {
    EnqueueResponse(task.conn, std::move(line));
    loop_->Wake();
  };
  auto fail = [&](ErrorCode code, std::string_view message) {
    {
      mx::MutexLock lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    reply(BuildErrorResponse(code, message));
  };

  switch (request.kind) {
    case Request::Kind::kLoad:
    case Request::Kind::kReload: {
      // Disk read + parse happen on this worker, out of band — neither
      // the reactor nor the batcher ever waits on model I/O.
      auto model = LoadModel(request.path, registry_->expected_weights());
      if (!model.ok()) {
        fail(ErrorCode::kModelError, model.status().ToString());
        return;
      }
      auto version = request.kind == Request::Kind::kLoad
                         ? registry_->Load(request.model, std::move(*model))
                         : registry_->Reload(request.model,
                                             std::move(*model));
      if (!version.ok()) {
        fail(ErrorCode::kModelError, version.status().ToString());
        return;
      }
      const char* verb =
          request.kind == Request::Kind::kLoad ? "LOAD" : "RELOAD";
      reply("OK " + std::string(verb) + ' ' + request.model + ' ' +
            std::to_string(*version) + '\n');
      return;
    }
    case Request::Kind::kUnload: {
      if (request.model == options_.default_model) {
        // v1 clients depend on the default slot; removing it would turn
        // every legacy query into an error mid-flight.
        fail(ErrorCode::kModelError, "cannot unload the default model");
        return;
      }
      auto status = registry_->Unload(request.model);
      if (!status.ok()) {
        fail(ErrorCode::kModelError, status.ToString());
        return;
      }
      reply("OK UNLOAD " + request.model + '\n');
      return;
    }
    case Request::Kind::kList: {
      const std::vector<ModelInfo> infos = registry_->List();
      std::string line = "MODELS " + std::to_string(infos.size());
      for (const ModelInfo& info : infos) {
        line += ' ';
        line += info.name;
        line += ' ';
        line += std::to_string(info.version);
        line += ' ';
        line += std::to_string(info.num_weights);
        line += ' ';
        line += std::to_string(info.serves);
      }
      line += '\n';
      reply(std::move(line));
      return;
    }
    case Request::Kind::kStat: {
      auto snapshot = registry_->Get(request.model);
      if (snapshot == nullptr) {
        fail(ErrorCode::kUnknownModel, "unknown model " + request.model);
        return;
      }
      reply("STAT " + snapshot->name + ' ' +
            std::to_string(snapshot->version) + ' ' +
            std::to_string(snapshot->model.weights.size()) + ' ' +
            std::to_string(snapshot->serves_count()) + '\n');
      return;
    }
    case Request::Kind::kAppendNode:
    case Request::Kind::kAppendEdge:
    case Request::Kind::kRefresh: {
      if (maintainer_ == nullptr) {
        fail(ErrorCode::kIndexAdminError,
             "this server has no index maintainer");
        return;
      }
      if (request.kind == Request::Kind::kAppendNode) {
        const NodeId id = maintainer_->AppendNode(request.model);
        {
          mx::MutexLock lock(stats_mu_);
          ++stats_.append_nodes;
        }
        reply("OK APPEND N " + std::to_string(id) + '\n');
        return;
      }
      if (request.kind == Request::Kind::kAppendEdge) {
        auto status = maintainer_->AppendEdge(request.node, request.node2);
        if (!status.ok()) {
          fail(ErrorCode::kBadDelta, status.ToString());
          return;
        }
        {
          mx::MutexLock lock(stats_mu_);
          ++stats_.append_edges;
        }
        reply("OK APPEND E " + std::to_string(request.node) + ' ' +
              std::to_string(request.node2) + '\n');
        return;
      }
      // REFRESH: the incremental re-match runs here on the admin worker —
      // serving never stalls, and the registry flips generations only
      // once the refreshed snapshot is complete.
      RefreshStats rstats;
      auto refreshed = maintainer_->Refresh(&rstats);
      if (!refreshed.ok()) {
        fail(ErrorCode::kIndexAdminError, refreshed.status().ToString());
        return;
      }
      auto published = indexes_->Publish(*refreshed);
      if (!published.ok()) {
        fail(ErrorCode::kIndexAdminError, published.ToString());
        return;
      }
      {
        mx::MutexLock lock(stats_mu_);
        ++stats_.index_refreshes;
      }
      reply("OK REFRESH " + std::to_string((*refreshed)->generation()) +
            ' ' + std::to_string(rstats.affected_metagraphs) + ' ' +
            std::to_string(rstats.appended_nodes) + ' ' +
            std::to_string(rstats.appended_edges) + '\n');
      return;
    }
    case Request::Kind::kSwapIndex: {
      // Hot index swap: publish a precomputed index artifact (e.g. a full
      // offline rebuild) over the live graph and metagraph set. The new
      // generation aliases both — only the vectors change.
      const auto current = indexes_->Get();
      auto index = MetagraphVectorIndex::LoadFromFile(
          request.path + ".index", IndexLoadOptions{});
      if (!index.ok()) {
        fail(ErrorCode::kIndexAdminError, index.status().ToString());
        return;
      }
      if (index->num_metagraphs() != current->index().num_metagraphs()) {
        fail(ErrorCode::kIndexAdminError,
             "artifact has " + std::to_string(index->num_metagraphs()) +
                 " metagraphs; the served index has " +
                 std::to_string(current->index().num_metagraphs()));
        return;
      }
      if (index->num_graph_nodes() != current->graph().num_nodes()) {
        fail(ErrorCode::kIndexAdminError,
             "artifact built over " +
                 std::to_string(index->num_graph_nodes()) +
                 " nodes; the served graph has " +
                 std::to_string(current->graph().num_nodes()));
        return;
      }
      auto snapshot = std::make_shared<const IndexSnapshot>(
          current->shared_graph(), current->shared_metagraphs(),
          std::make_shared<const MetagraphVectorIndex>(std::move(*index)),
          current->generation() + 1);
      auto published = indexes_->Publish(std::move(snapshot));
      if (!published.ok()) {
        fail(ErrorCode::kIndexAdminError, published.ToString());
        return;
      }
      {
        mx::MutexLock lock(stats_mu_);
        ++stats_.index_swaps;
      }
      reply("OK SWAPINDEX " + std::to_string(indexes_->Info().generation) +
            '\n');
      return;
    }
    default:
      MX_CHECK_MSG(false, "non-admin request routed to RunAdminTask");
  }
}

}  // namespace metaprox::server
