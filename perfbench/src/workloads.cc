#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "datagen/facebook.h"
#include "datagen/linkedin.h"
#include "eval/splits.h"
#include "server/wire.h"
#include "util/rng.h"

namespace perfbench {

using metaprox::NodeId;
namespace server = metaprox::server;

namespace {

// serve-sparse: the reference rate (p50/p99 are measured there) and the
// ladder above it; goodput_qps is read off the ladder.
// Steps are about 10% apart from 2000 q/s up, so goodput_qps moves by at
// most one step when capacity shifts between two of them.
constexpr double kSparseRates[] = {250,  500,  1000, 2000, 2200, 2400,
                                   2700, 3000, 3300, 3600, 4000, 4400,
                                   4800, 5300, 5800, 6400, 7000, 8000};
constexpr double kSparseReferenceShare = 0.6;  // of the run, on step 0
constexpr size_t kTopK = 10;
constexpr size_t kBatchModels = 4;
constexpr size_t kQueryConnections = 4;

double Ms(Clock::duration d) { return Seconds(d) * 1e3; }

struct Summary {
  double qps = 0.0;
  double good_qps = 0.0;  // responses within the limit, per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// Summarizes the answered requests of [first, last) that completed within
// `seconds` of `start`. Throughput, goodput and p50 are medians over
// 1-second windows; p99 is the median over windows of at least 1000
// responses (ten or more beyond the 99th percentile). The machine's speed
// drifts over seconds, so the medians keep one slow stretch from setting
// the result. Latency runs from the due time (open loop) or the send.
Summary Summarize(const std::vector<Request>& requests, size_t first,
                  size_t last, Clock::time_point start, double seconds,
                  double limit_ms, bool from_due) {
  std::vector<std::pair<double, double>> done;  // (at s, latency ms)
  for (size_t id = first; id < last; ++id) {
    const Request& request = requests[id];
    if (request.state != Request::kAnswered) continue;
    const double at = Seconds(request.done - start);
    if (at < 0.0 || at >= seconds) continue;
    done.emplace_back(at, Ms(request.done -
                             (from_due ? request.due : request.sent)));
  }
  auto windowed = [&](size_t count) {
    std::vector<std::vector<double>> windows(std::max<size_t>(count, 1));
    const double width = seconds / static_cast<double>(windows.size());
    for (const auto& [at, ms] : done) {
      windows[std::min(windows.size() - 1, static_cast<size_t>(at / width))]
          .push_back(ms);
    }
    return std::make_pair(std::move(windows), width);
  };
  Summary summary;
  const auto [per_second, width] = windowed(static_cast<size_t>(seconds));
  std::vector<double> qps, good, p50, p99;
  for (const std::vector<double>& ms : per_second) {
    qps.push_back(ms.size() / width);
    good.push_back(std::count_if(ms.begin(), ms.end(),
                                 [&](double v) { return v <= limit_ms; }) /
                   width);
    p50.push_back(Percentile(ms, 0.5));
  }
  for (const std::vector<double>& ms : windowed(done.size() / 1000).first) {
    p99.push_back(Percentile(ms, 0.99));
  }
  summary.qps = Median(qps);
  summary.good_qps = Median(good);
  summary.p50_ms = Median(p50);
  summary.p99_ms = Median(p99);
  return summary;
}

metaprox::EngineOptions EngineFor(metaprox::TypeId anchor, int max_nodes,
                                  uint64_t min_support) {
  metaprox::EngineOptions options;
  options.miner.anchor_type = anchor;
  options.miner.max_nodes = max_nodes;
  options.miner.min_support = min_support;
  options.num_threads = 4;
  return options;
}

std::vector<metaprox::Example> ClassExamples(const metaprox::GroundTruth& gt,
                                             std::span<const NodeId> pool,
                                             uint64_t seed, size_t count) {
  metaprox::util::Rng rng(seed);
  metaprox::QuerySplit split = metaprox::SplitQueries(gt, 0.5, rng);
  return metaprox::SampleExamples(gt, split.train, pool, count, rng);
}

// Weak labels for the arrival base graph, whose ground truth the
// renumbering hides: x shares a college with q, y is any other user.
std::vector<metaprox::Example> CollegeExamples(const metaprox::Graph& graph,
                                               std::span<const NodeId> users,
                                               SeededRng& rng, size_t count) {
  const metaprox::TypeId college = graph.type_registry().Find("college");
  const metaprox::TypeId user = graph.type_registry().Find("user");
  std::vector<metaprox::Example> examples;
  for (size_t attempt = 0; examples.size() < count && attempt < 50 * count;
       ++attempt) {
    const NodeId q = users[rng.Below(users.size())];
    auto colleges = graph.NeighborsOfType(q, college);
    if (colleges.empty()) continue;
    auto mates =
        graph.NeighborsOfType(colleges[rng.Below(colleges.size())], user);
    const NodeId x = mates[rng.Below(mates.size())];
    const NodeId y = users[rng.Below(users.size())];
    if (x == q || y == q || y == x) continue;
    examples.push_back({q, x, y});
  }
  return examples;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "serve-sparse") {
    *out = Workload::kServeSparse;
  } else if (name == "serve-batch") {
    *out = Workload::kServeBatch;
  } else if (name == "refresh-under-load") {
    *out = Workload::kRefreshUnderLoad;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Plan> MakePlan(Workload workload, uint64_t seed,
                               double seconds, bool tiny) {
  auto plan = std::make_unique<Plan>();
  plan->workload = workload;
  plan->seed = seed;
  plan->seconds = seconds;
  plan->input.train.max_iterations = tiny ? 50 : 200;
  plan->input.train.restarts = tiny ? 1 : 2;
  SeededRng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<int>(workload));

  if (workload == Workload::kRefreshUnderLoad) {
    plan->name = "refresh-under-load";
    plan->limit_ms = 50.0;
    metaprox::datagen::LinkedInConfig config;
    config.num_users = tiny ? 200 : 500;
    metaprox::datagen::Dataset full =
        metaprox::datagen::GenerateLinkedIn(config, seed);
    metaprox::datagen::ArrivalConfig arrival;
    arrival.num_slices = tiny ? 4 : 96;
    arrival.base_fraction = 0.6;
    plan->timeline =
        metaprox::datagen::SliceByArrival(full.graph, full.user_type, arrival);
    const metaprox::Graph& base = plan->timeline.base;
    const metaprox::TypeId user = base.type_registry().Find("user");
    auto users = base.NodesOfType(user);
    plan->pool.assign(users.begin(), users.end());
    plan->input.graph = &base;
    plan->input.engine = EngineFor(user, 4, 3);
    plan->input.engine.num_threads = 1;
    plan->input.models.push_back(
        {"college", CollegeExamples(base, plan->pool, rng, 300)});

    for (const metaprox::GraphDelta& slice : plan->timeline.slices) {
      std::vector<NodeId> added;
      for (size_t i = 0; i < slice.nodes.size(); ++i) {
        if (slice.nodes[i].type == "user") {
          added.push_back(static_cast<NodeId>(slice.base_nodes() + i));
        }
      }
      plan->slice_users.push_back(std::move(added));
    }
    const size_t num_slices = plan->timeline.slices.size();
    for (size_t i = 0; i < num_slices; ++i) {
      plan->slice_due.push_back(seconds * (i + 0.5) / num_slices);
    }
    plan->query_due = PoissonArrivals(rng, tiny ? 100 : 1000, seconds);
    for (size_t i = 0; i < plan->query_due.size(); ++i) {
      plan->query_pick.push_back(rng.Uniform());
    }
    return plan;
  }

  metaprox::datagen::FacebookConfig config;
  config.num_users = tiny ? 120 : 450;
  plan->dataset = metaprox::datagen::GenerateFacebook(config, seed);
  const metaprox::Graph& graph = plan->dataset.graph;
  auto users = graph.NodesOfType(plan->dataset.user_type);
  plan->pool.assign(users.begin(), users.end());
  plan->input.graph = &graph;
  plan->input.engine =
      tiny ? EngineFor(plan->dataset.user_type, 4, 3)
           : EngineFor(plan->dataset.user_type, 5, 15);
  const size_t num_models = workload == Workload::kServeBatch ? kBatchModels : 1;
  for (size_t m = 0; m < num_models; ++m) {
    const metaprox::GroundTruth& gt =
        plan->dataset.classes[m % plan->dataset.classes.size()];
    std::string name = gt.class_name();
    if (m >= plan->dataset.classes.size()) name += "-b";
    plan->input.models.push_back(
        {name, ClassExamples(gt, plan->pool, seed * 131 + m, 300)});
  }

  if (workload == Workload::kServeSparse) {
    plan->name = "serve-sparse";
    plan->limit_ms = 50.0;
    const double scale = tiny ? 0.4 : 1.0;
    const size_t steps = std::size(kSparseRates);
    for (size_t s = 0; s < steps; ++s) {
      LadderStep step;
      step.rate = kSparseRates[s] * scale;
      step.seconds = s == 0 ? seconds * kSparseReferenceShare
                            : seconds * (1.0 - kSparseReferenceShare) /
                                  static_cast<double>(steps - 1);
      step.due = PoissonArrivals(rng, step.rate, step.seconds);
      for (size_t i = 0; i < step.due.size(); ++i) {
        step.nodes.push_back(static_cast<uint32_t>(rng.Below(plan->pool.size())));
      }
      plan->ladder.push_back(std::move(step));
    }
  } else {
    plan->name = "serve-batch";
    plan->limit_ms = 2000.0;
    plan->zipf_exponent = 1.1;
    plan->pipeline_depth = tiny ? 16 : 64;
    plan->hangup_every_s = 0.5;
    plan->hot_order = Permutation(rng, plan->pool.size());
  }
  return plan;
}

BatchStream::BatchStream(const Plan& plan)
    : plan_(plan),
      rng_(plan.seed * 0xd1b54a32d192ed03ull + 17),
      zipf_(plan.pool.size(), plan.zipf_exponent) {}

BatchRequest BatchStream::Next() {
  BatchRequest request;
  request.model = static_cast<uint32_t>(index_++ % kBatchModels);
  request.node = plan_.pool[plan_.hot_order[zipf_.Sample(rng_)]];
  request.k = rng_.Uniform() < 0.5 ? 10 : 100;
  return request;
}

void PrintSchedule(const Plan& plan) {
  switch (plan.workload) {
    case Workload::kServeSparse:
      for (size_t s = 0; s < plan.ladder.size(); ++s) {
        const LadderStep& step = plan.ladder[s];
        for (size_t i = 0; i < step.due.size(); ++i) {
          std::printf("step %zu at %.9f node %u\n", s, step.due[i],
                      plan.pool[step.nodes[i]]);
        }
      }
      break;
    case Workload::kServeBatch: {
      BatchStream stream(plan);
      for (int i = 0; i < 5000; ++i) {
        const BatchRequest r = stream.Next();
        std::printf("request %d model %u node %u k %u\n", i, r.model, r.node,
                    r.k);
      }
      break;
    }
    case Workload::kRefreshUnderLoad:
      for (size_t i = 0; i < plan.query_due.size(); ++i) {
        std::printf("query at %.9f pick %.9f\n", plan.query_due[i],
                    plan.query_pick[i]);
      }
      for (size_t i = 0; i < plan.slice_due.size(); ++i) {
        std::printf("slice %zu at %.9f users %zu\n", i, plan.slice_due[i],
                    plan.slice_users[i].size());
      }
      break;
  }
}

// ---- the measured pass ----------------------------------------------------

namespace {

server::ServerStats Delta(const server::ServerStats& after,
                          const server::ServerStats& before) {
  server::ServerStats d = after;
  d.queries -= before.queries;
  d.batches -= before.batches;
  d.windows -= before.windows;
  d.protocol_errors -= before.protocol_errors;
  d.slow_consumer_evictions -= before.slow_consumer_evictions;
  d.connections_accepted -= before.connections_accepted;
  return d;
}

// Shared bookkeeping of one pass: the request log, per-connection FIFOs
// of requests in flight, and interning of response lines.
class Session {
 public:
  Session(Program& program, PassResult* result)
      : program_(program), result_(result),
        client_(program.port()) {
    for (size_t c = 0; c < kQueryConnections; ++c) client_.Connect();
    fifo_.resize(kQueryConnections);
  }

  LoopbackClient& client() { return client_; }
  PassResult& result() { return *result_; }

  void SendQuery(size_t conn, NodeId node, uint32_t model, uint32_t k,
                 Clock::time_point due) {
    Request request;
    request.node = node;
    request.model = model;
    request.k = k;
    request.gen_lo = acked_generation_;
    request.due = due;
    const std::string line =
        model == 0 ? server::BuildQueryRequest(node, k)
                   : server::BuildQueryRequest(
                         program_.model_names()[model], node, k);
    request.sent = Clock::now();
    client_.Send(conn, line);
    result_->lag_ms.push_back(Ms(request.sent - due));
    const uint32_t id = static_cast<uint32_t>(result_->requests.size());
    result_->requests.push_back(request);
    fifo_[conn].push_back(id);
  }

  /// Matches an incoming line to the oldest request in flight on its
  /// connection. Returns the request id, or -1 for a non-query line.
  int64_t OnQueryLine(const Received& r) {
    auto& fifo = fifo_[r.conn];
    if (fifo.empty()) {
      if (result_->error.empty()) {
        result_->error = "unsolicited line: " + std::string(r.line);
      }
      return -1;
    }
    const uint32_t id = fifo.front();
    fifo.pop_front();
    Request& request = result_->requests[id];
    request.done = r.at;
    request.gen_hi = 1 + refreshes_sent_;
    if (r.line.size() > 2 && r.line[0] == 'R' && r.line[1] == ' ') {
      request.state = Request::kAnswered;
      request.line = Intern(r.line);
    } else {
      request.state = Request::kRefused;
      if (refusals_logged_++ < 3) {
        std::fprintf(stderr, "refused: %.*s\n",
                     static_cast<int>(r.line.size()), r.line.data());
      }
    }
    return id;
  }

  /// The client on `conn` hangs up with its pipeline full and comes back.
  void HangUp(size_t conn) {
    for (uint32_t id : fifo_[conn]) {
      result_->requests[id].state = Request::kAbandoned;
    }
    fifo_[conn].clear();
    client_.Reconnect(conn);
  }

  size_t InFlight() const {
    size_t n = 0;
    for (const auto& f : fifo_) n += f.size();
    return n;
  }
  size_t InFlight(size_t conn) const { return fifo_[conn].size(); }

  void NoteRefreshSent() { ++refreshes_sent_; }
  void NoteRefreshAcked(uint32_t generation) {
    acked_generation_ = std::max(acked_generation_, generation);
  }

  /// Polls until `until` or until `done()` holds.
  template <typename Done>
  bool PollUntil(Clock::time_point until,
                 const std::function<void(const Received&)>& on_line,
                 Done done) {
    while (!done()) {
      if (Clock::now() >= until) return true;
      if (!client_.Poll(until, on_line)) {
        if (result_->error.empty()) result_->error = client_.error();
        return false;
      }
    }
    return true;
  }

  /// Times `count` REFRESH round trips on connection 0 (nothing
  /// appended: the cost of republishing the served generation).
  void EmptyRefreshes(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      bool acked = false;
      const Clock::time_point sent = Clock::now();
      client_.Send(0, server::BuildRefreshRequest());
      ++result_->admin_attempted;
      auto on_line = [&](const Received& r) {
        acked = true;
        if (r.line.rfind("OK REFRESH", 0) != 0) {
          ++result_->admin_failed;
          return;
        }
        result_->refresh_ms.push_back(Ms(r.at - sent));
        GlobalTracer().Record("REFRESH", sent, r.at, 0);
      };
      if (!PollUntil(Clock::now() + std::chrono::seconds(60), on_line,
                     [&] { return acked; }) ||
          !acked) {
        ++result_->admin_failed;
        return;
      }
    }
  }

 private:
  int32_t Intern(std::string_view line) {
    auto [it, inserted] = interned_.try_emplace(
        std::string(line), static_cast<int32_t>(result_->lines.size()));
    if (inserted) result_->lines.push_back(it->first);
    return it->second;
  }

  Program& program_;
  PassResult* result_;
  LoopbackClient client_;
  std::vector<std::deque<uint32_t>> fifo_;
  std::unordered_map<std::string, int32_t> interned_;
  uint32_t acked_generation_ = 1;
  uint32_t refreshes_sent_ = 0;
  int refusals_logged_ = 0;
};

constexpr auto kDrainTimeout = std::chrono::seconds(60);

// serve-sparse: the open-loop ladder. Each step runs its Poisson stream
// to the end and drains; the ladder stops at the first step that misses
// the p99 limit or leaves a backlog.
void RunSparse(const Plan& plan, Session& session) {
  PassResult& result = session.result();
  auto on_line = [&](const Received& r) { session.OnQueryLine(r); };
  for (size_t s = 0; s < plan.ladder.size(); ++s) {
    const LadderStep& step = plan.ladder[s];
    const size_t first = result.requests.size();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < step.due.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(step.due[i]));
      if (!session.PollUntil(due, on_line, [] { return false; })) return;
      session.SendQuery(i % kQueryConnections, plan.pool[step.nodes[i]], 0,
                        kTopK, due);
    }
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(step.seconds));
    if (!session.PollUntil(end, on_line, [] { return false; })) return;
    // A step whose backlog outlives it by more than the limit fails.
    const Clock::time_point backlog_deadline =
        end + std::chrono::microseconds(
                  static_cast<int64_t>(plan.limit_ms * 1e3));
    if (!session.PollUntil(backlog_deadline, on_line,
                           [&] { return session.InFlight() == 0; })) {
      return;
    }
    const bool backlog = session.InFlight() != 0;
    if (!session.PollUntil(Clock::now() + kDrainTimeout, on_line,
                           [&] { return session.InFlight() == 0; })) {
      return;
    }

    StepOutcome outcome;
    outcome.rate = step.rate;
    std::vector<double> latency;
    size_t good = 0;
    for (size_t id = first; id < result.requests.size(); ++id) {
      const Request& request = result.requests[id];
      if (request.state != Request::kAnswered) continue;
      const double ms = Ms(request.done - request.due);
      latency.push_back(ms);
      if (ms <= plan.limit_ms) ++good;
    }
    outcome.samples = latency.size();
    outcome.p50_ms = Percentile(latency, 0.5);
    outcome.p99_ms = Percentile(latency, 0.99);
    outcome.good_qps = static_cast<double>(good) / step.seconds;
    outcome.met = !backlog && !latency.empty() &&
                  outcome.p99_ms <= plan.limit_ms &&
                  latency.size() == result.requests.size() - first;
    result.steps.push_back(outcome);
    if (s == 0) {
      const Summary summary =
          Summarize(result.requests, first, result.requests.size(), start,
                    step.seconds, plan.limit_ms, true);
      result.throughput_qps = summary.qps;
      result.p50_ms = summary.p50_ms;
      result.p99_ms = summary.p99_ms;
    }
    if (!outcome.met) break;
  }
  // goodput: the most responses within the limit per second that any
  // step delivered. Past capacity a short step still delivers about
  // capacity within the limit, so this tracks capacity between steps.
  for (const StepOutcome& step : result.steps) {
    result.goodput_qps = std::max(result.goodput_qps, step.good_qps);
  }
}

// serve-batch: closed loop, every connection keeps pipeline_depth
// requests in flight; one connection hangs up now and then.
void RunBatch(const Plan& plan, Session& session) {
  PassResult& result = session.result();
  BatchStream stream(plan);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.seconds));
  bool issuing = true;
  auto issue = [&](size_t conn, Clock::time_point due) {
    const BatchRequest r = stream.Next();
    session.SendQuery(conn, r.node, r.model, r.k, due);
  };
  auto fill = [&](size_t conn) {
    const Clock::time_point now = Clock::now();
    while (session.InFlight(conn) < plan.pipeline_depth) issue(conn, now);
  };
  auto on_line = [&](const Received& r) {
    if (session.OnQueryLine(r) >= 0 && issuing) {
      // The freed slot is due the moment its response arrived.
      issue(r.conn, r.at);
    }
  };
  for (size_t c = 0; c < kQueryConnections; ++c) fill(c);
  size_t hangups = 0;
  Clock::time_point next_hangup =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.hangup_every_s));
  while (Clock::now() < end) {
    const Clock::time_point until = std::min(end, next_hangup);
    if (!session.PollUntil(until, on_line, [] { return false; })) return;
    if (Clock::now() >= next_hangup && Clock::now() < end) {
      const size_t conn = hangups++ % kQueryConnections;
      session.HangUp(conn);
      fill(conn);
      next_hangup += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(plan.hangup_every_s));
    }
  }
  issuing = false;
  if (!session.PollUntil(Clock::now() + kDrainTimeout, on_line,
                         [&] { return session.InFlight() == 0; })) {
    return;
  }
  const Summary summary =
      Summarize(result.requests, 0, result.requests.size(), start,
                plan.seconds, plan.limit_ms, false);
  result.throughput_qps = summary.qps;
  result.goodput_qps = summary.good_qps;
  result.p50_ms = summary.p50_ms;
  result.p99_ms = summary.p99_ms;
}

// refresh-under-load: an open-loop query stream over the published users
// while connection 3 appends and refreshes one slice at a time.
void RunRefresh(const Plan& plan, Session& session) {
  PassResult& result = session.result();
  constexpr size_t kAdmin = kQueryConnections - 1;
  constexpr size_t kQueryConns = kQueryConnections - 1;
  std::vector<NodeId> published = plan.pool;
  size_t next_slice = 0;
  std::deque<std::string> append_replies;  // expected, in order
  bool refresh_in_flight = false;
  Clock::time_point appends_sent{};
  Clock::time_point refresh_sent{};
  const Clock::time_point start = Clock::now();
  auto at = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };

  auto on_line = [&](const Received& r) {
    if (r.conn != kAdmin) {
      session.OnQueryLine(r);
      return;
    }
    if (!append_replies.empty()) {
      if (r.line != append_replies.front()) {
        ++result.admin_failed;
        std::fprintf(stderr, "append failed: %.*s\n",
                     static_cast<int>(r.line.size()), r.line.data());
      }
      append_replies.pop_front();
      if (append_replies.empty()) {
        GlobalTracer().Record("APPEND", appends_sent, r.at, 0);
      }
      return;
    }
    refresh_in_flight = false;
    unsigned generation = 0;
    const std::string line(r.line);
    if (std::sscanf(line.c_str(), "OK REFRESH %u", &generation) != 1) {
      ++result.admin_failed;
      std::fprintf(stderr, "refresh failed: %s\n", line.c_str());
      return;
    }
    result.refresh_ms.push_back(Ms(r.at - refresh_sent));
    GlobalTracer().Record("REFRESH", refresh_sent, r.at, 0);
    session.NoteRefreshAcked(generation);
    const auto& users = plan.slice_users[next_slice - 1];
    published.insert(published.end(), users.begin(), users.end());
  };

  auto send_slice = [&] {
    const metaprox::GraphDelta& slice = plan.timeline.slices[next_slice];
    std::string bytes;
    for (size_t i = 0; i < slice.nodes.size(); ++i) {
      bytes += server::BuildAppendNodeRequest(slice.nodes[i].type);
      append_replies.push_back("OK APPEND N " +
                               std::to_string(slice.base_nodes() + i));
    }
    for (const auto& [u, v] : slice.edges) {
      bytes += server::BuildAppendEdgeRequest(u, v);
      append_replies.push_back("OK APPEND E " + std::to_string(u) + ' ' +
                               std::to_string(v));
    }
    result.admin_attempted += append_replies.size() + 1;
    appends_sent = Clock::now();
    session.client().Send(kAdmin, bytes);
    session.NoteRefreshSent();
    refresh_sent = Clock::now();
    session.client().Send(kAdmin, server::BuildRefreshRequest());
    refresh_in_flight = true;
    ++next_slice;
  };

  size_t next_query = 0;
  while (next_query < plan.query_due.size()) {
    if (!refresh_in_flight && next_slice < plan.slice_due.size() &&
        Clock::now() >= at(plan.slice_due[next_slice])) {
      send_slice();
    }
    Clock::time_point until = at(plan.query_due[next_query]);
    if (!refresh_in_flight && next_slice < plan.slice_due.size()) {
      until = std::min(until, at(plan.slice_due[next_slice]));
    }
    if (!session.PollUntil(until, on_line, [] { return false; })) return;
    while (next_query < plan.query_due.size() &&
           Clock::now() >= at(plan.query_due[next_query])) {
      const NodeId node = published[static_cast<size_t>(
          plan.query_pick[next_query] * published.size())];
      session.SendQuery(next_query % kQueryConns, node, 0, kTopK,
                        at(plan.query_due[next_query]));
      ++next_query;
    }
  }
  // Finish the slices the run did not reach, then drain everything.
  while (next_slice < plan.slice_due.size() || refresh_in_flight) {
    if (!refresh_in_flight) send_slice();
    if (!session.PollUntil(Clock::now() + kDrainTimeout, on_line,
                           [&] { return !refresh_in_flight; })) {
      return;
    }
  }
  if (!session.PollUntil(Clock::now() + kDrainTimeout, on_line,
                         [&] { return session.InFlight() == 0; })) {
    return;
  }
  const Summary summary =
      Summarize(result.requests, 0, result.requests.size(), start,
                plan.seconds, plan.limit_ms, true);
  result.throughput_qps = summary.qps;
  result.goodput_qps = summary.good_qps;
  result.p50_ms = summary.p50_ms;
  result.p99_ms = summary.p99_ms;
}

}  // namespace

void TimeEmptyRefreshes(Program& program, PassResult* result) {
  Session session(program, result);
  session.EmptyRefreshes(kEmptyRefreshes);
}

PassResult RunPass(const Plan& plan, Program& program) {
  PassResult result;
  const server::ServerStats before = program.stats();
  {
    Session session(program, &result);
    switch (plan.workload) {
      case Workload::kServeSparse:
        RunSparse(plan, session);
        break;
      case Workload::kServeBatch:
        RunBatch(plan, session);
        break;
      case Workload::kRefreshUnderLoad:
        RunRefresh(plan, session);
        break;
    }
    result.stats = Delta(program.stats(), before);
    if (result.error.empty() && plan.workload != Workload::kRefreshUnderLoad) {
      session.EmptyRefreshes(kEmptyRefreshes);
    }
    if (result.error.empty() && !session.client().error().empty()) {
      result.error = session.client().error();
    }
    // Each request's send -> receive span, recorded after the fact so
    // tracing adds nothing to the load generator's hot loop but a
    // timestamp.
    for (size_t id = 0; id < result.requests.size(); ++id) {
      const Request& request = result.requests[id];
      if (request.state == Request::kAnswered) {
        GlobalTracer().Record("Request", request.sent, request.done, id + 1);
      }
    }
  }
  return result;
}

// ---- verification ---------------------------------------------------------

MaintainerReplay ReplayMaintainer(const Plan& plan, const Program& program) {
  MaintainerReplay replay;
  metaprox::MaintainerOptions options;
  options.matcher = plan.input.engine.matcher;
  options.embedding_cap = plan.input.engine.embedding_cap;
  metaprox::IndexMaintainer maintainer(program.built(), options);
  replay.generations.push_back(maintainer.snapshot());
  const size_t refreshes = plan.workload == Workload::kRefreshUnderLoad
                               ? plan.timeline.slices.size()
                               : kEmptyRefreshes;
  for (size_t i = 0; i < refreshes; ++i) {
    if (plan.workload == Workload::kRefreshUnderLoad) {
      Scope scope("IndexMaintainer.Append");
      auto status = maintainer.Append(plan.timeline.slices[i]);
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: Append: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    metaprox::RefreshStats stats;
    Scope scope("IndexMaintainer.Refresh");
    auto snapshot = maintainer.Refresh(&stats);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "perfbench: Refresh: %s\n",
                   snapshot.status().ToString().c_str());
      std::exit(1);
    }
    replay.generations.push_back(*snapshot);
    replay.refreshes.push_back(stats);
  }
  return replay;
}

Verification Verify(const Plan& plan, const Program& program,
                    const PassResult& pass, const MaintainerReplay* lineage,
                    bool corrupt_reference) {
  struct Key {
    uint32_t generation, model, k;
    NodeId node;
    bool operator<(const Key& o) const {
      return std::tie(generation, model, k, node) <
             std::tie(o.generation, o.model, o.k, o.node);
    }
  };
  // Serve workloads end with empty refreshes, but every query was
  // answered before them, on generation 1.
  const bool lineage_used = plan.workload == Workload::kRefreshUnderLoad;
  std::map<Key, std::string> expected;
  for (const Request& request : pass.requests) {
    if (request.state != Request::kAnswered) continue;
    const uint32_t hi = lineage_used ? request.gen_hi : 1;
    for (uint32_t g = lineage_used ? request.gen_lo : 1; g <= hi; ++g) {
      expected.emplace(Key{g, request.model, request.k, request.node},
                       std::string());
    }
  }
  // Reference answers: Query() on the generation, four threads at a time.
  std::vector<std::pair<const Key*, std::string*>> work;
  for (auto& [key, line] : expected) work.emplace_back(&key, &line);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < work.size(); i = next++) {
      const Key& key = *work[i].first;
      const metaprox::MgpModel& model = program.models()[key.model];
      metaprox::QueryResult result =
          lineage_used && key.generation <= lineage->generations.size()
              ? lineage->generations[key.generation - 1]->Query(model,
                                                                key.node, key.k)
              : program.built().Query(model, key.node, key.k);
      if (corrupt_reference && i == 0 && !result.empty()) {
        result[0].second = std::nextafter(result[0].second, 0.0);
      }
      std::string line = server::BuildQueryResponse(key.node, result);
      line.pop_back();  // responses are compared without the terminator
      *work[i].second = std::move(line);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();

  Verification v;
  for (const Request& request : pass.requests) {
    switch (request.state) {
      case Request::kAbandoned:
        ++v.abandoned;
        continue;
      case Request::kPending:
        ++v.attempted;
        ++v.unanswered;
        continue;
      case Request::kRefused:
        ++v.attempted;
        ++v.refused;
        continue;
      case Request::kAnswered:
        break;
    }
    ++v.attempted;
    const std::string& got = pass.lines[request.line];
    bool ok = false;
    const uint32_t hi = lineage_used ? request.gen_hi : 1;
    for (uint32_t g = lineage_used ? request.gen_lo : 1; g <= hi && !ok; ++g) {
      ok = expected[Key{g, request.model, request.k, request.node}] == got;
    }
    if (ok) {
      ++v.verified;
    } else {
      ++v.mismatched;
    }
  }
  v.attempted += pass.admin_attempted;
  v.refused += pass.admin_failed;
  return v;
}

}  // namespace perfbench
