// The metaprox benchmark: one command that sets up the real program
// (offline build -> save/load -> registries -> QueryServer over loopback),
// drives it with one of three workloads, checks every response bit for
// bit against offline Query(), and prints every metric by name.
//
//   metaprox_perfbench --workload serve-sparse|serve-batch|refresh-under-load
//                      --seed N --seconds S --trace 0|1
//                      [--scale tiny] [--out-dir DIR] [--print-schedule]
//                      [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures the same
// pass untraced and then traced, and prints the per-layer metrics (from
// spans recorded around every call into a layer, written to
// DIR/trace-<workload>-<seed>.json) plus the tracing overhead. The last
// stdout line is the JSON result; NOTES.md documents every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "program.h"
#include "server/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool print_schedule = false;
  bool corrupt_reference = false;
  std::string out_dir = ".bench_build/perfbench";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: metaprox_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 [--scale tiny] "
               "[--out-dir DIR] [--print-schedule] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--scale") {
      args.tiny = value() == "tiny";
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--print-schedule") {
      args.print_schedule = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One measured pass on a fresh set-up, verified before it is torn down.
struct Measured {
  PassResult pass;
  Verification verification;
  MaintainerReplay replay;
  double setup_s = 0.0;
  double index_mb = 0.0;
  double peak_rss_mb = 0.0;
};

void PrintPass(const Plan& plan, const PassResult& pass,
               const Verification& v) {
  for (const StepOutcome& step : pass.steps) {
    std::printf(
        "step %6.0f q/s: %5zu answered, p50 %8.3f ms, p99 %8.3f ms, good "
        "%8.1f q/s, %s the %.0f ms p99 limit\n",
        step.rate, step.samples, step.p50_ms, step.p99_ms, step.good_qps,
        step.met ? "meets" : "misses", plan.limit_ms);
  }
  std::printf(
      "requests: %llu attempted, %llu verified, %llu refused, %llu "
      "mismatched, %llu unanswered, %llu abandoned (counted apart)\n",
      static_cast<unsigned long long>(v.attempted),
      static_cast<unsigned long long>(v.verified),
      static_cast<unsigned long long>(v.refused),
      static_cast<unsigned long long>(v.mismatched),
      static_cast<unsigned long long>(v.unanswered),
      static_cast<unsigned long long>(v.abandoned));
  std::printf("error_rate %.6f (failed + refused + mismatched / attempted)\n",
              v.attempted > 0 ? static_cast<double>(v.failed()) / v.attempted
                              : 0.0);
}

Measured MeasureOnce(const Plan& plan, const Args& args) {
  Measured m;
  const std::string artifacts =
      args.out_dir + "/artifacts-" + std::to_string(getpid()) + "-measured";
  Program program(plan.input, artifacts);
  m.setup_s = program.setup_s();
  m.index_mb = program.index_mb();
  m.pass = RunPass(plan, program);
  m.peak_rss_mb = PeakRssMb();  // before the checks add their own state
  if (!m.pass.error.empty()) {
    std::fprintf(stderr, "perfbench: pass failed: %s\n",
                 m.pass.error.c_str());
  }
  const bool traced = GlobalTracer().enabled();
  if (plan.workload == Workload::kRefreshUnderLoad || traced) {
    m.replay = ReplayMaintainer(plan, program);
  }
  m.verification = Verify(plan, program, m.pass, &m.replay,
                          args.corrupt_reference);
  if (!m.pass.error.empty()) ++m.verification.unanswered;
  program.Stop();
  std::filesystem::remove_all(artifacts);
  return m;
}

// ---- per-layer metrics from the traced pass -------------------------------

struct LayerProbe {
  double query_ms = 0.0;
  double nnz_dotted = 0.0;
  double candidates = 0.0;
  double parse_us = 0.0;
  double format_us = 0.0;
};

// Row sizes through the sparse accessors the trainer uses.
double NodeNnz(const metaprox::MetagraphVectorIndex& index,
               metaprox::NodeId x) {
  std::vector<std::pair<uint32_t, double>> row;
  index.SparseNodeVector(x, &row);
  return static_cast<double>(row.size());
}

double PairNnz(const metaprox::MetagraphVectorIndex& index,
               metaprox::NodeId x, metaprox::NodeId y) {
  std::vector<std::pair<uint32_t, double>> row;
  index.SparsePairVector(x, y, &row);
  return static_cast<double>(row.size());
}

// Replays the oracle and the wire on the workload's own requests: Query()
// per request (each in a span sharing the request's id), the row sizes it
// dots, ParseRequest on the request lines and BuildQueryResponse on the
// results.
LayerProbe ProbeLayers(const Plan& plan, const Program& program,
                       const Measured& m) {
  constexpr size_t kReplays = 300;
  LayerProbe probe;
  std::vector<metaprox::QueryResult> results;
  std::vector<metaprox::NodeId> nodes;
  std::vector<double> query_seconds;
  double nnz = 0.0;
  double candidates = 0.0;
  for (size_t id = 0; id < m.pass.requests.size() && nodes.size() < kReplays;
       ++id) {
    const Request& request = m.pass.requests[id];
    if (request.state != Request::kAnswered) continue;
    const metaprox::IndexSnapshot& snapshot =
        plan.workload == Workload::kRefreshUnderLoad
            ? *m.replay.generations[request.gen_lo - 1]
            : *program.built().Snapshot();
    const metaprox::MgpModel& model = program.models()[request.model];
    const Clock::time_point start = Clock::now();
    {
      Scope scope("Query", id + 1);
      results.push_back(snapshot.Query(model, request.node, request.k));
    }
    query_seconds.push_back(Seconds(Clock::now() - start));
    nodes.push_back(request.node);
    const metaprox::MetagraphVectorIndex& index = snapshot.index();
    auto cands = index.Candidates(request.node);
    candidates += static_cast<double>(cands.size());
    nnz += NodeNnz(index, request.node);
    for (metaprox::NodeId y : cands) {
      nnz += NodeNnz(index, y) + PairNnz(index, request.node, y);
    }
  }
  if (nodes.empty()) return probe;
  probe.query_ms = Median(query_seconds) * 1e3;
  probe.nnz_dotted = nnz / nodes.size();
  probe.candidates = candidates / nodes.size();

  // Wire replays: enough repetitions for a stable per-line figure.
  std::vector<std::string> lines;
  for (size_t id = 0; id < m.pass.requests.size() && lines.size() < 4096;
       ++id) {
    const Request& request = m.pass.requests[id];
    std::string line =
        request.model == 0
            ? metaprox::server::BuildQueryRequest(request.node, request.k)
            : metaprox::server::BuildQueryRequest(
                  program.model_names()[request.model], request.node,
                  request.k);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  auto per_item_us = [](const char* span, size_t items, auto&& body) {
    size_t done = 0;
    Scope scope(span);
    const Clock::time_point start = Clock::now();
    do {
      body();
      done += items;
    } while (Seconds(Clock::now() - start) < 0.05);
    return Seconds(Clock::now() - start) * 1e6 / static_cast<double>(done);
  };
  size_t sink = 0;
  probe.parse_us = per_item_us("ParseRequest", lines.size(), [&] {
    metaprox::server::Request parsed;
    for (const std::string& line : lines) {
      sink += metaprox::server::ParseRequest(line, &parsed) ? parsed.k : 0;
    }
  });
  probe.format_us = per_item_us("BuildQueryResponse", results.size(), [&] {
    for (size_t i = 0; i < results.size(); ++i) {
      sink += metaprox::server::BuildQueryResponse(nodes[i], results[i]).size();
    }
  });
  volatile size_t observed = sink;  // keeps the replay loops observable
  (void)observed;
  return probe;
}

int Run(const Args& args) {
  Workload workload;
  if (!ParseWorkload(args.workload, &workload)) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::unique_ptr<Plan> plan =
      MakePlan(workload, args.seed, args.seconds, args.tiny);
  if (args.print_schedule) {
    PrintSchedule(*plan);
    return 0;
  }
  std::filesystem::create_directories(args.out_dir);
  std::printf("workload %s seed %llu seconds %.3f trace %d scale %s\n",
              plan->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              args.tiny ? "tiny" : "default");

  // Set-up runs several times; setup_s is the median. The last set-up
  // (the last two with tracing: untraced, then traced) serves the pass.
  const int setups =
      args.tiny ? 2 : (workload == Workload::kRefreshUnderLoad ? 15 : 3);
  std::vector<double> setup_seconds;
  const std::string setup_artifacts =
      args.out_dir + "/artifacts-" + std::to_string(getpid()) + "-setup";
  PassResult setup_refreshes;
  for (int i = 0; i < setups - (args.trace ? 2 : 1); ++i) {
    Program program(plan->input, setup_artifacts);
    setup_seconds.push_back(program.setup_s());
    if (workload != Workload::kRefreshUnderLoad) {
      TimeEmptyRefreshes(program, &setup_refreshes);
    }
  }
  std::filesystem::remove_all(setup_artifacts);
  Measured untraced = MeasureOnce(*plan, args);
  setup_seconds.push_back(untraced.setup_s);
  if (!setup_refreshes.error.empty()) ++untraced.verification.unanswered;
  untraced.verification.attempted += setup_refreshes.admin_attempted;
  untraced.verification.refused += setup_refreshes.admin_failed;
  untraced.pass.refresh_ms.insert(untraced.pass.refresh_ms.end(),
                                  setup_refreshes.refresh_ms.begin(),
                                  setup_refreshes.refresh_ms.end());
  PrintPass(*plan, untraced.pass, untraced.verification);

  Report report;
  Verification verification = untraced.verification;
  if (!args.trace) {
    const PassResult& pass = untraced.pass;
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("p50_ms", pass.p50_ms, "ms");
    report.Add("p99_ms", pass.p99_ms, "ms");
    report.Add("throughput_qps", pass.throughput_qps, "1/s");
    report.Add("goodput_qps", pass.goodput_qps, "1/s");
    report.Add("refresh_p50_ms", Median(pass.refresh_ms), "ms");
    std::printf("refresh ms:");
    for (double ms : pass.refresh_ms) std::printf(" %.0f", ms);
    std::printf("\n");
    report.Add("peak_rss_mb", untraced.peak_rss_mb, "MB");
    report.Add("index_mb", untraced.index_mb, "MB");
    std::printf("goodput p99 limit %.0f ms; setup_s is the median of %zu "
                "set-ups\n",
                plan->limit_ms, setup_seconds.size());
  } else {
    Tracer& tracer = GlobalTracer();
    tracer.set_enabled(true);
    const std::string artifacts = args.out_dir + "/artifacts-" +
                                  std::to_string(getpid()) + "-traced";
    auto program = std::make_unique<Program>(plan->input, artifacts);
    Measured traced;
    traced.pass = RunPass(*plan, *program);
    traced.replay = ReplayMaintainer(*plan, *program);
    traced.verification =
        Verify(*plan, *program, traced.pass, &traced.replay,
               args.corrupt_reference);
    if (!traced.pass.error.empty()) ++traced.verification.unanswered;
    const LayerProbe probe = ProbeLayers(*plan, *program, traced);
    const metaprox::SearchEngine& built = program->built();
    const auto self = tracer.SelfSeconds();
    auto self_of = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto& mining = built.mining_stats();
    const auto& timings = built.timings();
    double slowest = 0.0;
    double embeddings = 0.0;
    double search_nodes = 0.0;
    for (const auto& stats : built.match_stats()) {
      slowest = std::max(slowest, stats.seconds);
      embeddings += static_cast<double>(stats.embeddings);
      search_nodes += static_cast<double>(stats.search_nodes);
    }
    double nnz = 0.0;
    const size_t num_nodes = built.graph().num_nodes();
    for (metaprox::NodeId x = 0; x < num_nodes; ++x) {
      nnz += NodeNnz(built.index(), x);
    }
    std::vector<double> refresh_ms;
    std::vector<double> rematch_ms;
    double affected = 0.0;
    double delta = 0.0;
    for (const metaprox::RefreshStats& r : traced.replay.refreshes) {
      refresh_ms.push_back(r.total_seconds * 1e3);
      rematch_ms.push_back(r.rematch_seconds * 1e3);
      affected += static_cast<double>(r.affected_metagraphs);
      delta += static_cast<double>(r.delta_metagraphs);
    }
    const auto& stats = traced.pass.stats;
    const double untraced_p50 = untraced.pass.p50_ms;
    const double traced_p50 = traced.pass.p50_ms;
    // serve-sparse's attribution: one query's rank time, its parse and
    // format, and half the default 1 ms batching window; the rest is
    // queueing and the socket.
    const double half_window_ms = 0.5;
    const double explained = probe.query_ms + probe.parse_us / 1e3 +
                             probe.format_us / 1e3 + half_window_ms;
    const double residual = untraced_p50 - explained;

    report.Add("mining.mine_s", self_of("Mine"), "s");
    report.Add("mining.patterns_enumerated",
               static_cast<double>(mining.patterns_enumerated), "count");
    report.Add("mining.patterns_output",
               static_cast<double>(mining.patterns_output), "count");
    report.Add("matching.match_s", timings.match_seconds, "s");
    report.Add("matching.straggler_share",
               timings.match_seconds > 0 ? slowest / timings.match_seconds
                                         : 0.0,
               "ratio");
    report.Add("matching.embeddings", embeddings, "count");
    report.Add("matching.embeddings_per_search_node",
               search_nodes > 0 ? embeddings / search_nodes : 0.0, "ratio");
    report.Add("index.finalize_s", timings.finalize_seconds, "s");
    report.Add("index.save_s", self_of("SaveOffline"), "s");
    report.Add("index.load_s", self_of("LoadOffline"), "s");
    report.Add("index.node_nnz_mean", nnz / std::max<size_t>(num_nodes, 1),
               "count");
    report.Add("index.candidates_per_query", probe.candidates, "count");
    report.Add("learning.train_s", self_of("Train"), "s");
    report.Add("core.query_ms", probe.query_ms, "ms");
    report.Add("core.nnz_dotted_per_query", probe.nnz_dotted, "count");
    report.Add("maintainer.refresh_ms", Median(refresh_ms), "ms");
    report.Add("maintainer.rematch_ms", Median(rematch_ms), "ms");
    report.Add("maintainer.affected_metagraphs",
               refresh_ms.empty() ? 0.0 : affected / refresh_ms.size(),
               "count");
    report.Add("maintainer.delta_share", affected > 0 ? delta / affected : 0.0,
               "ratio");
    report.Add("server.queries_per_window",
               stats.windows > 0
                   ? static_cast<double>(stats.queries) / stats.windows
                   : 0.0,
               "count");
    report.Add("server.largest_batch", static_cast<double>(stats.largest_batch),
               "count");
    report.Add("server.useful_rank_ratio",
               stats.queries > 0 ? static_cast<double>(
                                       traced.verification.verified) /
                                       stats.queries
                                 : 0.0,
               "ratio");
    report.Add("server.protocol_errors",
               static_cast<double>(stats.protocol_errors), "count");
    report.Add("server.evictions",
               static_cast<double>(stats.slow_consumer_evictions), "count");
    report.Add("wire.parse_us", probe.parse_us, "us");
    report.Add("wire.format_us", probe.format_us, "us");
    report.Add("driver.lag_p99_ms", Percentile(traced.pass.lag_ms, 0.99),
               "ms");
    report.Add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    report.Add("attribution.residual_ms", residual, "ms");

    std::printf(
        "attribution: untraced p50 %.3f ms = Query %.3f + parse %.4f + "
        "format %.4f + half window %.3f + residual %.3f ms\n",
        untraced_p50, probe.query_ms, probe.parse_us / 1e3,
        probe.format_us / 1e3, half_window_ms, residual);
    std::printf("residual (queueing + socket) %.3f ms: %s the +-1 ms "
                "tolerance\n",
                residual, std::fabs(residual) <= 1.0 ? "within" : "outside");
    std::printf("tracing overhead: traced p50 %.3f ms - untraced p50 %.3f "
                "ms = %.3f ms\n",
                traced_p50, untraced_p50, traced_p50 - untraced_p50);
    std::printf("self time by span (s):\n");
    for (const auto& [name, seconds] : self) {
      std::printf("  %-24s %12.6f\n", name.c_str(), seconds);
    }
    PrintPass(*plan, traced.pass, traced.verification);
    program->Stop();
    program.reset();
    std::filesystem::remove_all(artifacts);
    tracer.set_enabled(false);
    const std::string trace_path = args.out_dir + "/trace-" + plan->name +
                                   "-" + std::to_string(args.seed) + ".json";
    if (tracer.WriteJson(trace_path)) {
      std::printf("wrote %zu spans to %s\n", tracer.spans().size(),
                  trace_path.c_str());
    }
    verification.attempted += traced.verification.attempted;
    verification.verified += traced.verification.verified;
    verification.refused += traced.verification.refused;
    verification.mismatched += traced.verification.mismatched;
    verification.unanswered += traced.verification.unanswered;
  }

  const bool correct = verification.failed() == 0 &&
                       verification.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(
          verification.attempted, 1)),
      static_cast<unsigned long long>(verification.failed()),
      report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
