// Batched online phase: throughput of RankBatch vs. the sequential
// per-query path, swept over batch size and worker threads on the
// synthetic Facebook benchmark graph.
//
// The model's node-dot table (ComputeNodeDots: m_x . w for every node) is
// built once, timed on its own, and read by every batch — the per-query
// path recomputes those dots for every candidate of every query, which is
// most of its cost. On top of that a batch scores duplicate queries once,
// reads pair rows through the candidate-slot postings, dots pair rows
// shared by two of its queries once, and fans scoring out over the pool.
//
// Also verifies the batched determinism contract on every configuration:
// whatever the batch size and thread count, every query's result must be
// identical (nodes, bitwise scores, order) to the sequential Query path.
//
// Flags/env: --threads/--shards apply to the offline build only (the
// online sweep sets its own thread counts); METAPROX_BENCH_SCALE=full for
// paper-sized graphs.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/simple.h"
#include "bench_common.h"
#include "core/query_batch.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

constexpr size_t kTopK = 10;
constexpr int kReps = 3;  // best-of reps: timing noise, not results

// Best-of-kReps seconds for one full pass over the query stream.
template <typename Fn>
double TimeBest(const Fn& fn) {
  double best = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

bool Identical(const std::vector<QueryResult>& a,
               const std::vector<QueryResult>& b) {
  return a == b;  // exact: same nodes, bitwise-same scores, same order
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  std::printf("== batched online queries: batch size x threads sweep ==\n");
  std::printf("hardware concurrency: %zu\n\n", util::ResolveNumThreads(0));

  Bundle b = MakeFacebook(5, 450, 1200);
  b.engine->MatchAll();
  const MetagraphVectorIndex& index = b.engine->index();
  const std::vector<double> weights = UniformWeights(index);
  const MgpModel model{weights};

  // Query stream: the user pool cycled to a fixed length, so batches mix
  // repeat visitors (service-style traffic) once the stream wraps.
  const size_t num_queries = FullScale() ? 20000 : 4000;
  std::vector<NodeId> stream;
  stream.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    stream.push_back(b.user_pool[i % b.user_pool.size()]);
  }

  // Sequential baseline (and the reference results for the identity check).
  std::vector<QueryResult> reference(stream.size());
  const double sequential_seconds = TimeBest([&] {
    for (size_t i = 0; i < stream.size(); ++i) {
      reference[i] = b.engine->Query(model, stream[i], kTopK);
    }
  });
  std::printf("%zu queries, sequential Query(): %.3fs (%.0f q/s)\n\n",
              stream.size(), sequential_seconds,
              static_cast<double>(stream.size()) / sequential_seconds);

  // The model's node-dot table, built once for every batch below.
  std::vector<double> node_dots;
  const double table_seconds =
      TimeBest([&] { node_dots = ComputeNodeDots(index, weights); });
  std::printf("node-dot table (%zu nodes): %.3f ms\n\n", node_dots.size(),
              table_seconds * 1e3);
  const RankModel rank_model{weights, node_dots};
  const std::vector<uint32_t> model_of(stream.size(), 0);

  const std::vector<size_t> batch_sizes = {1, 8, 64, 512};
  const std::vector<unsigned> thread_counts = {1, 4};

  util::TablePrinter table(
      {"batch", "threads", "time (s)", "queries/s", "speedup", "identical"});
  JsonReport report("online_batch");
  report.BeginRecord()
      .Str("config", "sequential")
      .Num("queries", static_cast<double>(stream.size()))
      .Num("seconds", sequential_seconds)
      .Num("queries_per_second",
           static_cast<double>(stream.size()) / sequential_seconds);
  report.BeginRecord()
      .Str("config", "node_dot_table")
      .Num("nodes", static_cast<double>(node_dots.size()))
      .Num("seconds", table_seconds);
  bool all_identical = true;
  bool batched_wins_from_8 = true;
  for (size_t batch : batch_sizes) {
    double best_speedup = 0.0;
    for (unsigned threads : thread_counts) {
      util::ThreadPool pool(threads);
      util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      std::vector<QueryResult> results(stream.size());
      const double seconds = TimeBest([&] {
        for (size_t begin = 0; begin < stream.size(); begin += batch) {
          const size_t end = std::min(stream.size(), begin + batch);
          auto chunk = RankBatch(
              index, std::span<const RankModel>(&rank_model, 1),
              std::span<const NodeId>(stream.data() + begin, end - begin),
              std::span<const uint32_t>(model_of.data() + begin, end - begin),
              kTopK, pool_ptr);
          std::move(chunk.begin(), chunk.end(), results.begin() + begin);
        }
      });
      const bool identical = Identical(results, reference);
      all_identical &= identical;
      const double speedup = sequential_seconds / seconds;
      best_speedup = std::max(best_speedup, speedup);
      table.AddRow({std::to_string(batch), std::to_string(threads),
                    util::FormatDouble(seconds, 3),
                    util::FormatDouble(
                        static_cast<double>(stream.size()) / seconds, 0),
                    util::FormatDouble(speedup, 2) + "x",
                    identical ? "yes" : "NO — BUG"});
      report.BeginRecord()
          .Str("config", "batched")
          .Num("batch", static_cast<double>(batch))
          .Num("threads", threads)
          .Num("seconds", seconds)
          .Num("queries_per_second",
               static_cast<double>(stream.size()) / seconds)
          .Num("speedup", speedup)
          .Num("identical", identical ? 1 : 0);
    }
    if (batch >= 8 && best_speedup <= 1.0) batched_wins_from_8 = false;
  }
  table.Print(std::cout);
  if (!report.WriteIfRequested()) return 1;

  std::printf(
      "\nexpected shape: every batch size beats sequential by roughly the "
      "share of Query() time spent on node dots (the table removes it); "
      "speedup rises further with batch size and with threads at large "
      "batches; the table costs about one sequential query; the "
      "\"identical\" column must read yes everywhere.\n");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: batched results differ from sequential Query\n");
    return 1;
  }
  if (!batched_wins_from_8) {
    std::fprintf(stderr,
                 "FATAL: batched throughput does not beat sequential at "
                 "batch >= 8\n");
    return 1;
  }
  return 0;
}
