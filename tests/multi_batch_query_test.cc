// The multi-model batch's determinism contract: RankBatch over several
// models, each with its ComputeNodeDots table, must return, for every
// entry i, results IDENTICAL — same nodes, same (bitwise) scores, same
// tie-break order — to Query() under queries[i]'s own model, and
// therefore to a single-model RankBatch of that model's slice, for every
// window size, model mix (including duplicates of a node across models),
// pool size and kernel. Also covers concurrent windows reading the same
// tables (the TSan concurrency label).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query_batch.h"
#include "datagen/facebook.h"
#include "eval/splits.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

struct Pipeline {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  // models[0] is trained; the rest are synthetic mixes that disagree with
  // it (so a query ranked under the wrong model would be caught).
  std::vector<MgpModel> models;
  // node_dots[m] = ComputeNodeDots(index, models[m].weights).
  std::vector<std::vector<double>> node_dots;
  std::vector<NodeId> users;
};

const Pipeline& SharedPipeline() {
  static const Pipeline* pipeline = [] {
    auto* p = new Pipeline();
    datagen::FacebookConfig cfg;
    cfg.num_users = 220;
    p->ds = datagen::GenerateFacebook(cfg, 47);

    EngineOptions options;
    options.miner.anchor_type = p->ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    options.num_threads = 4;
    p->engine = std::make_unique<SearchEngine>(p->ds.graph, options);
    p->engine->Mine();
    p->engine->MatchAll();

    const GroundTruth* family = p->ds.FindClass("family");
    MX_CHECK(family != nullptr);
    util::Rng rng(9);
    QuerySplit split = SplitQueries(*family, 0.2, rng);
    auto pool = p->ds.graph.NodesOfType(p->ds.user_type);
    std::vector<NodeId> pool_vec(pool.begin(), pool.end());
    auto examples = SampleExamples(*family, split.train, pool_vec, 150, rng);
    TrainOptions train;
    train.max_iterations = 200;
    p->models.push_back(p->engine->Train(examples, train));

    const size_t n = p->engine->index().num_metagraphs();
    MgpModel uniform, evens, odds, taper;
    uniform.weights.assign(n, 1.0);
    evens.weights.assign(n, 0.0);
    odds.weights.assign(n, 0.0);
    taper.weights.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i % 2 == 0) evens.weights[i] = 1.0;
      if (i % 2 == 1) odds.weights[i] = 1.0;
      taper.weights[i] = 1.0 / static_cast<double>(1 + i % 7);
    }
    p->models.push_back(std::move(uniform));
    p->models.push_back(std::move(evens));
    p->models.push_back(std::move(odds));
    p->models.push_back(std::move(taper));
    for (const MgpModel& model : p->models) {
      p->node_dots.push_back(ComputeNodeDots(p->engine->index(), model.weights));
    }

    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

// The first n_models models with their tables, as RankBatch consumes them.
std::vector<RankModel> RankModels(size_t n_models) {
  const Pipeline& p = SharedPipeline();
  MX_CHECK(n_models <= p.models.size());
  std::vector<RankModel> models;
  models.reserve(n_models);
  for (size_t m = 0; m < n_models; ++m) {
    models.push_back(RankModel{p.models[m].weights, p.node_dots[m]});
  }
  return models;
}

// A window of `n` queries cycling the user pool, striping models round
// robin over `n_models` so every window mixes every model.
struct Window {
  std::vector<NodeId> queries;
  std::vector<uint32_t> model_of;
};

Window WindowOf(size_t n, size_t n_models) {
  const Pipeline& p = SharedPipeline();
  Window w;
  for (size_t i = 0; i < n; ++i) {
    w.queries.push_back(p.users[i % p.users.size()]);
    w.model_of.push_back(static_cast<uint32_t>(i % n_models));
  }
  return w;
}

// Exact equality against the per-query path under each query's OWN model.
void ExpectIdenticalToQuery(const Window& w, size_t k,
                            const std::vector<QueryResult>& multi) {
  const Pipeline& p = SharedPipeline();
  ASSERT_EQ(multi.size(), w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QueryResult sequential =
        p.engine->Query(p.models[w.model_of[i]], w.queries[i], k);
    ASSERT_EQ(multi[i].size(), sequential.size())
        << "query #" << i << " (node " << w.queries[i] << ", model "
        << w.model_of[i] << ")";
    for (size_t r = 0; r < sequential.size(); ++r) {
      EXPECT_EQ(multi[i][r].first, sequential[r].first)
          << "query #" << i << " rank " << r;
      EXPECT_EQ(multi[i][r].second, sequential[r].second)
          << "query #" << i << " rank " << r;
    }
  }
}

TEST(MultiModelRankBatch, MixedWindowsIdenticalToQueryAcrossSizesModelsThreads) {
  const Pipeline& p = SharedPipeline();
  util::ThreadPool one_thread(1);
  util::ThreadPool four_threads(4);
  const std::vector<std::pair<const char*, util::ThreadPool*>> pools = {
      {"no pool", nullptr}, {"1 thread", &one_thread},
      {"4 threads", &four_threads}};
  for (size_t window : {size_t{1}, size_t{7}, size_t{64}}) {
    for (size_t n_models : {size_t{1}, size_t{2}, size_t{5}}) {
      const Window w = WindowOf(window, n_models);
      const auto models = RankModels(n_models);
      for (const auto& [name, pool] : pools) {
        SCOPED_TRACE(::testing::Message() << "window " << window << ", "
                                          << n_models << " models, " << name);
        auto multi = RankBatch(p.engine->index(), models, w.queries,
                               w.model_of, /*k=*/10, pool);
        ExpectIdenticalToQuery(w, 10, multi);
      }
    }
  }
}

TEST(MultiModelRankBatch, MatchesPerModelSingleModelBatches) {
  const Pipeline& p = SharedPipeline();
  const size_t n_models = 5;
  const Window w = WindowOf(40, n_models);
  const auto models = RankModels(n_models);
  auto multi = RankBatch(p.engine->index(), models, w.queries, w.model_of,
                         /*k=*/10);
  // Re-rank each model's slice as a single-model batch: the two schedules
  // must agree bitwise, result for result.
  for (uint32_t m = 0; m < n_models; ++m) {
    std::vector<NodeId> slice;
    std::vector<size_t> positions;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      if (w.model_of[i] == m) {
        slice.push_back(w.queries[i]);
        positions.push_back(i);
      }
    }
    const std::vector<uint32_t> zeros(slice.size(), 0);
    auto single = RankBatch(p.engine->index(),
                            std::span<const RankModel>(&models[m], 1), slice,
                            zeros, /*k=*/10);
    for (size_t j = 0; j < slice.size(); ++j) {
      EXPECT_EQ(multi[positions[j]], single[j])
          << "model " << m << ", slice entry " << j;
    }
  }
}

TEST(MultiModelRankBatch, DuplicateNodesAcrossModelsScoreUnderTheirOwnModel) {
  const Pipeline& p = SharedPipeline();
  // The SAME node queried under several models in one window (the serving
  // case this path exists for), plus exact (node, model) duplicates that
  // must share one result.
  Window w;
  const NodeId a = p.users[3];
  const NodeId b = p.users[8];
  w.queries = {a, a, a, b, a, b};
  w.model_of = {0, 2, 0, 1, 4, 1};
  auto multi = RankBatch(p.engine->index(), RankModels(5), w.queries,
                         w.model_of, /*k=*/10);
  ExpectIdenticalToQuery(w, 10, multi);
  EXPECT_EQ(multi[0], multi[2]);  // (a, model 0) duplicated
  EXPECT_EQ(multi[3], multi[5]);  // (b, model 1) duplicated
}

TEST(MultiModelRankBatch, TablesServeWindowsOfChangingModelCounts) {
  const Pipeline& p = SharedPipeline();
  // Alternate windows of different widths with single-model windows over
  // the same tables: a table is read-only, so no window can see another's
  // state.
  for (size_t n_models : {size_t{5}, size_t{1}, size_t{3}}) {
    const Window w = WindowOf(30, n_models);
    auto multi = RankBatch(p.engine->index(), RankModels(n_models), w.queries,
                           w.model_of, 10);
    ExpectIdenticalToQuery(w, 10, multi);
    const std::vector<uint32_t> zeros(w.queries.size(), 0);
    auto single = RankBatch(p.engine->index(), RankModels(1), w.queries,
                            zeros, 10);
    for (size_t i = 0; i < w.queries.size(); ++i) {
      const QueryResult expected =
          p.engine->Query(p.models[0], w.queries[i], 10);
      EXPECT_EQ(single[i], expected) << "single-model call after multi, #" << i;
    }
  }
}

TEST(MultiModelRankBatch, EmptyWindowReturnsEmpty) {
  const Pipeline& p = SharedPipeline();
  EXPECT_TRUE(RankBatch(p.engine->index(), RankModels(2), {}, {}, 10).empty());
}

// Concurrent windows over the SAME tables, each on its own pool: the
// tables and the index are read-only, so nothing is shared mutably. Run
// under TSan via the concurrency label.
TEST(MultiModelRankBatch, ConcurrentWindowsShareTables) {
  const Pipeline& p = SharedPipeline();
  constexpr size_t kThreads = 4;
  std::vector<std::vector<QueryResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n_models = 1 + t % 5;
      const Window w = WindowOf(24 + t, n_models);
      const auto models = RankModels(n_models);
      util::ThreadPool pool(2);
      for (int round = 0; round < 3; ++round) {
        results[t] = RankBatch(p.engine->index(), models, w.queries,
                               w.model_of, /*k=*/10, &pool);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    const size_t n_models = 1 + t % 5;
    const Window w = WindowOf(24 + t, n_models);
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    ExpectIdenticalToQuery(w, 10, results[t]);
  }
}

}  // namespace
}  // namespace metaprox
