// The batched online path's determinism contract, single-model: RankBatch
// with one model and its ComputeNodeDots table must return results
// IDENTICAL — same nodes, same (bitwise) scores, same tie-break order — to
// N independent Query() calls, for every batch size, batch composition
// (duplicates, empty, no-candidate queries, k beyond the candidate set)
// and thread count, with one table reused across any sequence of batches.
// Also pins the table itself: ComputeNodeDots equals index.NodeDot — and
// the scalar reference kernel — bitwise for every node.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/simple.h"
#include "core/engine.h"
#include "core/query_batch.h"
#include "core/score_kernels.h"
#include "datagen/facebook.h"
#include "eval/splits.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

struct Pipeline {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  MgpModel model;
  std::vector<double> node_dots;  // ComputeNodeDots(index, model.weights)
  std::vector<NodeId> users;
};

// One matched engine + a trained model, shared by every test (the batch
// path only reads the finalized index, so reuse is safe).
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
    p->model = p->engine->Train(examples, train);
    p->node_dots = ComputeNodeDots(p->engine->index(), p->model.weights);

    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

// First `n` user nodes, cycling when n exceeds the pool.
std::vector<NodeId> QueriesOf(size_t n) {
  const Pipeline& p = SharedPipeline();
  std::vector<NodeId> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) queries.push_back(p.users[i % p.users.size()]);
  return queries;
}

// RankBatch under the pipeline's one model (every model_of entry 0).
std::vector<QueryResult> Rank(std::span<const NodeId> queries, size_t k,
                              util::ThreadPool* pool = nullptr) {
  const Pipeline& p = SharedPipeline();
  const RankModel model{p.model.weights, p.node_dots};
  const std::vector<uint32_t> model_of(queries.size(), 0);
  return RankBatch(p.engine->index(), std::span<const RankModel>(&model, 1),
                   queries, model_of, k, pool);
}

// Exact equality, element for element: same nodes, bitwise-same scores.
void ExpectIdenticalToSequential(std::span<const NodeId> queries, size_t k,
                                 const std::vector<QueryResult>& batched) {
  const Pipeline& p = SharedPipeline();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult sequential = p.engine->Query(p.model, queries[i], k);
    ASSERT_EQ(batched[i].size(), sequential.size())
        << "query #" << i << " (node " << queries[i] << ")";
    for (size_t r = 0; r < sequential.size(); ++r) {
      EXPECT_EQ(batched[i][r].first, sequential[r].first)
          << "query #" << i << " rank " << r;
      EXPECT_EQ(batched[i][r].second, sequential[r].second)
          << "query #" << i << " rank " << r;
    }
  }
}

TEST(RankBatch, IdenticalToSequentialAcrossBatchSizesAndThreads) {
  util::ThreadPool one_thread(1);
  util::ThreadPool four_threads(4);
  const std::vector<std::pair<const char*, util::ThreadPool*>> pools = {
      {"no pool", nullptr}, {"1 thread", &one_thread},
      {"4 threads", &four_threads}};
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
    const std::vector<NodeId> queries = QueriesOf(batch_size);
    for (const auto& [name, pool] : pools) {
      SCOPED_TRACE(::testing::Message()
                   << "batch " << batch_size << ", " << name);
      ExpectIdenticalToSequential(queries, 10, Rank(queries, 10, pool));
    }
  }
}

TEST(RankBatch, TinyBatchesAtScatteredOffsets) {
  const Pipeline& p = SharedPipeline();
  util::ThreadPool four_threads(4);
  for (size_t batch_size : {size_t{1}, size_t{3}}) {
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &four_threads}) {
      for (size_t offset : {size_t{0}, size_t{17}, size_t{130}}) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << batch_size << ", offset " << offset
                     << (pool ? ", pooled" : ", no pool"));
        std::vector<NodeId> queries;
        for (size_t i = 0; i < batch_size; ++i) {
          queries.push_back(p.users[(offset + i) % p.users.size()]);
        }
        ExpectIdenticalToSequential(queries, 10, Rank(queries, 10, pool));
      }
    }
  }
}

TEST(RankBatch, OneTableServesEverySequenceOfBatches) {
  const Pipeline& p = SharedPipeline();
  const std::vector<NodeId> batch_a = {p.users[0], p.users[1], p.users[2]};
  const std::vector<NodeId> batch_b = {p.users[40], p.users[41]};
  // The same table serving A, then B, then a smaller k, then A again: the
  // table is read-only, so every call reproduces Query() exactly.
  ExpectIdenticalToSequential(batch_a, 10, Rank(batch_a, 10));
  ExpectIdenticalToSequential(batch_b, 10, Rank(batch_b, 10));
  ExpectIdenticalToSequential(batch_b, 2, Rank(batch_b, 2));
  ExpectIdenticalToSequential(batch_a, 10, Rank(batch_a, 10));
}

TEST(RankBatch, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(Rank({}, 10).empty());
}

TEST(RankBatch, NodeDotTableEqualsNodeDotOnBothKernels) {
  const Pipeline& p = SharedPipeline();
  const MetagraphVectorIndex& index = p.engine->index();
  util::ThreadPool four_threads(4);
  const std::vector<double> pooled =
      ComputeNodeDots(index, p.model.weights, &four_threads);
  ASSERT_EQ(p.node_dots.size(), index.num_graph_nodes());
  EXPECT_EQ(pooled, p.node_dots);
  for (NodeId x = 0; x < index.num_graph_nodes(); ++x) {
    // The dispatched kernel (what Query() reads) and the scalar reference.
    EXPECT_EQ(p.node_dots[x], index.NodeDot(x, p.model.weights))
        << "node " << x;
    EXPECT_EQ(p.node_dots[x],
              kernels::RowDotScalar(index.NodeRow(x), p.model.weights,
                                    index.row_transform()))
        << "node " << x;
  }
}

TEST(RankBatch, DuplicateQueryNodesEachGetTheSharedResult) {
  const Pipeline& p = SharedPipeline();
  // Every duplicate must carry the full result, aligned with its position.
  const std::vector<NodeId> queries = {p.users[3], p.users[8], p.users[3],
                                       p.users[3], p.users[8]};
  auto batched = Rank(queries, 10);
  ExpectIdenticalToSequential(queries, 10, batched);
  EXPECT_EQ(batched[0], batched[2]);
  EXPECT_EQ(batched[0], batched[3]);
  EXPECT_EQ(batched[1], batched[4]);
}

TEST(RankBatch, KLargerThanAnyCandidateSet) {
  const Pipeline& p = SharedPipeline();
  const std::vector<NodeId> queries = QueriesOf(7);
  const size_t huge_k = p.ds.graph.num_nodes() * 10;
  auto batched = Rank(queries, huge_k);
  ExpectIdenticalToSequential(queries, huge_k, batched);
  for (const auto& result : batched) {
    EXPECT_LT(result.size(), p.ds.graph.num_nodes());
  }
}

TEST(RankBatch, QueryWithoutCandidatesRanksEmpty) {
  const Pipeline& p = SharedPipeline();
  // Non-anchor nodes never occupy symmetric positions, so they have no
  // pair slots and an empty candidate set.
  NodeId no_candidates = kInvalidNode;
  for (NodeId v = 0; v < p.ds.graph.num_nodes(); ++v) {
    if (p.engine->index().Candidates(v).empty()) {
      no_candidates = v;
      break;
    }
  }
  ASSERT_NE(no_candidates, kInvalidNode);
  const std::vector<NodeId> queries = {p.users[0], no_candidates, p.users[1]};
  auto batched = Rank(queries, 10);
  ExpectIdenticalToSequential(queries, 10, batched);
  EXPECT_TRUE(batched[1].empty());
}

TEST(RankBatch, CandidateSlotsAlignWithCandidates) {
  const Pipeline& p = SharedPipeline();
  const MetagraphVectorIndex& index = p.engine->index();
  // SlotDot through the postings must agree with the per-pair hash path.
  for (size_t i = 0; i < p.users.size(); i += 9) {
    const NodeId q = p.users[i];
    auto candidates = index.Candidates(q);
    auto slots = index.CandidateSlots(q);
    ASSERT_EQ(candidates.size(), slots.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(index.SlotDot(slots[c], p.model.weights),
                index.PairDot(q, candidates[c], p.model.weights));
    }
  }
}

}  // namespace
}  // namespace metaprox
