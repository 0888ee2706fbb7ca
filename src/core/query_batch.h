// Batched online phase: ranks many queries, under one or more models,
// against the finalized metagraph vector index in one pass.
//
// pi(q, y; w) = 2 (m_qy . w) / (m_q . w + m_y . w). The denominator's node
// dots depend only on the weights and the index, never on the query, so a
// caller computes them ONCE per (model, index) pair — ComputeNodeDots, a
// table of m_x . w over every node — and every later batch reads them from
// that table. What a batch itself amortizes:
//   * duplicate (query, model) pairs are scored once and their result
//     copied;
//   * a node queried under several models walks its candidate postings
//     once, each candidate's pair row scored under all of the window's
//     models in one multi-weight kernel call (core/score_kernels.h);
//   * pair rows between two query nodes of the batch (mutual candidates)
//     are dotted once for all models and read by both endpoints;
//   * distinct query nodes score independently, so the scoring pass fans
//     out over a util::ThreadPool.
//
// Determinism contract (the batched counterpart of the offline pipeline's
// contract in docs/ARCHITECTURE.md): for any batch composition, model mix
// and thread count, result i is IDENTICAL — same nodes, same (bitwise)
// scores, same tie-break order — to RankByProximity(index, weights of
// model_of[i], queries[i], Candidates(queries[i]), k), i.e. to what
// SearchEngine::Query returns under that model. Every dot product —
// per-query, tabled or multi-weight, scalar or SIMD — evaluates through
// the same score kernel with the same canonical accumulation, and the
// shared ProximityRankBefore order is total, so neither parallelism nor
// kernel dispatch has anything to reorder.
#ifndef METAPROX_CORE_QUERY_BATCH_H_
#define METAPROX_CORE_QUERY_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "index/metagraph_vectors.h"
#include "util/thread_pool.h"

namespace metaprox {

/// Top-k results for one query of a batch: (node, proximity) entries in
/// ProximityRankBefore order, proximity > 0 only.
using QueryResult = std::vector<std::pair<NodeId, double>>;

/// m_x . w for every node x of a finalized index (entry x of the result),
/// each through index.NodeDot — the kernel Query() uses — so a table entry
/// is bitwise the dot Query() would compute. With a non-null `pool` the
/// nodes are split over its workers; the table is identical either way.
std::vector<double> ComputeNodeDots(const MetagraphVectorIndex& index,
                                    std::span<const double> weights,
                                    util::ThreadPool* pool = nullptr);

/// One model of a RankBatch call: its weights and the node-dot table
/// ComputeNodeDots built from them over the SAME index the batch ranks.
struct RankModel {
  std::span<const double> weights;
  std::span<const double> node_dots;
};

/// Ranks queries[i] by descending pi(queries[i], .; models[model_of[i]])
/// over its candidate set, returning one QueryResult per query (aligned
/// with `queries`, duplicates included). Requires a finalized index; every
/// model's weights must cover the index's metagraphs and its table its
/// nodes. With a non-null `pool` the scoring pass runs on its workers; the
/// results are identical for any pool size, including none.
std::vector<QueryResult> RankBatch(const MetagraphVectorIndex& index,
                                   std::span<const RankModel> models,
                                   std::span<const NodeId> queries,
                                   std::span<const uint32_t> model_of,
                                   size_t k, util::ThreadPool* pool = nullptr);

}  // namespace metaprox

#endif  // METAPROX_CORE_QUERY_BATCH_H_
