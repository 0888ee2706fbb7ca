#include "core/query_batch.h"

#include <algorithm>
#include <cstdint>

#include "core/score_kernels.h"
#include "learning/proximity.h"
#include "util/macros.h"
#include "util/parallel_for.h"

namespace metaprox {

std::vector<double> ComputeNodeDots(const MetagraphVectorIndex& index,
                                    std::span<const double> weights,
                                    util::ThreadPool* pool) {
  MX_CHECK(weights.size() == index.num_metagraphs());
  std::vector<double> dots(index.num_graph_nodes());
  // Chunks write disjoint entries, so no synchronization.
  util::ParallelChunks(pool, dots.size(), [&](size_t begin, size_t end) {
    for (size_t x = begin; x < end; ++x) {
      dots[x] = index.NodeDot(static_cast<NodeId>(x), weights);
    }
  });
  return dots;
}

std::vector<QueryResult> RankBatch(const MetagraphVectorIndex& index,
                                   std::span<const RankModel> models,
                                   std::span<const NodeId> queries,
                                   std::span<const uint32_t> model_of,
                                   size_t k, util::ThreadPool* pool) {
  MX_CHECK(model_of.size() == queries.size());
  const size_t n_models = models.size();
  const size_t num_nodes = index.num_graph_nodes();
  for (const RankModel& model : models) {
    MX_CHECK(model.weights.size() == index.num_metagraphs());
    MX_CHECK(model.node_dots.size() == num_nodes);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    MX_CHECK(queries[i] < num_nodes);
    MX_CHECK(model_of[i] < n_models);
  }

  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;

  // Duplicates of a (query, model) pair share one scored result: collapse
  // to sorted unique pairs. Sorting by (node, model) also groups a node's
  // model memberships contiguously for the scoring pass, and keeps the
  // scatter a binary search.
  std::vector<std::pair<NodeId, uint32_t>> uniq;
  uniq.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    uniq.emplace_back(queries[i], model_of[i]);
  }
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  // Unique query NODES (a node queried under several models walks its
  // candidates once), and the offsets of each node's run of (node, model)
  // members in uniq, with a sentinel: group g (aligned with qnodes) spans
  // uniq[group_begin[g] .. group_begin[g + 1]).
  std::vector<NodeId> qnodes;
  std::vector<size_t> group_begin;
  qnodes.reserve(uniq.size());
  group_begin.reserve(uniq.size() + 1);
  for (size_t i = 0; i < uniq.size(); ++i) {
    if (i == 0 || uniq[i].first != uniq[i - 1].first) {
      qnodes.push_back(uniq[i].first);
      group_begin.push_back(i);
    }
  }
  group_begin.push_back(uniq.size());

  std::vector<std::span<const double>> weights;
  weights.reserve(n_models);
  for (const RankModel& model : models) weights.push_back(model.weights);
  kernels::MultiWeightSet wset;
  wset.Assign(weights);
  const kernels::RowTransform transform = index.row_transform();

  // Pair rows between two query nodes of the batch are read by both
  // endpoints' scorings: precompute those once for all models. Collected
  // from both directions and de-duplicated by slot, so a symmetric slot is
  // dotted exactly once however the index numbered it.
  std::vector<uint32_t> shared_slots;
  for (NodeId q : qnodes) {
    const std::span<const NodeId> candidates = index.Candidates(q);
    const std::span<const uint32_t> slots = index.CandidateSlots(q);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const NodeId y = candidates[i];
      if (y != q && std::binary_search(qnodes.begin(), qnodes.end(), y)) {
        shared_slots.push_back(slots[i]);
      }
    }
  }
  std::sort(shared_slots.begin(), shared_slots.end());
  shared_slots.erase(std::unique(shared_slots.begin(), shared_slots.end()),
                     shared_slots.end());

  std::vector<double> shared_dots(shared_slots.size() * n_models);
  util::ParallelChunks(pool, shared_slots.size(), [&](size_t begin,
                                                      size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    for (size_t i = begin; i < end; ++i) {
      kernels::RowDotMulti(index.PairRow(shared_slots[i]), wset, transform,
                           shared_dots.data() + i * n_models, lanes.data());
    }
  });

  // Scoring pass: one group per query node, walking its candidate postings
  // ONCE for all member models. Each candidate's pair row yields its
  // n_models dots in one kernel call (or a precomputed shared-slot read);
  // both node dots come from the members' tables. Every member then
  // applies RankByProximity's exact guards and arithmetic under its own
  // model, so member (q, m)'s result is bitwise Query(q) under model m.
  std::vector<QueryResult> uniq_results(uniq.size());
  util::ParallelChunks(pool, qnodes.size(), [&](size_t begin, size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    std::vector<double> local_dots(n_models);
    for (size_t g = begin; g < end; ++g) {
      const NodeId q = qnodes[g];
      const size_t members_begin = group_begin[g];
      const size_t members = group_begin[g + 1] - members_begin;
      const std::span<const NodeId> candidates = index.Candidates(q);
      const std::span<const uint32_t> slots = index.CandidateSlots(q);

      std::vector<QueryResult> scored(members);
      for (QueryResult& s : scored) s.reserve(candidates.size());

      for (size_t i = 0; i < candidates.size(); ++i) {
        const NodeId y = candidates[i];
        if (y == q) continue;
        const double* pair_dots;
        const auto it = std::lower_bound(shared_slots.begin(),
                                         shared_slots.end(), slots[i]);
        if (it != shared_slots.end() && *it == slots[i]) {
          pair_dots = shared_dots.data() +
                      static_cast<size_t>(it - shared_slots.begin()) * n_models;
        } else {
          kernels::RowDotMulti(index.PairRow(slots[i]), wset, transform,
                               local_dots.data(), lanes.data());
          pair_dots = local_dots.data();
        }
        for (size_t j = 0; j < members; ++j) {
          const uint32_t m = uniq[members_begin + j].second;
          const double numer = 2.0 * pair_dots[m];
          if (numer <= 0.0) continue;
          const double denom = models[m].node_dots[q] + models[m].node_dots[y];
          if (denom <= 0.0) continue;
          scored[j].emplace_back(y, numer / denom);
        }
      }

      for (size_t j = 0; j < members; ++j) {
        QueryResult& s = scored[j];
        const size_t take = std::min(k, s.size());
        std::partial_sort(s.begin(), s.begin() + static_cast<int64_t>(take),
                          s.end(), ProximityRankBefore);
        s.resize(take);
        uniq_results[members_begin + j] = std::move(s);
      }
    }
  });

  // Scatter back into batch order; duplicates copy the shared result.
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::pair<NodeId, uint32_t> key(queries[i], model_of[i]);
    const size_t pos = static_cast<size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), key) - uniq.begin());
    results[i] = uniq_results[pos];
  }
  return results;
}

}  // namespace metaprox
