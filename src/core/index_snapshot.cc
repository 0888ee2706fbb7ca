#include "core/index_snapshot.h"

#include <utility>

#include "util/macros.h"

namespace metaprox {

IndexSnapshot::IndexSnapshot(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs,
    std::shared_ptr<const MetagraphVectorIndex> index, uint64_t generation)
    : graph_(std::move(graph)),
      metagraphs_(std::move(metagraphs)),
      index_(std::move(index)),
      generation_(generation) {
  MX_CHECK(graph_ != nullptr && metagraphs_ != nullptr && index_ != nullptr);
  MX_CHECK_MSG(index_->finalized(), "snapshots serve finalized indexes only");
  MX_CHECK(index_->num_metagraphs() == metagraphs_->size());
  MX_CHECK(index_->num_graph_nodes() == graph_->num_nodes());
}

QueryResult IndexSnapshot::Query(const MgpModel& model, NodeId q,
                                 size_t k) const {
  return RankByProximity(*index_, model.weights, q, index_->Candidates(q), k);
}

double IndexSnapshot::Proximity(const MgpModel& model, NodeId x,
                                NodeId y) const {
  return MgpProximity(*index_, model.weights, x, y);
}

}  // namespace metaprox
