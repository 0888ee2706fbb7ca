#include "server/node_dot_cache.h"

#include "core/query_batch.h"

namespace metaprox::server {
namespace {

// True when `weak` and `strong` share one control block.
template <typename T>
bool SameOwner(const std::weak_ptr<T>& weak, const std::shared_ptr<T>& strong) {
  return !weak.owner_before(strong) && !strong.owner_before(weak);
}

}  // namespace

std::span<const double> NodeDotCache::Get(
    const std::shared_ptr<const ServableModel>& model,
    const std::shared_ptr<const IndexSnapshot>& index,
    util::ThreadPool* pool) {
  std::erase_if(entries_, [](const Entry& e) {
    return e.model.expired() || e.index.expired();
  });
  for (const Entry& e : entries_) {
    if (SameOwner(e.model, model) && SameOwner(e.index, index)) {
      return e.node_dots;
    }
  }
  entries_.push_back(Entry{
      model, index,
      ComputeNodeDots(index->index(), model->model.weights, pool)});
  return entries_.back().node_dots;
}

}  // namespace metaprox::server
