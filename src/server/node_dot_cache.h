// NodeDotCache: the query server's node-dot tables, one per (model
// snapshot, index snapshot) pair a served window has ranked under.
//
// A table holds m_x . w for every node (core/query_batch.h,
// ComputeNodeDots): it depends only on the model's weights and the index
// generation, so it is built once — by the first window that needs the
// pair, or earlier, while the batcher is idle after an admin verb — and
// reused by every later window until either snapshot is released.
// Publishing a model or an index (LOAD/RELOAD, REFRESH, SWAPINDEX) never
// builds a table itself: the registries stay decoupled, and the verb's
// reply never waits for one.
//
// Identity is ownership, not address: an entry holds weak_ptrs to both
// snapshots and matches a request only when it shares their control
// blocks. A live weak_ptr keeps its control block allocated, so a freed
// snapshot's address — even if reused by the next generation — can never
// be served a stale table. Entries whose model or index expired are
// dropped on the next lookup.
//
// Not thread-safe: the server's batcher is the only user.
#ifndef METAPROX_SERVER_NODE_DOT_CACHE_H_
#define METAPROX_SERVER_NODE_DOT_CACHE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/index_snapshot.h"
#include "server/model_registry.h"
#include "util/thread_pool.h"

namespace metaprox::server {

class NodeDotCache {
 public:
  /// The node-dot table of `model` over `index`, built (on `pool`, when
  /// given) on first use. Drops expired entries first. The span stays
  /// valid while the caller holds both snapshots.
  std::span<const double> Get(
      const std::shared_ptr<const ServableModel>& model,
      const std::shared_ptr<const IndexSnapshot>& index,
      util::ThreadPool* pool);

  /// Tables currently held (expired ones included until the next Get).
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::weak_ptr<const ServableModel> model;
    std::weak_ptr<const IndexSnapshot> index;
    std::vector<double> node_dots;
  };
  std::vector<Entry> entries_;
};

}  // namespace metaprox::server

#endif  // METAPROX_SERVER_NODE_DOT_CACHE_H_
