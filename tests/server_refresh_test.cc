// Live-traffic index maintenance, end to end over loopback: clients
// streaming byte-checked queries race admin APPEND/REFRESH/SWAPINDEX,
// every response must byte-equal the offline answer of SOME published
// generation (never a torn mix), swapped-in artifacts must restore the
// exact saved bytes, and the maintenance failure modes must answer with
// their structured codes. Runs under TSan in CI (label `concurrency`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "datagen/facebook.h"
#include "learning/model_io.h"
#include "server/client.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "test_helpers.h"
#include "util/socket.h"

namespace metaprox {
namespace {

using server::AdminResult;
using server::ErrorCode;
using server::QueryClient;
using server::QueryServer;
using server::ServerOptions;

constexpr size_t kK = 10;

// Everything one test needs, built fresh per test: refreshes mutate the
// maintainer, so tests must not share one.
struct Fixture {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  MgpModel model;
  std::unique_ptr<server::ModelRegistry> registry;
  std::unique_ptr<IndexMaintainer> maintainer;
  std::unique_ptr<server::IndexRegistry> indexes;
  std::unique_ptr<QueryServer> server;
  std::vector<NodeId> users;

  explicit Fixture(bool with_maintainer = true) {
    datagen::FacebookConfig cfg;
    cfg.num_users = 100;
    ds = datagen::GenerateFacebook(cfg, 17);
    EngineOptions options;
    options.miner.anchor_type = ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    engine = std::make_unique<SearchEngine>(ds.graph, options);
    engine->Mine();
    engine->MatchAll();
    model.weights.assign(engine->metagraphs().size(), 1.0);
    registry =
        std::make_unique<server::ModelRegistry>(model.weights.size());
    EXPECT_TRUE(registry->Load("main", model).ok());
    if (with_maintainer) {
      MaintainerOptions mopts;
      mopts.matcher = options.matcher;
      mopts.embedding_cap = options.embedding_cap;
      maintainer = std::make_unique<IndexMaintainer>(*engine, mopts);
    }
    indexes = std::make_unique<server::IndexRegistry>(
        maintainer != nullptr ? maintainer->snapshot() : engine->Snapshot());

    ServerOptions server_options;
    server_options.default_model = "main";
    server_options.admin = true;
    server_options.num_threads = 2;
    server = std::make_unique<QueryServer>(indexes.get(), registry.get(),
                                           server_options,
                                           maintainer.get());
    auto status = server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();

    auto pool = ds.graph.NodesOfType(ds.user_type);
    users.assign(pool.begin(), pool.end());
  }

  /// The exact response line a given snapshot would answer for `node`.
  static std::string LineOf(const IndexSnapshot& snapshot,
                            const MgpModel& m, NodeId node) {
    return server::BuildQueryResponse(node, snapshot.Query(m, node, kK));
  }

  util::StatusOr<AdminResult> Admin(const std::string& line) {
    auto client = QueryClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) return client.status();
    return client->Admin(line);
  }
};

// Readers streaming pipelined probe rounds, each over its own
// connection, recording every raw response line; validation happens after
// the mutations under test are known.
class ProbeReaders {
 public:
  struct Log {
    std::vector<std::pair<NodeId, std::string>> lines;
    std::string error;
    // The main thread's pacing loops poll these atomics instead of
    // touching `lines`/`error`, which stay reader-owned until Stop().
    std::atomic<size_t> progress{0};
    std::atomic<bool> failed{false};
  };

  ProbeReaders(uint16_t port, std::vector<NodeId> probes, size_t readers)
      : probes_(std::move(probes)), logs_(readers) {
    for (size_t r = 0; r < readers; ++r) {
      threads_.emplace_back([this, port, r] { Run(port, logs_[r]); });
    }
  }
  ~ProbeReaders() { Stop(); }

  /// Waits until reader 0 has logged `lines` more responses than now (or
  /// failed).
  void WaitForMore(size_t lines) {
    const size_t target =
        logs_[0].progress.load(std::memory_order_acquire) + lines;
    while (logs_[0].progress.load(std::memory_order_acquire) < target &&
           !logs_[0].failed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Valid after Stop().
  const std::vector<Log>& logs() const { return logs_; }

 private:
  void Run(uint16_t port, Log& log) {
    auto fail = [&log](std::string error) {
      log.error = std::move(error);
      log.failed.store(true, std::memory_order_release);
    };
    auto sock = util::ConnectTcp("127.0.0.1", port);
    if (!sock.ok()) return fail(sock.status().ToString());
    util::LineReader reader(*sock);
    while (!stop_.load(std::memory_order_relaxed)) {
      for (NodeId u : probes_) {
        if (!util::SendAll(*sock, server::BuildQueryRequest(u, kK)).ok()) {
          return fail("send failed");
        }
      }
      for (NodeId u : probes_) {
        std::string line;
        if (!reader.ReadLine(&line)) return fail("read failed");
        log.lines.emplace_back(u, line + "\n");
        log.progress.store(log.lines.size(), std::memory_order_release);
      }
    }
  }

  const std::vector<NodeId> probes_;
  std::vector<Log> logs_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

TEST(ServerRefresh, RefreshUnderConcurrentByteCheckedReaders) {
  Fixture f;
  const std::vector<NodeId> probes(f.users.begin(), f.users.begin() + 12);

  // Offline truth for the generation being served at start.
  std::map<NodeId, std::string> old_line;
  auto base_snapshot = f.maintainer->snapshot();
  for (NodeId u : probes) {
    old_line[u] = Fixture::LineOf(*base_snapshot, f.model, u);
  }

  // Let the readers get going, then append + refresh mid-traffic.
  ProbeReaders readers(f.server->port(), probes, 3);
  readers.WaitForMore(probes.size());
  auto append =
      f.Admin("APPEND E " + std::to_string(f.users[0]) + ' ' +
              std::to_string(f.users[11]));
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  ASSERT_TRUE(append->ok()) << append->raw;
  EXPECT_EQ(append->verb, "APPEND");

  auto refresh = f.Admin("REFRESH");
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  ASSERT_TRUE(refresh->ok()) << refresh->raw;
  EXPECT_EQ(refresh->verb, "REFRESH");
  ASSERT_EQ(refresh->fields.size(), 4u) << refresh->raw;
  EXPECT_EQ(refresh->fields[0], "2");  // generation
  EXPECT_EQ(refresh->fields[2], "0");  // appended nodes
  EXPECT_EQ(refresh->fields[3], "1");  // appended edges

  // A couple more rounds on the refreshed index, then stop.
  readers.WaitForMore(2 * probes.size());
  readers.Stop();

  // Offline truth for the refreshed generation — served from the same
  // snapshot object the registry published.
  auto refreshed_snapshot = f.maintainer->snapshot();
  ASSERT_EQ(refreshed_snapshot->generation(), 2u);
  std::map<NodeId, std::string> new_line;
  for (NodeId u : probes) {
    new_line[u] = Fixture::LineOf(*refreshed_snapshot, f.model, u);
  }

  // Every line answered during the race byte-equals one generation's
  // offline answer; once a connection sees the new generation it never
  // goes back (queries pin at enqueue, FIFO per connection).
  for (const ProbeReaders::Log& log : readers.logs()) {
    ASSERT_TRUE(log.error.empty()) << log.error;
    ASSERT_FALSE(log.lines.empty());
    bool seen_new = false;
    for (const auto& [u, line] : log.lines) {
      if (line == new_line[u]) {
        seen_new = true;
      } else {
        EXPECT_EQ(line, old_line[u]);
        EXPECT_FALSE(seen_new)
            << "response regressed to the old generation for node " << u;
      }
    }
  }

  // The refresh changed at least one probe's answer (the appended edge
  // touches user-user metagraphs), so the byte-check above is not vacuous.
  bool any_changed = false;
  for (NodeId u : probes) any_changed |= (old_line[u] != new_line[u]);
  EXPECT_TRUE(any_changed);

  // Maintenance counters surface through STATS (fields 14-17).
  auto stats = f.Admin("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->verb, "STATS");
  ASSERT_EQ(stats->fields.size(), 17u) << stats->raw;
  EXPECT_EQ(stats->fields[13], "0");  // append_nodes
  EXPECT_EQ(stats->fields[14], "1");  // append_edges
  EXPECT_EQ(stats->fields[15], "1");  // index_refreshes
  EXPECT_EQ(stats->fields[16], "0");  // index_swaps
}

TEST(ServerRefresh, SwapIndexRestoresTheSavedArtifact) {
  Fixture f;
  const std::string prefix = testing::UniqueTempPath("swap_artifact");
  ASSERT_TRUE(f.engine->SaveOffline(prefix).ok());

  const std::vector<NodeId> probes(f.users.begin(), f.users.begin() + 8);
  auto base_snapshot = f.maintainer->snapshot();
  std::map<NodeId, std::string> saved_line;
  for (NodeId u : probes) {
    saved_line[u] = Fixture::LineOf(*base_snapshot, f.model, u);
  }

  // Drift the live index away from the artifact (edge-only, so the node
  // count — which SWAPINDEX validates — stays fixed).
  auto append =
      f.Admin("APPEND E " + std::to_string(f.users[1]) + ' ' +
              std::to_string(f.users[7]));
  ASSERT_TRUE(append.ok() && append->ok()) << append->raw;
  auto refresh = f.Admin("REFRESH");
  ASSERT_TRUE(refresh.ok() && refresh->ok()) << refresh->raw;
  bool drifted = false;
  for (NodeId u : probes) {
    drifted |= (Fixture::LineOf(*f.maintainer->snapshot(), f.model, u) !=
                saved_line[u]);
  }
  EXPECT_TRUE(drifted);

  // Swap the saved artifact back in, then query over the SAME connection:
  // per-connection FIFO means these queries pin the swapped generation.
  auto sock = util::ConnectTcp("127.0.0.1", f.server->port());
  ASSERT_TRUE(sock.ok());
  util::LineReader reader(*sock);
  ASSERT_TRUE(
      util::SendAll(*sock, server::BuildSwapIndexRequest(prefix)).ok());
  std::string reply;
  ASSERT_TRUE(reader.ReadLine(&reply));
  // Generations: base 1 -> refresh 2 -> swap 3.
  EXPECT_EQ(reply, "OK SWAPINDEX 3");

  for (NodeId u : probes) {
    ASSERT_TRUE(
        util::SendAll(*sock, server::BuildQueryRequest(u, kK)).ok());
  }
  for (NodeId u : probes) {
    std::string line;
    ASSERT_TRUE(reader.ReadLine(&line));
    EXPECT_EQ(line + "\n", saved_line[u]) << "node " << u;
  }

  auto stats = f.Admin("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->fields.size(), 17u);
  EXPECT_EQ(stats->fields[16], "1");  // index_swaps
}

// Node-dot tables are cached per (model snapshot, index snapshot): a
// RELOAD and a REFRESH landing under live traffic must each switch the
// tables the batcher reads. Every response must byte-equal the offline
// answer of a (model, generation) pair that was published while it was
// in flight — a stale table would pair one model's or generation's
// numerators with another's denominators and match none of them.
TEST(ServerRefresh, ReloadAndRefreshUnderTrafficNeverServeStaleTables) {
  Fixture f;
  MgpModel alt = f.model;
  for (size_t i = 1; i < alt.weights.size(); i += 2) alt.weights[i] = 0.0;
  const std::string alt_path = testing::UniqueTempPath("reload_alt.model");
  ASSERT_TRUE(SaveModel(alt, alt_path).ok());

  const std::vector<NodeId> probes(f.users.begin(), f.users.begin() + 12);
  auto gen1 = f.maintainer->snapshot();
  std::map<NodeId, std::vector<std::string>> valid;
  for (NodeId u : probes) {
    valid[u].push_back(Fixture::LineOf(*gen1, f.model, u));
    valid[u].push_back(Fixture::LineOf(*gen1, alt, u));
  }

  ProbeReaders readers(f.server->port(), probes, 2);
  readers.WaitForMore(probes.size());
  auto reload = f.Admin("RELOAD main " + alt_path);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  ASSERT_TRUE(reload->ok()) << reload->raw;
  readers.WaitForMore(2 * probes.size());

  auto append = f.Admin("APPEND E " + std::to_string(f.users[0]) + ' ' +
                        std::to_string(f.users[11]));
  ASSERT_TRUE(append.ok() && append->ok()) << append->raw;
  auto refresh = f.Admin("REFRESH");
  ASSERT_TRUE(refresh.ok() && refresh->ok()) << refresh->raw;
  readers.WaitForMore(2 * probes.size());
  readers.Stop();

  auto gen2 = f.maintainer->snapshot();
  ASSERT_EQ(gen2->generation(), 2u);
  std::map<NodeId, std::string> final_line;
  for (NodeId u : probes) {
    final_line[u] = Fixture::LineOf(*gen2, alt, u);
    valid[u].push_back(final_line[u]);
  }
  for (const ProbeReaders::Log& log : readers.logs()) {
    ASSERT_TRUE(log.error.empty()) << log.error;
    for (const auto& [u, line] : log.lines) {
      const auto& lines = valid[u];
      EXPECT_NE(std::find(lines.begin(), lines.end(), line), lines.end())
          << "node " << u << " answered from no published pair: " << line;
    }
  }

  // Queries accepted after both mutations are served from the new
  // model's table over the new generation.
  auto sock = util::ConnectTcp("127.0.0.1", f.server->port());
  ASSERT_TRUE(sock.ok());
  util::LineReader reader(*sock);
  for (NodeId u : probes) {
    ASSERT_TRUE(util::SendAll(*sock, server::BuildQueryRequest(u, kK)).ok());
  }
  for (NodeId u : probes) {
    std::string line;
    ASSERT_TRUE(reader.ReadLine(&line));
    EXPECT_EQ(line + "\n", final_line[u]) << "node " << u;
  }

  // Neither check is vacuous: the RELOAD changed some answer, and so did
  // the REFRESH.
  bool model_changed = false;
  bool index_changed = false;
  for (NodeId u : probes) {
    model_changed |= valid[u][0] != valid[u][1];
    index_changed |= valid[u][1] != valid[u][2];
  }
  EXPECT_TRUE(model_changed);
  EXPECT_TRUE(index_changed);
}

TEST(ServerRefresh, MaintenanceFailureModesAnswerStructuredCodes) {
  // A maintained server: bad deltas and bad artifacts.
  Fixture f;
  auto self_loop = f.Admin("APPEND E 4 4");
  ASSERT_TRUE(self_loop.ok());
  EXPECT_EQ(self_loop->error_code,
            static_cast<int>(ErrorCode::kBadDelta));
  auto out_of_range = f.Admin("APPEND E 0 4000000");
  ASSERT_TRUE(out_of_range.ok());
  EXPECT_EQ(out_of_range->error_code,
            static_cast<int>(ErrorCode::kBadDelta));
  auto bad_artifact = f.Admin("SWAPINDEX /nonexistent/prefix");
  ASSERT_TRUE(bad_artifact.ok());
  EXPECT_EQ(bad_artifact->error_code,
            static_cast<int>(ErrorCode::kIndexAdminError));

  // A server without a maintainer refuses maintenance outright.
  Fixture plain(/*with_maintainer=*/false);
  for (const std::string& verb :
       {std::string("REFRESH"), std::string("APPEND N user"),
        std::string("APPEND E 0 1")}) {
    auto result = plain.Admin(verb);
    ASSERT_TRUE(result.ok()) << verb;
    EXPECT_EQ(result->error_code,
              static_cast<int>(ErrorCode::kIndexAdminError))
        << verb << " -> " << result->raw;
  }
}

}  // namespace
}  // namespace metaprox
