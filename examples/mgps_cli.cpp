// mgps_cli: end-to-end command-line tool exercising the whole public API,
// including persistence of the offline phase.
//
// Usage:
//   mgps_cli [--threads=N] [--shards=S] generate <facebook|linkedin|citation>
//                                   <num> <seed> <graph.txt>
//   mgps_cli [--threads=N] [--shards=S] offline  <facebook|linkedin|citation>
//                                   <num> <seed> <prefix>
//   mgps_cli [--threads=N] [--shards=S] query    <facebook|linkedin|citation>
//                                   <num> <seed> <prefix> <class>
//                                   <query-id> [k]
//   mgps_cli [--threads=N] --query-file=F [--tsv] query
//                                   <facebook|linkedin|citation>
//                                   <num> <seed> <prefix> <class> [k]
//
// `generate` writes the typed object graph as text. `offline` regenerates
// the same dataset, runs mine+match (over N offline worker threads; 0 = all
// cores, default 1; the index's pair-slot table is split into S shards,
// 0 = auto), and saves <prefix>.metagraphs and <prefix>.index. `query`
// restores the offline phase, obtains the class model, and prints the
// top-k answers for one query node — or, with --query-file, builds the
// model's node-dot table once and ranks every node id listed in F
// (whitespace-separated) in one RankBatch call (batch results are
// identical to per-id queries; see core/query_batch.h). The saved index is
// byte-identical for every --threads and --shards value.
//
// Models are first-class artifacts: --model=PATH loads the saved model at
// PATH if present and otherwise trains once and saves it there (the
// shared load-or-train-and-save path of examples/example_common.h —
// metaprox_server consumes the same files); --save-model=PATH forces a
// retrain and (over)writes PATH. Saved weights round-trip bit-for-bit
// (%.17g), so a load serves exactly the bytes a fresh train would.
//
// --tsv switches result output to the machine-readable form
// "query<TAB>rank<TAB>node<TAB>score" (scores via server::FormatScore,
// %.17g — exact double round-trip) with all narration on stderr. The CI
// server smoke byte-diffs this against mgps_client --tsv output from a
// running metaprox_server over the same saved index.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_batch.h"
#include "example_common.h"
#include "graph/graph_io.h"
#include "server/wire.h"  // server::FormatScore: shared exact score format
#include "util/parse.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace metaprox;  // NOLINT

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mgps_cli [flags] generate <kind> <num> <seed> <graph.txt>\n"
      "  mgps_cli [flags] offline  <kind> <num> <seed> <prefix>\n"
      "  mgps_cli [flags] query    <kind> <num> <seed> <prefix>\n"
      "                            <class> <id> [k]\n"
      "  mgps_cli [flags] --query-file=F query <kind> <num> <seed>\n"
      "                            <prefix> <class> [k]\n"
      "kinds: facebook linkedin citation\n"
      "flags:\n"
      "  --threads=N      offline worker threads (mining + matching) and\n"
      "                   batch-query scoring threads (0 = all cores;\n"
      "                   default 1)\n"
      "  --shards=S       index pair-table shards (0 = auto; default 0);\n"
      "                   never changes the saved index bytes\n"
      "  --query-file=F   batch mode for 'query': rank every node id in F\n"
      "                   (whitespace-separated) in one batched call;\n"
      "                   results are identical to per-id queries\n"
      "  --model=PATH     load the class model from PATH; if absent, train\n"
      "                   once and save it there (metaprox_server loads\n"
      "                   the same artifacts)\n"
      "  --save-model=P   force retrain and (over)write the model to P\n"
      "  --binary[=L]     write artifacts (index + saved models) in the v2\n"
      "                   binary container instead of text; L picks the\n"
      "                   index layout: 'compact' (default; smallest) or\n"
      "                   'aligned' (mmap-able). Loads autodetect either\n"
      "                   format, so this only matters when writing\n"
      "  --mmap           'query': map a binary aligned index instead of\n"
      "                   parsing it (text/compact artifacts load eagerly)\n"
      "  --tsv            machine-readable results on stdout\n"
      "                   (query<TAB>rank<TAB>node<TAB>score, %%.17g\n"
      "                   scores), narration on stderr; byte-comparable\n"
      "                   with mgps_client --tsv\n");
  return 2;
}

// One ranked entry in --tsv form (server::FormatTsvRow is the single
// definition mgps_client shares).
void PrintTsvRow(NodeId query, size_t rank, NodeId node, double score) {
  const std::string row =
      server::FormatTsvRow(query, rank, node, server::FormatScore(score));
  std::fputs(row.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip flags (anywhere on the line) before the positional arguments.
  unsigned num_threads = 1;
  size_t num_shards = 0;       // 0 = auto
  std::string query_file;      // non-empty = batch query mode
  std::string model_file;      // non-empty = load-or-train-and-save here
  std::string save_model;      // non-empty = force retrain and save here
  bool tsv = false;            // machine-readable results on stdout
  bool binary = false;         // write v2 binary artifacts
  BinaryLayout layout = BinaryLayout::kCompact;
  bool use_mmap = false;       // map binary index artifacts on load
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tsv") == 0) {
      tsv = true;
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      use_mmap = true;
    } else if (std::strcmp(argv[i], "--binary") == 0 ||
               std::strcmp(argv[i], "--binary=compact") == 0) {
      binary = true;
      layout = BinaryLayout::kCompact;
    } else if (std::strcmp(argv[i], "--binary=aligned") == 0) {
      binary = true;
      layout = BinaryLayout::kAligned;
    } else if (std::strncmp(argv[i], "--binary=", 9) == 0) {
      std::fprintf(stderr, "--binary layout must be compact or aligned\n");
      return Usage();
    } else if (std::strncmp(argv[i], "--query-file=", 13) == 0) {
      query_file = argv[i] + 13;
      if (query_file.empty()) {
        std::fprintf(stderr, "--query-file needs a path\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      model_file = argv[i] + 8;
      if (model_file.empty()) {
        std::fprintf(stderr, "--model needs a path\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--save-model=", 13) == 0) {
      save_model = argv[i] + 13;
      if (save_model.empty()) {
        std::fprintf(stderr, "--save-model needs a path\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      unsigned value = 0;
      if (!util::ParseCount(argv[i] + 10, &value)) {
        std::fprintf(stderr,
                     "--threads must be a non-negative integer "
                     "(0 = all cores)\n");
        return Usage();
      }
      num_threads = value;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      unsigned value = 0;
      if (!util::ParseCount(argv[i] + 9, &value)) {
        std::fprintf(stderr,
                     "--shards must be a non-negative integer (0 = auto)\n");
        return Usage();
      }
      num_shards = value;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 5) return Usage();
  const std::string command = positional[0];
  const std::string kind = positional[1];
  const uint32_t num = static_cast<uint32_t>(std::atoi(positional[2]));
  const uint64_t seed = std::strtoull(positional[3], nullptr, 10);
  const std::string path = positional[4];

  datagen::Dataset ds = examples::MakeDataset(kind, num, seed);
  // In --tsv mode stdout carries only result rows (so it byte-diffs
  // against mgps_client --tsv); narration moves to stderr.
  std::FILE* info = tsv ? stderr : stdout;
  std::fprintf(info, "dataset %s: %s\n", ds.name.c_str(),
               ds.graph.Summary().c_str());

  if (command == "generate") {
    auto status = WriteGraphToFile(ds.graph, path);
    if (!status.ok()) {
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote graph to %s\n", path.c_str());
    return 0;
  }

  if (command == "offline") {
    SearchEngine engine(
        ds.graph, examples::MakeEngineOptions(ds, num_threads, num_shards));
    engine.Mine();
    engine.MatchAll();
    std::printf("mined %zu metagraphs (%.1fs), matched (%.1fs, %u threads)\n",
                engine.metagraphs().size(), engine.timings().mine_seconds,
                engine.timings().match_seconds,
                num_threads == 0 ? static_cast<unsigned>(
                                       util::ResolveNumThreads(0))
                                 : num_threads);
    ArtifactOptions artifact_options;
    artifact_options.format = binary ? util::ArtifactFormat::kBinary
                                     : util::ArtifactFormat::kText;
    artifact_options.layout = layout;
    auto status = engine.SaveOffline(path, artifact_options);
    if (!status.ok()) {
      std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved offline phase to %s.{metagraphs,index}%s\n",
                path.c_str(),
                !binary ? ""
                : layout == BinaryLayout::kAligned
                    ? " (binary, aligned layout)"
                    : " (binary, compact layout)");
    return 0;
  }

  if (command == "query") {
    const bool batch_mode = !query_file.empty();
    if (positional.size() < (batch_mode ? 6u : 7u)) return Usage();
    const std::string class_name = positional[5];
    const size_t k_position = batch_mode ? 6 : 7;
    const size_t k = positional.size() > k_position
                         ? static_cast<size_t>(std::atoi(positional[k_position]))
                         : 10;

    std::vector<NodeId> batch;
    if (batch_mode) {
      std::ifstream in(query_file);
      if (!in) {
        std::fprintf(stderr, "cannot read query file %s\n",
                     query_file.c_str());
        return 1;
      }
      uint64_t id = 0;
      while (in >> id) {
        if (id >= ds.graph.num_nodes()) {
          std::fprintf(stderr, "query id %llu out of range (graph has %zu)\n",
                       static_cast<unsigned long long>(id),
                       ds.graph.num_nodes());
          return 1;
        }
        batch.push_back(static_cast<NodeId>(id));
      }
      // A malformed token stops extraction before EOF; silently ranking
      // only the prefix of the batch would look like success.
      if (!in.eof()) {
        std::fprintf(stderr, "query file %s: malformed node id after %zu ids\n",
                     query_file.c_str(), batch.size());
        return 1;
      }
      if (batch.empty()) {
        std::fprintf(stderr, "query file %s holds no node ids\n",
                     query_file.c_str());
        return 1;
      }
    }
    const NodeId query =
        batch_mode ? kInvalidNode
                   : static_cast<NodeId>(std::atoi(positional[6]));

    const GroundTruth* gt = ds.FindClass(class_name);
    if (gt == nullptr) {
      std::fprintf(stderr, "no such class: %s (available:", class_name.c_str());
      for (const auto& c : ds.classes) {
        std::fprintf(stderr, " %s", c.class_name().c_str());
      }
      std::fprintf(stderr, ")\n");
      return 1;
    }

    SearchEngine engine(
        ds.graph, examples::MakeEngineOptions(ds, num_threads, num_shards));
    ArtifactOptions artifact_options;
    artifact_options.use_mmap = use_mmap;
    auto status = engine.LoadOffline(path, artifact_options);
    if (!status.ok()) {
      std::fprintf(stderr, "load failed (run 'offline' first?): %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(info, "restored %zu metagraphs from %s%s\n",
                 engine.metagraphs().size(), path.c_str(),
                 engine.index().is_mapped() ? " (index mmapped)" : "");

    MgpModel model;
    if (!save_model.empty()) {
      // Forced retrain: --save-model refreshes the artifact even when a
      // stale one exists (e.g. after a new offline phase).
      model = examples::TrainClassModel(engine, ds, *gt, seed);
      auto saved = SaveModel(model, save_model,
                             binary ? util::ArtifactFormat::kBinary
                                    : util::ArtifactFormat::kText);
      if (!saved.ok()) {
        std::fprintf(stderr, "save model failed: %s\n",
                     saved.ToString().c_str());
        return 1;
      }
      std::fprintf(info, "trained '%s' model and saved it to %s\n",
                   class_name.c_str(), save_model.c_str());
    } else {
      auto obtained = examples::LoadOrTrainClassModel(
          engine, ds, *gt, seed, model_file,
          binary ? util::ArtifactFormat::kBinary
                 : util::ArtifactFormat::kText);
      if (!obtained.ok()) {
        std::fprintf(stderr, "model failed: %s\n",
                     obtained.status().ToString().c_str());
        return 1;
      }
      model = std::move(*obtained);
    }

    if (batch_mode) {
      util::Stopwatch timer;
      const size_t workers = util::ResolveNumThreads(num_threads);
      std::unique_ptr<util::ThreadPool> pool;
      if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
      const std::vector<double> node_dots =
          ComputeNodeDots(engine.index(), model.weights, pool.get());
      const RankModel rank_model{model.weights, node_dots};
      const std::vector<uint32_t> model_of(batch.size(), 0);
      auto results =
          RankBatch(engine.index(), std::span<const RankModel>(&rank_model, 1),
                    batch, model_of, k, pool.get());
      const double seconds = timer.ElapsedSeconds();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (tsv) {
          for (size_t r = 0; r < results[i].size(); ++r) {
            PrintTsvRow(batch[i], r + 1, results[i][r].first,
                        results[i][r].second);
          }
          continue;
        }
        std::printf("top-%zu '%s' results for node #%u:\n", k,
                    class_name.c_str(), batch[i]);
        for (const auto& [node, pi] : results[i]) {
          std::printf("  #%-6u pi = %.4f%s\n", node, pi,
                      gt->IsPositive(batch[i], node) ? "   [ground truth]"
                                                     : "");
        }
      }
      std::fprintf(info, "batched %zu queries in %.3fs (%.0f queries/s)\n",
                   batch.size(), seconds,
                   static_cast<double>(batch.size()) / seconds);
      return 0;
    }

    auto results = engine.Query(model, query, k);
    if (tsv) {
      for (size_t r = 0; r < results.size(); ++r) {
        PrintTsvRow(query, r + 1, results[r].first, results[r].second);
      }
      return 0;
    }
    std::printf("top-%zu '%s' results for node #%u:\n", k,
                class_name.c_str(), query);
    for (const auto& [node, pi] : results) {
      std::printf("  #%-6u pi = %.4f%s\n", node, pi,
                  gt->IsPositive(query, node) ? "   [ground truth]" : "");
    }
    return 0;
  }
  return Usage();
}
