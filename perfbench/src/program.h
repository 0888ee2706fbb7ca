// One complete set-up of the program under test, driven only through its
// stable public surfaces: the SearchEngine offline API, SaveOffline /
// LoadOffline, IndexMaintainer, both registries and QueryServer.
#ifndef PERFBENCH_PROGRAM_H_
#define PERFBENCH_PROGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"

namespace perfbench {

struct ModelSpec {
  std::string name;
  std::vector<metaprox::Example> examples;
};

/// What a set-up consumes: the graph plus the generated training data.
struct ProgramInput {
  const metaprox::Graph* graph = nullptr;
  metaprox::EngineOptions engine;
  metaprox::TrainOptions train;
  std::vector<ModelSpec> models;  // models[0] is the server default
};

class Program {
 public:
  /// Runs the whole set-up: mine, match, finalize, train, save, load
  /// (mmap, checksums verified), attach an IndexMaintainer, fill the
  /// registries and start the server (admin verbs on, every other server
  /// option at its default). Artifacts go under `artifact_dir`.
  Program(const ProgramInput& input, const std::string& artifact_dir);
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// The offline build: the oracle every response is checked against.
  const metaprox::SearchEngine& built() const { return *built_; }
  const std::vector<std::string>& model_names() const { return names_; }
  const std::vector<metaprox::MgpModel>& models() const { return models_; }
  uint16_t port() const { return server_->port(); }
  metaprox::server::ServerStats stats() const { return server_->stats(); }
  /// Wall time of the whole set-up (each step is also a span).
  double setup_s() const { return setup_s_; }
  double index_mb() const { return index_mb_; }

  void Stop();

 private:
  double setup_s_ = 0.0;
  double index_mb_ = 0.0;
  std::vector<std::string> names_;
  std::vector<metaprox::MgpModel> models_;
  std::unique_ptr<metaprox::SearchEngine> built_;
  std::unique_ptr<metaprox::SearchEngine> served_;
  std::unique_ptr<metaprox::IndexMaintainer> maintainer_;
  std::unique_ptr<metaprox::server::IndexRegistry> indexes_;
  std::unique_ptr<metaprox::server::ModelRegistry> registry_;
  std::unique_ptr<metaprox::server::QueryServer> server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAM_H_
