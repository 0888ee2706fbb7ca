#include "program.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "trace.h"

namespace perfbench {

namespace {

[[noreturn]] void Fail(const std::string& what,
                       const metaprox::util::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace

Program::Program(const ProgramInput& input, const std::string& artifact_dir) {
  using namespace metaprox;  // NOLINT
  std::filesystem::create_directories(artifact_dir);
  const std::string compact = artifact_dir + "/compact";
  const std::string aligned = artifact_dir + "/aligned";
  const Clock::time_point start = Clock::now();

  built_ = std::make_unique<SearchEngine>(*input.graph, input.engine);
  {
    Scope scope("Mine");
    built_->Mine();
  }
  {
    Scope scope("MatchAll");
    built_->MatchAll();
  }
  for (const ModelSpec& spec : input.models) {
    Scope scope("Train");
    models_.push_back(built_->Train(spec.examples, input.train));
    names_.push_back(spec.name);
  }
  {
    Scope scope("SaveOffline");
    ArtifactOptions options;
    options.format = util::ArtifactFormat::kBinary;
    options.layout = BinaryLayout::kCompact;
    auto status = built_->SaveOffline(compact, options);
    if (!status.ok()) Fail("SaveOffline(compact)", status);
    options.layout = BinaryLayout::kAligned;
    status = built_->SaveOffline(aligned, options);
    if (!status.ok()) Fail("SaveOffline(aligned)", status);
  }
  {
    Scope scope("LoadOffline");
    served_ = std::make_unique<SearchEngine>(*input.graph, input.engine);
    ArtifactOptions options;
    options.use_mmap = true;
    options.verify_checksums = true;
    auto status = served_->LoadOffline(aligned, options);
    if (!status.ok()) Fail("LoadOffline", status);
  }
  {
    MaintainerOptions maintainer;
    maintainer.matcher = input.engine.matcher;
    maintainer.embedding_cap = input.engine.embedding_cap;
    {
      Scope maintainer_scope("IndexMaintainer");
      maintainer_ = std::make_unique<IndexMaintainer>(*served_, maintainer);
    }
    {
      Scope registry_scope("IndexRegistry");
      indexes_ =
          std::make_unique<server::IndexRegistry>(maintainer_->snapshot());
    }
    registry_ = std::make_unique<server::ModelRegistry>(
        built_->index().num_metagraphs());
    for (size_t m = 0; m < models_.size(); ++m) {
      Scope load_scope("ModelRegistry.Load");
      auto loaded = registry_->Load(names_[m], models_[m]);
      if (!loaded.ok()) Fail("ModelRegistry::Load", loaded.status());
    }
    server::ServerOptions options;
    options.default_model = names_[0];
    options.admin = true;
    server_ = std::make_unique<server::QueryServer>(
        indexes_.get(), registry_.get(), options, maintainer_.get());
    Scope start_scope("QueryServer.Start");
    auto status = server_->Start();
    if (!status.ok()) Fail("QueryServer::Start", status);
  }
  setup_s_ = Seconds(Clock::now() - start);

  std::error_code ec;
  index_mb_ = static_cast<double>(
                  std::filesystem::file_size(compact + ".index", ec)) /
              (1024.0 * 1024.0);
  if (ec) index_mb_ = 0.0;
}

void Program::Stop() {
  if (server_ != nullptr) {
    Scope scope("QueryServer.Stop");
    server_->Stop();
  }
}

Program::~Program() { Stop(); }

}  // namespace perfbench
