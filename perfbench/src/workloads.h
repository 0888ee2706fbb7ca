// The benchmark's three workloads: the inputs each one generates from its
// seed, the measured pass that drives a running server with them, and the
// check of every response against the offline oracle.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/arrival.h"
#include "datagen/dataset.h"
#include "loadgen.h"
#include "program.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kServeSparse, kServeBatch, kRefreshUnderLoad };

/// One open-loop step of serve-sparse: a Poisson stream at `rate`.
struct LadderStep {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<double> due;      // arrival offsets within the step
  std::vector<uint32_t> nodes;  // index into Plan::pool per arrival
};

/// Everything a workload feeds the program, generated from the seed
/// before the program starts. Not movable: input.graph points into it.
struct Plan {
  Workload workload = Workload::kServeSparse;
  std::string name;
  uint64_t seed = 0;
  double seconds = 0.0;
  /// p99 limit (ms) behind goodput_qps.
  double limit_ms = 0.0;

  metaprox::datagen::Dataset dataset;          // serve-sparse, serve-batch
  metaprox::datagen::ArrivalTimeline timeline;  // refresh-under-load
  ProgramInput input;
  /// Query nodes: the anchor (user) nodes of the served graph.
  std::vector<metaprox::NodeId> pool;

  // serve-sparse
  std::vector<LadderStep> ladder;
  // serve-batch: the request stream is drawn on the fly from these.
  std::vector<size_t> hot_order;  // pool index of Zipf rank r
  double zipf_exponent = 1.0;
  size_t pipeline_depth = 64;
  double hangup_every_s = 0.0;
  // refresh-under-load
  std::vector<double> query_due;
  std::vector<double> query_pick;  // uniform draw per arrival
  std::vector<std::vector<metaprox::NodeId>> slice_users;
  std::vector<double> slice_due;
};

std::unique_ptr<Plan> MakePlan(Workload workload, uint64_t seed,
                               double seconds, bool tiny);
bool ParseWorkload(const std::string& name, Workload* out);

/// Prints the load generators' schedule for the plan's seed, one event a
/// line (what the determinism test compares).
void PrintSchedule(const Plan& plan);

/// The serve-batch request stream: the i-th request's model, node and k.
struct BatchRequest {
  uint32_t model = 0;
  metaprox::NodeId node = 0;
  uint32_t k = 0;
};
class BatchStream {
 public:
  explicit BatchStream(const Plan& plan);
  BatchRequest Next();

 private:
  const Plan& plan_;
  uint64_t index_ = 0;
  SeededRng rng_;
  ZipfSampler zipf_;
};

struct Request {
  enum State : uint8_t { kPending, kAnswered, kRefused, kAbandoned };
  metaprox::NodeId node = 0;
  uint32_t model = 0;
  uint32_t k = 0;
  uint32_t gen_lo = 1;  // generations that may have ranked it
  uint32_t gen_hi = 1;
  int32_t line = -1;  // interned response line
  State state = kPending;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
};

struct StepOutcome {
  double rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double good_qps = 0.0;  // responses within the limit, per second
  size_t samples = 0;
  bool met = false;
};

struct PassResult {
  std::vector<Request> requests;
  std::vector<std::string> lines;  // interned response lines
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<double> lag_ms;      // generator lateness per request
  std::vector<double> refresh_ms;  // REFRESH sent -> OK
  std::vector<StepOutcome> steps;
  double throughput_qps = 0.0;
  double goodput_qps = 0.0;
  uint64_t admin_failed = 0;
  uint64_t admin_attempted = 0;
  metaprox::server::ServerStats stats;  // this pass's delta
  std::string error;
};

/// REFRESHes with nothing appended that the serve workloads time on each
/// set-up: spread over the run, they sample more than one stretch of the
/// machine's drifting speed.
inline constexpr size_t kEmptyRefreshes = 4;

/// Drives the running program with the plan for plan.seconds; on the
/// serve workloads it then times kEmptyRefreshes REFRESH round trips.
PassResult RunPass(const Plan& plan, Program& program);

/// Times kEmptyRefreshes REFRESH round trips into result->refresh_ms.
void TimeEmptyRefreshes(Program& program, PassResult* result);

struct Verification {
  uint64_t attempted = 0;
  uint64_t verified = 0;
  uint64_t refused = 0;
  uint64_t mismatched = 0;
  uint64_t unanswered = 0;
  uint64_t abandoned = 0;
  uint64_t failed() const { return refused + mismatched + unanswered; }
};

/// The workload's refresh sequence replayed on an IndexMaintainer of the
/// offline build: generations[g - 1] is generation g.
struct MaintainerReplay {
  std::vector<std::shared_ptr<const metaprox::IndexSnapshot>> generations;
  std::vector<metaprox::RefreshStats> refreshes;
};
MaintainerReplay ReplayMaintainer(const Plan& plan, const Program& program);

/// Checks every answered request bit for bit against Query() on a
/// generation that was published during its flight (serve workloads:
/// the offline build itself). `corrupt_reference` perturbs one reference
/// score, for the verifier's self-test.
Verification Verify(const Plan& plan, const Program& program,
                    const PassResult& pass, const MaintainerReplay* lineage,
                    bool corrupt_reference);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
