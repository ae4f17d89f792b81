// The three workloads. Each generates its inputs from the seed, warms up
// untimed, then runs whole rounds of the same operations, each round from
// its own set-up (timed as a setup_s sample), until `seconds` of measured
// time are done, checking the program's outputs against the benchmark's
// own oracle as it goes.
#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;     // scratch space inside the checkout
  std::string server_path;  // the ssjoin_server binary
};

/// Thread counts a workload pins; their total must fit the CPUs.
struct ThreadBudget {
  int client_threads = 1;
  int server_net_threads = 0;  // event-loop workers
  int server_acceptor_threads = 0;
  int pool_threads = 1;        // SimilarityService::num_threads (caller runs
                               // one share, so it adds num_threads - 1)
  int Total() const {
    return client_threads + server_net_threads + server_acceptor_threads +
           (pool_threads - 1);
  }
};

ThreadBudget LookupReadThreads();
ThreadBudget IngestMixedThreads();
ThreadBudget BatchJoinThreads();

RunResult RunLookupRead(const RunConfig& config);
RunResult RunIngestMixed(const RunConfig& config);
RunResult RunBatchJoin(const RunConfig& config);

/// Percent by which the untraced share of a traced run outran its traced
/// share: (untraced ops/s / traced ops/s - 1) * 100.
inline double TraceOverheadPct(double untraced_ops_s, double traced_ops_s) {
  if (traced_ops_s <= 0) return 0;
  return (untraced_ops_s / traced_ops_s - 1.0) * 100.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
