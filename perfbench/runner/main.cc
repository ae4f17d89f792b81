// perfbench_runner — runs one benchmark workload and prints the result
// line. Normally started through perfbench/run.py, which builds it:
//
//   perfbench_runner --workload=lookup_read --seed=1 --seconds=10
//       --trace=0 --work-dir=DIR --server=PATH/ssjoin_server --rev=SHA
//
// stdout: one "# host ..." stamp line, then the JSON result as the last
// line. Diagnostics go to stderr. Exit 0 after a completed run, 2 on bad
// flags, 3 when the workload's thread budget exceeds the CPUs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "util.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"throughput_ops_s", "1/s"},
    {"op_p50_us", "us"},       {"op_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

// What each layer metric should move is mapped in perfbench/README.md.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"net.overhead_p50_us", "us"},
    {"net.bytes_per_request", "bytes"},
    {"protocol.parse_p50_us", "us"},
    {"protocol.execute_p50_us", "us"},
    {"protocol.execute_p99_us", "us"},
    {"text.tokenize_p50_us", "us"},
    {"text.corpus_build_s", "s"},
    {"text.dict_growth_tokens", "count"},
    {"data.prepare_s", "s"},
    {"serve.build_s", "s"},
    {"serve.query_p50_us", "us"},
    {"serve.query_p99_us", "us"},
    {"serve.chain_segments", "count"},
    {"serve.candidates_per_query", "count"},
    {"serve.results_per_candidate", "ratio"},
    {"core.heap_pops_per_query", "count"},
    {"core.gallop_probes_per_query", "count"},
    {"core.bitmap_prune_ratio", "ratio"},
    {"core.join_algorithm_s", "s"},
    {"core.candidates_verified", "count"},
    {"core.verify_yield", "ratio"},
    {"core.heap_pops", "count"},
    {"core.gallop_probes", "count"},
    {"index.postings_peak", "count"},
    {"serve.insert_p50_us", "us"},
    {"serve.insert_p99_us", "us"},
    {"serve.delete_p50_us", "us"},
    {"serve.compactions", "count"},
    {"serve.compacting_op_p50_us", "us"},
    {"serve.segments_merged", "count"},
    {"serve.reopen_s", "s"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"storage.wal_bytes_per_write", "bytes"},
    {"storage.segment_files", "count"},
    {"storage.data_dir_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

bool Flag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string rev = "unknown";
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &value)) {
      config.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &value)) {
      config.trace = value == "1";
    } else if (Flag(argv[i], "--work-dir", &value)) {
      config.work_dir = value;
    } else if (Flag(argv[i], "--server", &value)) {
      config.server_path = value;
    } else if (Flag(argv[i], "--rev", &value)) {
      rev = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  // Every run prints the host stamp first.
  int cpus = AvailableCpus();
  std::string stamp = "# host nproc=" + std::to_string(cpus) + " cpu=\"" +
                      CpuModel() + "\" compiler=\"" PERFBENCH_COMPILER
                      "\" build_type=" PERFBENCH_BUILD_TYPE " rev=" + rev;
  ThreadBudget budget;
  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "lookup_read") {
    budget = LookupReadThreads();
    run = RunLookupRead;
  } else if (config.workload == "ingest_mixed") {
    budget = IngestMixedThreads();
    run = RunIngestMixed;
  } else if (config.workload == "batch_join") {
    budget = BatchJoinThreads();
    run = RunBatchJoin;
  } else {
    std::fprintf(stderr,
                 "unknown --workload=%s (lookup_read | ingest_mixed | "
                 "batch_join)\n",
                 config.workload.c_str());
    return 2;
  }
  if (config.seconds <= 0 || config.work_dir.empty()) {
    std::fprintf(stderr, "need --seconds > 0 and --work-dir\n");
    return 2;
  }
  std::printf("%s workload=%s threads=%d (client %d, server net %d + "
              "acceptor %d, pool %d)\n",
              stamp.c_str(), config.workload.c_str(), budget.Total(),
              budget.client_threads, budget.server_net_threads,
              budget.server_acceptor_threads, budget.pool_threads);
  std::fflush(stdout);
  if (budget.Total() > cpus) {
    std::fprintf(stderr,
                 "refusing to start: %s pins %d threads but only %d CPUs "
                 "are available\n",
                 config.workload.c_str(), budget.Total(), cpus);
    return 3;
  }

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  RunResult result = run(config);

  const auto& wanted = config.trace ? kPerLayer : kEndToEnd;
  // Exactly the metrics the mode reports, in order; a per-layer metric
  // the workload does not exercise reads 0.
  Metrics out;
  for (const auto& [name, unit] : wanted) {
    const Metric* measured = result.metrics.Find(name);
    out.Set(name, measured != nullptr ? measured->value : 0.0, unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              out.ToJson().c_str());
  return 0;
}
