// Experiment E21: hash-partitioned views — intra-view parallel maintenance.
//
// An E16-style 1M-row workload (r ⋈ s on
// r_a1 = s_a0, ~1 match per key) driven through the ViewManager commit
// pipeline.  The view's maintenance round is split into P hash partitions
// (the planner picks the keyed layout here: the join equality
// co-partitions both bases), and the pipeline fans the per-partition jobs
// over the worker pool.  Measured: warm per-commit maintenance time for
// P=1 serial, P=4 serial (slicing overhead), and P=4 on 4 workers.
//
// Note: parallel speedup requires actual cores.  On a single-core host
// every configuration collapses to the serial cost plus coordination
// overhead; the JSON records `cores` so readers can interpret the rows
// (EXPERIMENTS.md E21 discusses this).
//
// `--json <path>` writes the summary rows (BENCH_E21.json).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ivm/view_manager.h"
#include "workload/generator.h"

namespace mview {
namespace {

size_t BaseRows() { return bench::Scaled(500'000, 2'000); }  // per relation
size_t Commits() { return bench::Scaled(32, 4); }
constexpr size_t kUpdatesPerRelation = 8;  // half inserts, half deletes

struct JoinSetup {
  Database db;
  WorkloadGenerator gen{2026};
  RelationSpec r, s;
  ViewManager vm;

  JoinSetup(uint32_t partitions, size_t workers, size_t base_rows)
      : r{"r", 2, static_cast<int64_t>(base_rows), base_rows},
        s{"s", 2, static_cast<int64_t>(base_rows), base_rows},
        vm(&db, workers) {
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    MaintenanceOptions options;
    options.partition_count = partitions;
    // The sweep's clean sides exceed the default per-view budget; size it
    // like E16 so cache behaviour does not confound the partition split.
    options.join_cache_budget_bytes = size_t{2} << 30;
    vm.RegisterView(ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                                   "r_a1 = s_a0", {"r_a0", "s_a1"}),
                    MaintenanceMode::kImmediate, options);
  }

  void RunCommits(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Transaction txn;
      gen.AddUpdates(&txn, r, kUpdatesPerRelation / 2, kUpdatesPerRelation / 2);
      gen.AddUpdates(&txn, s, kUpdatesPerRelation / 2, kUpdatesPerRelation / 2);
      vm.Apply(txn);
    }
  }
};

void BM_PartitionedCommit(benchmark::State& state) {
  const auto partitions = static_cast<uint32_t>(state.range(0));
  const auto workers = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    JoinSetup setup(partitions, workers, bench::Scaled(20'000, 1'000));
    setup.RunCommits(2);  // warm the join-cache shards
    state.ResumeTiming();
    setup.RunCommits(Commits());
  }
}
// {partitions, pool workers}; 0 workers = serial pipeline.
BENCHMARK(BM_PartitionedCommit)
    ->Args({1, 0})->Args({4, 0})->Args({4, 4})
    ->Iterations(2)->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  using bench::FormatSpeedup;
  const double cores = static_cast<double>(std::thread::hardware_concurrency());
  std::printf("\nhardware_concurrency: %.0f\n", cores);
  bench::JsonRows json;

  bench::SummaryTable maintenance(
      "E21a: partitioned maintenance — " + std::to_string(Commits()) +
          " warm commits, r ⋈ s with " + std::to_string(BaseRows()) +
          " rows per side (" + std::to_string(2 * kUpdatesPerRelation) +
          " updates per commit)",
      {"config", "per commit", "speedup vs P=1"});
  struct Config {
    const char* label;
    uint32_t partitions;
    size_t workers;
  };
  const std::vector<Config> configs = {
      {"P=1 serial", 1, 0},
      {"P=4 serial", 4, 0},
      {"P=4, 4 workers", 4, 4},
  };
  double baseline = 0;
  for (const Config& config : configs) {
    JoinSetup setup(config.partitions, config.workers, BaseRows());
    setup.RunCommits(4);  // warm the shards before measuring
    const double per_commit =
        bench::TimeIt([&setup] { setup.RunCommits(Commits()); }) /
        static_cast<double>(Commits());
    if (baseline == 0) baseline = per_commit;
    maintenance.AddRow({config.label, FormatSeconds(per_commit),
                        FormatSpeedup(baseline / per_commit)});
    json.Add({{"partitions", static_cast<double>(config.partitions)},
              {"workers", static_cast<double>(config.workers)},
              {"commit_ms", per_commit * 1e3},
              {"speedup_vs_p1", baseline / per_commit},
              {"cores", cores}});
  }
  maintenance.Print();

  if (!json.WriteIfRequested()) std::exit(1);
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
