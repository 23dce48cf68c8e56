// Experiment E16: the cross-transaction join-state cache.  Claim to
// reproduce: steady-state maintenance cost is O(|delta|), not O(|base|).
// Without the cache, every commit re-scans and re-hashes the clean side of
// each delta join — O(|base|) per commit even for a 1-row transaction.
// With it, the hash table built on the first commit is kept alive and
// updated by the normalized deltas, so per-commit latency stays flat as
// the base grows.
//
// The first sweep drives a DifferentialMaintainer directly over *unindexed*
// bases (r ⋈ s on r_a1 = s_a0, transactions touching only r), the regime
// where the planner takes the hash-join path.  The join fan-out is held at
// ~5 matches per delta row across the sweep (domain scales with the base)
// so output size does not grow with |base| and any latency growth is
// attributable to the clean-side rebuild.
//
// The second sweep runs the path the engine runs: views registered through
// a ViewManager, which indexes equi-join attributes at registration.  The
// equi-join r_a1 = s_a0 then probes the index and never consults the
// cache; the non-equi join r_a1 < s_a0 && s_a1 = 7 has no index to probe,
// so without the cache every commit re-scans s for its selective
// clean-side filter.  Domains equal the base size (~1 match per key), and
// the time reported is the view's own maintenance time per commit.
//
// `--json <path>` writes the rows of both sweeps, in that order
// (BENCH_E16.json in EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace mview {
namespace {

// ~5 expected join matches per key at every base size.
int64_t DomainFor(size_t base_rows) {
  return base_rows < 50 ? 10 : static_cast<int64_t>(base_rows / 5);
}

struct Setup {
  Database db;
  WorkloadGenerator gen{42};
  RelationSpec r, s;
  DifferentialMaintainer m;
  CountedRelation view;

  Setup(size_t base_rows, bool cached)
      : r{"r", 2, DomainFor(base_rows), base_rows},
        s{"s", 2, DomainFor(base_rows), base_rows},
        m((gen.Populate(&db, r), gen.Populate(&db, s),
           ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                          "r_a1 = s_a0", {"r_a0", "s_a1"})),
          &db, MakeOptions(cached)) {
    view = m.FullEvaluate();
  }

  static MaintenanceOptions MakeOptions(bool cached) {
    MaintenanceOptions options;
    options.enable_join_cache = cached;
    // The default per-view budget (256 MiB ≈ 600k cached rows) fits every
    // production-shaped view but not this sweep's 1M-row top point, whose
    // two clean-side tables would thrash; the budget exists to be sized.
    options.join_cache_budget_bytes = size_t{2} << 30;
    return options;
  }

  void Commit(size_t delta_rows) {
    Transaction txn;
    gen.AddUpdates(&txn, r, delta_rows, delta_rows);
    TransactionEffect effect = txn.Normalize(db);
    ViewDelta delta = m.ComputeDelta(effect);
    effect.ApplyTo(&db);
    delta.ApplyTo(&view);
  }

  // Average seconds per maintained commit in steady state.  The untimed
  // warmup commits install the cache entries (warm configuration) and
  // absorb the one-time growth costs — the first post-install insert
  // reallocates the entry's row vector and rehashes its index; averaging
  // those into a short timed window would overstate warm latency.
  double TimePerCommit(size_t commits, size_t delta_rows) {
    for (size_t i = 0; i < 5; ++i) Commit(delta_rows);
    Stopwatch timer;
    for (size_t i = 0; i < commits; ++i) Commit(delta_rows);
    return timer.ElapsedSeconds() / static_cast<double>(commits);
  }
};

// One view registered through a ViewManager over r and s with `base_rows`
// rows each; transactions touch only r.
struct EngineSetup {
  Database db;
  WorkloadGenerator gen{42};
  RelationSpec r, s;
  ViewManager vm{&db};

  EngineSetup(size_t base_rows, const char* condition, bool cached)
      : r{"r", 2, static_cast<int64_t>(base_rows), base_rows},
        s{"s", 2, static_cast<int64_t>(base_rows), base_rows} {
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    vm.RegisterView(ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                                   condition, {"r_a0", "s_a1"}),
                    MaintenanceMode::kImmediate, Setup::MakeOptions(cached));
  }

  void Commit(size_t delta_rows) {
    Transaction txn;
    gen.AddUpdates(&txn, r, delta_rows, delta_rows);
    vm.Apply(txn);
  }

  struct Sample {
    double seconds = 0;  // the view's maintenance time per commit
    double lookups = 0;  // join-state cache hits + misses per commit
  };

  // Steady state after the same untimed warmup as `Setup::TimePerCommit`.
  Sample TimePerCommit(size_t commits, size_t delta_rows) {
    for (size_t i = 0; i < 5; ++i) Commit(delta_rows);
    const MaintenanceStats before = vm.Describe("v").stats;
    for (size_t i = 0; i < commits; ++i) Commit(delta_rows);
    const MaintenanceStats after = vm.Describe("v").stats;
    const double n = static_cast<double>(commits);
    return {static_cast<double>(after.maintenance_nanos -
                                before.maintenance_nanos) /
                1e9 / n,
            static_cast<double>(after.cache_hits + after.cache_misses -
                                before.cache_hits - before.cache_misses) /
                n};
  }
};

struct EngineView {
  int id;  // the `engine_view` JSON field
  const char* condition;
};
constexpr EngineView kEngineViews[] = {
    {1, "r_a1 = s_a0"},               // index path
    {2, "r_a1 < s_a0 && s_a1 = 7"},   // cache path
};

void BM_SteadyStateCommit(benchmark::State& state) {
  Setup setup(static_cast<size_t>(state.range(0)), state.range(1) != 0);
  setup.Commit(10);  // warmup
  for (auto _ : state) setup.Commit(10);
}
// Args: (base rows, cache enabled).
BENCHMARK(BM_SteadyStateCommit)
    ->Args({10000, 0})->Args({10000, 1})
    ->Args({100000, 0})->Args({100000, 1})
    ->Iterations(20)->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  using bench::FormatSpeedup;
  const size_t commits = bench::Scaled(40, 2);
  const std::vector<size_t> bases =
      bench::Options().smoke ? std::vector<size_t>{200, 400}
                             : std::vector<size_t>{10'000, 100'000, 1'000'000};
  const std::vector<size_t> deltas = bench::Options().smoke
                                         ? std::vector<size_t>{1, 4}
                                         : std::vector<size_t>{1, 100};
  bench::SummaryTable table(
      "E16: cross-transaction join-state cache — per-commit maintenance "
      "latency, r ⋈ s (unindexed), transactions touch only r",
      {"base rows", "delta rows", "cold (no cache)", "warm (cached)",
       "speedup"});
  bench::JsonRows json;
  for (size_t base : bases) {
    Setup cold(base, /*cached=*/false);
    Setup warm(base, /*cached=*/true);
    for (size_t delta : deltas) {
      const double t_cold = cold.TimePerCommit(commits, delta);
      const double t_warm = warm.TimePerCommit(commits, delta);
      table.AddRow({std::to_string(base), std::to_string(delta),
                    FormatSeconds(t_cold), FormatSeconds(t_warm),
                    FormatSpeedup(t_cold / t_warm)});
      json.Add({{"base_rows", static_cast<double>(base)},
                {"delta_rows", static_cast<double>(delta)},
                {"cold_seconds", t_cold},
                {"warm_seconds", t_warm},
                {"speedup", t_cold / t_warm}});
    }
  }
  table.Print();

  bench::SummaryTable engine_table(
      "E16 (engine path): per-view maintenance time per commit, views "
      "registered through ViewManager, transactions touch only r",
      {"view", "base rows", "delta rows", "cache off", "cache on", "off/on",
       "lookups/commit"});
  for (const EngineView& view : kEngineViews) {
    for (size_t base : bases) {
      // One setup at a time keeps the 1M point's footprint to one pair
      // of bases.
      std::vector<EngineSetup::Sample> off, on;
      {
        EngineSetup setup(base, view.condition, /*cached=*/false);
        for (size_t delta : deltas) {
          off.push_back(setup.TimePerCommit(commits, delta));
        }
      }
      {
        EngineSetup setup(base, view.condition, /*cached=*/true);
        for (size_t delta : deltas) {
          on.push_back(setup.TimePerCommit(commits, delta));
        }
      }
      for (size_t d = 0; d < deltas.size(); ++d) {
        const double ratio = off[d].seconds / on[d].seconds;
        char lookups[32];
        std::snprintf(lookups, sizeof(lookups), "%.1f", on[d].lookups);
        engine_table.AddRow({view.condition, std::to_string(base),
                             std::to_string(deltas[d]),
                             FormatSeconds(off[d].seconds),
                             FormatSeconds(on[d].seconds),
                             FormatSpeedup(ratio), lookups});
        json.Add({{"engine_view", static_cast<double>(view.id)},
                  {"base_rows", static_cast<double>(base)},
                  {"delta_rows", static_cast<double>(deltas[d])},
                  {"cold_seconds", off[d].seconds},
                  {"warm_seconds", on[d].seconds},
                  {"speedup", ratio},
                  {"cache_lookups", on[d].lookups}});
      }
    }
  }
  engine_table.Print();
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
