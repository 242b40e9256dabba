#pragma once
// Shared vocabulary of mapa_perfbench: options, the metric report,
// timing and percentile helpers, and the entry points of each workload.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options. The three input seeds default to values derived
/// from --seed; each can be pinned on its own.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  std::uint64_t trace_seed = 0;    // job trace (sizes, arrivals, durations)
  std::uint64_t chaos_seed = 0;    // fault schedule
  std::uint64_t arrival_seed = 0;  // daemon open-loop schedule and mix
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
};

/// Everything one run reports. `violations` lists failed output checks;
/// any entry makes the run incorrect.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  /// Free-form lines printed above the metric tables.
  std::vector<std::string> notes;
  /// Calibration kernel times (ms); see calibrate().
  std::vector<double> kernel_ms;

  void e2e(std::string name, double value, std::string unit,
           std::size_t samples) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t samples) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Times a fixed calibration kernel (a dependent integer chain in
/// registers; none of the program's code) `runs` times into
/// report.kernel_ms. Their median measures the core speed the host gave
/// the run.
void calibrate(Report& report, std::size_t runs = 15);

/// Stable 64-bit mix for deriving sub-seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---- Record checks and modelled quality ---------------------------------

/// Order-sensitive digest of every deterministic field of a fleet result:
/// records (job, server, GPUs, times, scores, retries) and dead letters.
std::uint64_t records_digest(const mapa::cluster::FleetResult& result);

/// The output checks every fleet-backed run applies: each submitted job
/// accounted for exactly once (records and dead letters), no GPU held by
/// two overlapping records of one server, and each record's GPU count
/// equal to its job's. Appends violations to `report`.
void check_fleet_result(const mapa::cluster::FleetResult& result,
                        const std::vector<mapa::workload::Job>& jobs,
                        Report& report, const std::string& label);

/// Modelled allocation quality of a fleet result (deterministic). The
/// gated points avoid statistics that one Pareto straggler sets: the
/// maximum execution time and the makespan throughput swing by a quarter
/// between seeds, so they are printed but not gated.
struct SimQuality {
  double exec_p75_s = 0.0;  // bandwidth-sensitive jobs
  double exec_p95_s = 0.0;  // bandwidth-sensitive jobs
  double exec_max_s = 0.0;  // bandwidth-sensitive jobs
  double wait_p99_s = 0.0;  // start - arrival, all placed jobs
  double jobs_per_hour = 0.0;  // over the makespan
  /// 95% of the placed jobs over the time the 95th-percentile job finished.
  double jobs_per_hour_p95 = 0.0;
  std::size_t sensitive = 0;
  std::size_t placed = 0;
};
SimQuality sim_quality(const mapa::cluster::FleetResult& result);
/// Field-wise median over sessions; sample counts are summed.
SimQuality median_quality(const std::vector<SimQuality>& sessions);
void report_sim_quality(const SimQuality& q, Report& report);

// ---- Per-layer ledger ----------------------------------------------------

/// Self time and counts aggregated from one trace, keyed "category/name"
/// (cache lookups additionally split by their `outcome` arg as
/// "cache/lookup:<outcome>").
struct SpanTotals {
  double self_us = 0.0;
  double total_us = 0.0;
  std::size_t count = 0;
};
struct Ledger {
  std::map<std::string, SpanTotals> spans;
  /// Sum of self time of every span on the dispatcher thread (the thread
  /// that emitted fleet/tick), which telescopes to the time its top-level
  /// spans cover.
  double dispatcher_self_us = 0.0;
  /// fleet/probe_fanout self time on the dispatcher thread only.
  double dispatcher_fanout_self_us = 0.0;
  std::size_t events = 0;

  const SpanTotals& get(const std::string& key) const;
};
Ledger build_ledger(const mapa::obs::TraceSink& sink);
/// Adds `from` into `into` (spans, dispatcher totals, event counts).
void merge_ledger(Ledger& into, const Ledger& from);

/// Appends the [trace] per-layer metrics, normalised per placed job.
void report_trace_layers(const Ledger& ledger, std::size_t placed_jobs,
                         Report& report);

// ---- Layer replay ----------------------------------------------------------

/// Replays a fixed sample of a fleet run's placements against the layers
/// that carry no spans (matcher, cache-free policy, scoring), checking that
/// the cache-free policy reproduces each recorded mapping. Servers named by
/// any fault event are skipped: their busy masks cannot be rebuilt from
/// surviving records alone.
void replay_layers(const std::vector<mapa::cluster::ServerSpec>& specs,
                   const mapa::cluster::FleetResult& result,
                   const std::vector<mapa::cluster::FaultEvent>& faults,
                   std::size_t sample, Report& report);

// ---- Workloads -----------------------------------------------------------

void run_fleet_churn(const Options& options, Report& report);
void run_search16_faults(const Options& options, Report& report);
void run_daemon_open_loop(const Options& options, Report& report);

}  // namespace perfbench
