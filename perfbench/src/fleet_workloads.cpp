// The two batch-fleet workloads, driven through the public tick API of
// cluster::FleetSimulator: start(), submit() every job, step() to idle,
// finish().
//
//   fleet_churn      1000 DGX-1V servers from one shared archetype,
//                    preserve + least-loaded over 32 shards, 25k Poisson
//                    jobs of 1-8 GPUs. Servers keep revisiting the same
//                    busy states, so the reuse layers (probe memo, shared
//                    match cache) answer almost every probe: the read side
//                    of reuse, and the fan-out cost.
//   search16_faults  64 servers, 1:1:1:1 torus2d_16 / cubemesh_16 /
//                    dgx1_v100 / summit_node, preserve + best-score over 4
//                    shards, 25 jobs of 1-4 GPUs per server plus a seeded
//                    fault schedule. Sixteen-GPU PCIe-fallback servers
//                    have match lists in the tens of thousands, so misses
//                    enumerate for real, and faults fork private
//                    topologies that invalidate the shared cache: the
//                    write side of reuse, where fan-out gains.
//
// A session is set-up (inputs and fleet construction, timed as set-up)
// then one full run of a trace (timed). A run simulates several traces,
// each drawn from the run's seeds, and reports per-job figures as the
// median over them and step-time percentiles over all of them pooled; see
// Plan for how many, and fold_fastest for repeated runs of one trace.
// With tracing, each trace runs untraced and then traced, so the overhead
// compares like with like and the records can be checked equal.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "cluster/chaos.hpp"
#include "graph/topology.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

namespace cl = mapa::cluster;
namespace wl = mapa::workload;

/// Wall time of one session on a 4-core x86 box with neighbours, used only
/// to size a run.
constexpr double kChurnSessionS = 6.5;
constexpr double kSearch16SessionS = 0.45;
constexpr std::size_t kProbeThreads = 2;
/// Host speed is sampled between sessions, at most this often.
constexpr double kCalibrateEveryS = 2.0;
constexpr std::size_t kKernelRunsPerSample = 5;
/// Replay sample size: large enough for stable per-call means, small
/// enough to cost about a second on the 16-GPU servers.
constexpr std::size_t kReplaySample = 400;

struct FleetInputs {
  std::vector<cl::ServerSpec> specs;
  std::vector<wl::Job> jobs;
  std::vector<cl::FaultEvent> faults;
  cl::ClusterConfig config;
};

FleetInputs churn_inputs(const Options& o) {
  FleetInputs in;
  in.jobs = wl::generate_fleet_trace(
      wl::fleet_scale_trace_config(1000, 25, o.trace_seed));
  cl::FleetArchetype arch;
  arch.name = "dgx1v";
  arch.topology = mapa::graph::TopologyHandle(mapa::graph::dgx1_v100());
  arch.policy = "preserve";
  in.specs = cl::archetype_fleet_specs(1000, {arch});
  in.config.selection = "least-loaded";
  in.config.shards = 32;
  in.config.threads = kProbeThreads;
  in.config.seed = o.trace_seed;
  return in;
}

FleetInputs search16_inputs(const Options& o) {
  constexpr std::size_t kServers = 64;
  FleetInputs in;
  wl::FleetTraceConfig trace =
      wl::fleet_scale_trace_config(kServers, 25, o.trace_seed);
  // The paper's section 4 range is 1-5 GPUs, but a 5-GPU chain has 262k
  // placements on a free 16-GPU PCIe-fallback server, and a handful of such
  // lists sets a trace's whole cost: per-trace cost then varies by 40%
  // (standard deviation over mean) and no run can average it. Up to 4 GPUs
  // the lists still reach tens of thousands and the spread halves.
  trace.min_gpus = 1;
  trace.max_gpus = 4;
  in.jobs = wl::generate_fleet_trace(trace);
  std::vector<cl::FleetArchetype> archetypes;
  for (auto make : {&mapa::graph::torus2d_16, &mapa::graph::cubemesh_16,
                    &mapa::graph::dgx1_v100, &mapa::graph::summit_node}) {
    cl::FleetArchetype arch;
    arch.topology = mapa::graph::TopologyHandle(
        make(mapa::graph::Connectivity::kPcieFallback));
    arch.policy = "preserve";
    archetypes.push_back(std::move(arch));
  }
  in.specs = cl::archetype_fleet_specs(kServers, archetypes);
  wl::ChaosTraceConfig chaos =
      wl::chaos_trace_config(kServers, 20'000.0, o.chaos_seed);
  chaos.horizon_s = 40'000.0;
  in.faults = cl::generate_fault_schedule(chaos, in.specs);
  in.config.selection = "best-score";
  in.config.shards = 4;
  in.config.threads = kProbeThreads;
  in.config.seed = o.trace_seed;
  in.config.events = in.faults;
  // Kills are part of the workload, dead letters are not: a retry budget
  // well above the kills any job meets keeps every job placed.
  in.config.max_retries = 16;
  return in;
}

struct Session {
  cl::FleetResult result;
  double setup_s = 0.0;
  double host_s = 0.0;    // inside submit(), every step() and finish()
  double submit_s = 0.0;  // all submit() calls
  double finish_s = 0.0;  // the finish() call
  std::vector<double> step_us;            // every step() call
  std::vector<std::uint32_t> step_placed;  // placements each step committed
  std::uint64_t ticks = 0;
  std::shared_ptr<mapa::obs::Observer> observer;
  std::vector<cl::ServerSpec> specs;  // kept for the replay
  std::vector<wl::Job> jobs;
  std::vector<cl::FaultEvent> faults;
};

void total_host_time(Session& s) {
  s.host_s = s.submit_s + s.finish_s;
  for (const double us : s.step_us) s.host_s += us * 1e-6;
}

Session run_once(const std::function<FleetInputs(const Options&)>& make,
                 const Options& o, bool traced) {
  Session s;
  const auto t_setup = Clock::now();
  FleetInputs in = make(o);
  if (traced) {
    mapa::obs::ObsConfig obs;
    obs.tracing = true;
    // A fleet_churn session emits about half a million events; the cap
    // must never drop any or the ledger under-counts.
    obs.trace_max_events = std::size_t{1} << 24;
    in.config.observer = std::make_shared<mapa::obs::Observer>(obs);
  }
  s.observer = in.config.observer;
  s.specs = in.specs;
  s.jobs = in.jobs;
  s.faults = in.faults;
  cl::FleetSimulator fleet(std::move(in.specs), in.config);
  cl::FleetSimulator::StepOptions step_options;
  step_options.expected_jobs = s.jobs.size();
  fleet.start(step_options);
  const auto t0 = Clock::now();
  s.setup_s = seconds_between(t_setup, t0);

  for (const wl::Job& job : s.jobs) fleet.submit(job);
  const auto t1 = Clock::now();
  s.submit_s = seconds_between(t0, t1);
  for (;;) {
    const std::size_t before = fleet.partial_result().records.size();
    const auto a = Clock::now();
    const bool more = fleet.step();
    const auto b = Clock::now();
    s.step_us.push_back(us_between(a, b));
    s.step_placed.push_back(static_cast<std::uint32_t>(
        fleet.partial_result().records.size() - before));
    if (!more) break;
  }
  s.ticks = fleet.ticks();
  const auto t2 = Clock::now();
  s.result = fleet.finish();
  const auto t3 = Clock::now();
  s.finish_s = seconds_between(t2, t3);
  total_host_time(s);
  return s;
}

/// Folds repetitions of one session (same inputs, so the same step
/// sequence) into the first: each step keeps its fastest time, as do
/// submit and finish. Interference from a shared host only ever adds
/// time, so the per-step minimum strips bursts that hit one repetition.
/// Repetitions that took different steps or produced different records
/// break determinism and are reported.
Session fold_fastest(std::vector<Session> reps, Report& report,
                     const std::string& label) {
  Session s = std::move(reps.front());
  const std::uint64_t digest = records_digest(s.result);
  for (std::size_t r = 1; r < reps.size(); ++r) {
    const Session& other = reps[r];
    report.check(records_digest(other.result) == digest &&
                     other.step_placed == s.step_placed,
                 label + ": repetition " + std::to_string(r) +
                     " differs from the first");
    if (other.step_us.size() != s.step_us.size()) continue;
    for (std::size_t i = 0; i < s.step_us.size(); ++i) {
      s.step_us[i] = std::min(s.step_us[i], other.step_us[i]);
    }
    s.submit_s = std::min(s.submit_s, other.submit_s);
    s.finish_s = std::min(s.finish_s, other.finish_s);
  }
  total_host_time(s);
  return s;
}

/// How a workload spends its time: `reps` runs of each trace (folded
/// with fold_fastest), as many traces as --seconds affords at
/// `session_s` per run. Fixed by --seconds, never by how fast sessions
/// actually ran, so two builds compared on one seed see the same inputs.
struct Plan {
  std::function<FleetInputs(const Options&)> make;
  double session_s = 1.0;
  std::size_t reps = 1;

  std::size_t traces(const Options& o) const {
    const double n =
        std::floor(o.seconds / (session_s * static_cast<double>(reps)));
    return static_cast<std::size_t>(std::clamp(n, 1.0, 128.0));
  }
};

/// Per-session sub-seeds: session k of a run replays trace and fault
/// schedule k drawn from the run's seeds.
Options session_options(const Options& o, std::size_t k) {
  Options sub = o;
  sub.trace_seed = mix_seed(o.trace_seed, k);
  sub.chaos_seed = mix_seed(o.chaos_seed, k);
  return sub;
}

double host_us_per_job(const Session& s) {
  return s.host_s * 1e6 /
         static_cast<double>(std::max<std::size_t>(s.result.records.size(), 1));
}

void account(const Session& s, Report& report, const std::string& label) {
  check_fleet_result(s.result, s.jobs, report, label);
  report.attempted += s.jobs.size();
  report.failed += s.jobs.size() - s.result.records.size();
}

/// One session's end-to-end figures. A run reports the median over its
/// sessions of the per-job figures, so one session slowed by a burst on a
/// shared host does not set the run's value, and percentiles over the
/// pooled step times of all sessions: a step-time tail differs by a fifth
/// from one trace to the next, and pooling averages it over the traces.
struct SessionSummary {
  double host_us_per_job = 0.0;
  double rate = 0.0;
  std::vector<double> decision_us;  // steps that committed a placement
  std::vector<double> alloc_us;     // per placement: its step's time
  SimQuality quality;
};

SessionSummary summarize(const Session& s) {
  SessionSummary m;
  for (std::size_t i = 0; i < s.step_us.size(); ++i) {
    if (s.step_placed[i] == 0) continue;
    m.decision_us.push_back(s.step_us[i]);
    m.alloc_us.insert(m.alloc_us.end(), s.step_placed[i], s.step_us[i]);
  }
  m.host_us_per_job = host_us_per_job(s);
  m.rate = static_cast<double>(s.result.records.size()) / s.host_s;
  m.quality = sim_quality(s.result);
  return m;
}

void report_end_to_end(const std::vector<SessionSummary>& sessions,
                       double setup_s, std::size_t setups, Report& report) {
  std::vector<double> host_us;
  std::vector<double> rates;
  std::vector<double> decisions;
  std::vector<double> allocs;
  std::vector<SimQuality> quality;
  for (const SessionSummary& m : sessions) {
    host_us.push_back(m.host_us_per_job);
    rates.push_back(m.rate);
    decisions.insert(decisions.end(), m.decision_us.begin(),
                     m.decision_us.end());
    allocs.insert(allocs.end(), m.alloc_us.begin(), m.alloc_us.end());
    quality.push_back(m.quality);
  }
  const std::size_t n = sessions.size();
  report.e2e("setup_s", setup_s, "s", setups);
  report.e2e("host_us_per_job", median(host_us), "us", n);
  report.e2e("decision_p50_us", percentile(decisions, 0.50), "us",
             decisions.size());
  report.e2e("decision_p99_us", percentile(decisions, 0.99), "us",
             decisions.size());
  report.e2e("alloc_p50_us", percentile(allocs, 0.50), "us", allocs.size());
  report.e2e("alloc_p99_us", percentile(allocs, 0.99), "us", allocs.size());
  report.e2e("max_rate_rps", median(rates), "1/s", n);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  report_sim_quality(median_quality(quality), report);
}

/// Counters and [out] timings summed over the untraced sessions of a
/// traced run, and spans over its traced sessions.
struct LayerTotals {
  std::size_t sessions = 0;
  std::size_t placed = 0;
  std::size_t jobs = 0;
  double submit_s = 0.0;
  double finish_s = 0.0;
  double untraced_host_s = 0.0;
  double traced_host_s = 0.0;
  double traced_step_us = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t probes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t deltas = 0;
  std::uint64_t forks = 0;
  std::uint64_t kills = 0;
  std::uint64_t rematches = 0;
  std::uint64_t dropped = 0;
  Ledger ledger;

  void add_untraced(const Session& s) {
    ++sessions;
    placed += s.result.records.size();
    jobs += s.jobs.size();
    submit_s += s.submit_s;
    finish_s += s.finish_s;
    untraced_host_s += s.host_s;
    ticks += s.ticks;
    for (const cl::ServerResult& sr : s.result.servers) {
      probes += sr.probes;
      memo_hits += sr.probe_memo_hits;
      hits += sr.match_cache_hits;
      misses += sr.match_cache_misses;
      deltas += sr.match_cache_delta_hits;
    }
    forks += s.result.resilience.topology_forks;
    kills += s.result.resilience.jobs_killed;
    rematches += s.result.resilience.jobs_rematched;
  }

  /// `step_us` is the step() wall time of the run whose spans `s` holds.
  void add_traced(const Session& s, double step_us) {
    traced_host_s += s.host_s;
    traced_step_us += step_us;
    const mapa::obs::TraceSink& sink = *s.observer->trace();
    dropped += sink.dropped();
    merge_ledger(ledger, build_ledger(sink));
  }

  void report_to(Report& report) const {
    const double n = static_cast<double>(std::max<std::size_t>(sessions, 1));
    const double per_job =
        1.0 / static_cast<double>(std::max<std::size_t>(placed, 1));
    const auto ratio = [](std::uint64_t part, std::uint64_t base) {
      return base == 0 ? 0.0
                       : static_cast<double>(part) / static_cast<double>(base);
    };
    report.layer("cluster.submit_us_per_job",
                 submit_s * 1e6 /
                     static_cast<double>(std::max<std::size_t>(jobs, 1)),
                 "us/job", jobs);
    report.layer("cluster.finish_ms", finish_s * 1e3 / n, "ms", sessions);
    report.layer("cluster.ticks", static_cast<double>(ticks) / n, "count",
                 sessions);
    report.layer("cluster.probes_per_job",
                 static_cast<double>(probes) * per_job, "probes/job", probes);
    report.layer("cluster.memo_hit_ratio",
                 ratio(memo_hits, probes + memo_hits), "ratio",
                 probes + memo_hits);
    report.layer("cluster.forks", static_cast<double>(forks) / n, "count",
                 sessions);
    report.layer("cluster.kills", static_cast<double>(kills) / n, "count",
                 sessions);
    report.layer("cluster.rematches", static_cast<double>(rematches) / n,
                 "count", sessions);
    const std::uint64_t lookups = hits + misses + deltas;
    report.layer("cache.lookups", static_cast<double>(lookups) / n, "count",
                 sessions);
    report.layer("cache.hit_ratio", ratio(hits, lookups), "ratio", lookups);
    report.layer("cache.delta_ratio", ratio(deltas, lookups), "ratio",
                 lookups);
    report.layer("cache.miss_ratio", ratio(misses, lookups), "ratio", lookups);
    report_trace_layers(ledger, placed, report);
    report.layer("obs.trace_overhead_pct",
                 (traced_host_s / untraced_host_s - 1.0) * 100.0, "%",
                 2 * sessions);
    report.layer("obs.trace_events", static_cast<double>(ledger.events) / n,
                 "count", sessions);
    report.layer("obs.trace_dropped", static_cast<double>(dropped), "count",
                 sessions);
    report.layer("obs.dispatcher_span_coverage",
                 traced_step_us > 0.0
                     ? ledger.dispatcher_self_us / traced_step_us
                     : 0.0,
                 "ratio", sessions);
    report.check(dropped == 0, "trace dropped events");
  }
};

void run_fleet_workload(const Plan& plan, const Options& o, Report& report) {
  const std::size_t traces = plan.traces(o);
  if (!o.trace) {
    std::vector<SessionSummary> sessions;
    std::vector<double> setups;
    auto calibrated = Clock::now();
    for (std::size_t k = 0; k < traces; ++k) {
      const std::string label = "session " + std::to_string(k);
      std::vector<Session> reps;
      for (std::size_t r = 0; r < plan.reps; ++r) {
        // Host speed is sampled through the run, not only around it.
        if (seconds_between(calibrated, Clock::now()) > kCalibrateEveryS) {
          calibrate(report, kKernelRunsPerSample);
          calibrated = Clock::now();
        }
        reps.push_back(run_once(plan.make, session_options(o, k), false));
        account(reps.back(), report, label);
        setups.push_back(reps.back().setup_s);
      }
      sessions.push_back(
          summarize(fold_fastest(std::move(reps), report, label)));
    }
    report_end_to_end(sessions, median(setups), setups.size(), report);
    return;
  }

  // Traced run: each trace untraced, then traced, alternating up to twice
  // each and folded like the untraced run. The halves must agree record
  // for record; the untraced half supplies counters and timings, the
  // first traced run the spans.
  LayerTotals totals;
  const std::size_t reps = std::min<std::size_t>(plan.reps, 2);
  for (std::size_t k = 0; k < std::max<std::size_t>(1, traces / 2); ++k) {
    const Options sub = session_options(o, k);
    const std::string label = "session " + std::to_string(k);
    std::vector<Session> plains;
    std::vector<Session> traceds;
    for (std::size_t r = 0; r < reps; ++r) {
      plains.push_back(run_once(plan.make, sub, false));
      traceds.push_back(run_once(plan.make, sub, true));
      account(plains.back(), report, label);
      account(traceds.back(), report, label + " (traced)");
    }
    double spanned_step_us = 0.0;
    for (const double us : traceds.front().step_us) spanned_step_us += us;
    const Session plain = fold_fastest(std::move(plains), report, label);
    const Session traced =
        fold_fastest(std::move(traceds), report, label + " (traced)");
    report.check(records_digest(plain.result) == records_digest(traced.result),
                 label + ": traced and untraced records differ");
    const SimQuality a = sim_quality(plain.result);
    const SimQuality b = sim_quality(traced.result);
    report.check(a.exec_p75_s == b.exec_p75_s && a.exec_p95_s == b.exec_p95_s &&
                     a.exec_max_s == b.exec_max_s &&
                     a.wait_p99_s == b.wait_p99_s &&
                     a.jobs_per_hour == b.jobs_per_hour &&
                     a.jobs_per_hour_p95 == b.jobs_per_hour_p95,
                 label + ": traced and untraced modelled quality differ");
    totals.add_untraced(plain);
    totals.add_traced(traced, spanned_step_us);
    if (k == 0) {
      replay_layers(plain.specs, plain.result, plain.faults, kReplaySample,
                    report);
    }
  }
  totals.report_to(report);
}

}  // namespace

void run_fleet_churn(const Options& options, Report& report) {
  // Two runs of each trace strip most host stalls from the step times;
  // several traces, because the tail of step times (decision_p99_us)
  // varies by about a fifth from one trace to the next.
  run_fleet_workload({churn_inputs, kChurnSessionS, 2}, options, report);
}

void run_search16_faults(const Options& options, Report& report) {
  // One run per trace: cost varies by a quarter between traces with
  // identical probe and lookup counts (it follows match-list lengths), so
  // more traces buy more steadiness than repetitions do.
  run_fleet_workload({search16_inputs, kSearch16SessionS, 1}, options,
                     report);
}

}  // namespace perfbench
