// mapa_perfbench — the repository's benchmark program.
//
//   mapa_perfbench --workload <fleet_churn|search16_faults|daemon_open_loop>
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-seed N] [--chaos-seed N] [--arrival-seed N]
//
// Runs one workload for about --seconds, checks its outputs, and prints
// a table of metrics (name, value, unit, samples) followed, as the last
// line, by one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ledger. Every run reports every metric of its kind; a per-layer metric
// whose layer is not on a workload's path reads 0 with 0 samples. Exit
// status is 0 when every output check passed, 1 when one failed or the
// run threw, 2 on bad arguments.
//
// --seed derives the job-trace, fault-schedule and arrival-schedule seeds;
// each can be pinned on its own. The program under test receives only
// the generated inputs.
//
// Host-speed calibration. On a shared host the core speed a run gets
// drifts by 15% and more between minutes (clock and share of the core
// change with the neighbours' load). Each workload therefore times a fixed
// calibration kernel (a dependent integer chain in registers; none of the
// program's code) before, between and after its sessions or phases, and
// every wall-clock metric is scaled by kReferenceKernelMs over the kernel's
// median time in the run: it reads as on a host where the kernel takes
// kReferenceKernelMs. A change to the program moves the scaled figure
// exactly as it moves the raw one, which the table prints alongside.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

struct Spec {
  const char* name;
  const char* unit;
};

/// The calibration kernel's time on an unloaded 2.1 GHz x86 core; only
/// the unit of the scaled figures depends on it.
constexpr double kReferenceKernelMs = 8.0;

/// Scale factor for a unit: times multiply by `speed`, rates divide by
/// it, everything else stays.
double scale_for(const std::string& unit, double speed) {
  if (unit == "1/s") return 1.0 / speed;
  if (unit == "s" || unit.rfind("us", 0) == 0 || unit.rfind("ns", 0) == 0 ||
      unit.rfind("ms", 0) == 0) {
    return speed;
  }
  return 1.0;
}

// The names BENCHMARK.json lists, in its order.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_us_per_job", "us"},
    {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},
    {"alloc_p50_us", "us"},
    {"alloc_p99_us", "us"},
    {"max_rate_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"sim_exec_p75_s", "sim_s"},
    {"sim_exec_p95_s", "sim_s"},
    {"sim_wait_p99_s", "sim_s"},
    {"sim_jobs_per_hour_p95", "jobs/h"},
};

constexpr Spec kPerLayer[] = {
    {"cluster.submit_us_per_job", "us/job"},
    {"cluster.finish_ms", "ms"},
    {"cluster.ticks", "count"},
    {"cluster.probes_per_job", "probes/job"},
    {"cluster.memo_hit_ratio", "ratio"},
    {"cluster.route_us_per_job", "us/job"},
    {"cluster.commit_us_per_job", "us/job"},
    {"cluster.serve_shard_self_us_per_job", "us/job"},
    {"cluster.tick_self_us_per_job", "us/job"},
    {"cluster.fanout_self_us_per_job", "us/job"},
    {"cluster.fault_us_per_event", "us/event"},
    {"cluster.forks", "count"},
    {"cluster.kills", "count"},
    {"cluster.rematches", "count"},
    {"policy.probe_self_us_per_job", "us/job"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.delta_ratio", "ratio"},
    {"cache.miss_ratio", "ratio"},
    {"cache.hit_us_per_job", "us/job"},
    {"cache.delta_us_per_job", "us/job"},
    {"cache.replay_us_per_job", "us/job"},
    {"cache.staged_enumerate_self_us_per_job", "us/job"},
    {"match.enumerations", "count"},
    {"match.enumerate_us_per_job", "us/job"},
    {"match.find_us_per_call", "us/call"},
    {"policy.allocate_nocache_us_per_call", "us/call"},
    {"score.effbw_ns_per_call", "ns/call"},
    {"score.preserved_ns_per_call", "ns/call"},
    {"svc.encode_ns_per_req", "ns/req"},
    {"svc.decode_reply_ns", "ns/reply"},
    {"svc.ingest_us_per_req", "us/req"},
    {"svc.poll_us_per_req", "us/req"},
    {"svc.poll_p99_us", "us"},
    {"svc.requests_per_poll", "req/poll"},
    {"svc.admit_wait_p99_us", "us"},
    {"svc.queue_full_rejects", "count"},
    {"svc.decode_errors", "count"},
    {"gen.late_p99_ms", "ms"},
    {"gen.late_max_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.dispatcher_span_coverage", "ratio"},
};

/// Orders `got` by `specs`, checking names and units. Missing metrics are
/// a violation when `required`, else they read 0 with 0 samples.
template <std::size_t N>
std::vector<Metric> canonical(const std::vector<Metric>& got,
                              const Spec (&specs)[N], bool required,
                              Report& report) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) {
    report.check(by_name.emplace(m.name, m).second,
                 "metric reported twice: " + m.name);
  }
  std::vector<Metric> out;
  for (const Spec& s : specs) {
    const auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      report.check(!required, std::string("metric missing: ") + s.name);
      out.push_back({s.name, 0.0, s.unit, 0});
      continue;
    }
    report.check(it->second.unit == s.unit,
                 "metric " + it->second.name + " has unit " +
                     it->second.unit + ", expected " + s.unit);
    report.check(std::isfinite(it->second.value),
                 "metric " + it->second.name + " is not finite");
    out.push_back(it->second);
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) {
    report.check(false, "metric not in the benchmark's list: " + name);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Options& o, std::string& error) {
  bool have_trace_seed = false;
  bool have_chaos_seed = false;
  bool have_arrival_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          error = "--trace takes 0 or 1";
          return false;
        }
        o.trace = value == "1";
      } else if (flag == "--trace-seed") {
        o.trace_seed = std::stoull(value);
        have_trace_seed = true;
      } else if (flag == "--chaos-seed") {
        o.chaos_seed = std::stoull(value);
        have_chaos_seed = true;
      } else if (flag == "--arrival-seed") {
        o.arrival_seed = std::stoull(value);
        have_arrival_seed = true;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (o.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  if (!(o.seconds > 0.0)) {
    error = "--seconds must be > 0";
    return false;
  }
  if (!have_trace_seed) o.trace_seed = perfbench::mix_seed(o.seed, 0);
  if (!have_chaos_seed) o.chaos_seed = perfbench::mix_seed(o.seed, 1);
  if (!have_arrival_seed) o.arrival_seed = perfbench::mix_seed(o.seed, 2);
  return true;
}

void print_table(const char* title, const std::vector<Metric>& metrics,
                 double speed) {
  std::printf("%s\n", title);
  std::printf("  %-40s %14s %14s  %-10s %10s\n", "metric", "value", "raw",
              "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %14.6g  %-10s %10zu\n", m.name.c_str(),
                m.value, m.value / scale_for(m.unit, speed), m.unit.c_str(),
                m.samples);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!parse(argc, argv, o, error)) {
    std::cerr << "mapa_perfbench: " << error << "\n";
    return 2;
  }
  Report report;
  perfbench::calibrate(report);
  try {
    if (o.workload == "fleet_churn") {
      perfbench::run_fleet_churn(o, report);
    } else if (o.workload == "search16_faults") {
      perfbench::run_search16_faults(o, report);
    } else if (o.workload == "daemon_open_loop") {
      perfbench::run_daemon_open_loop(o, report);
    } else {
      std::cerr << "mapa_perfbench: unknown workload " << o.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "mapa_perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  perfbench::calibrate(report);
  const double kernel_median = perfbench::median(report.kernel_ms);
  const double speed = kReferenceKernelMs / kernel_median;
  std::vector<Metric> metrics =
      o.trace ? canonical(report.per_layer, kPerLayer, false, report)
              : canonical(report.end_to_end, kEndToEnd, true, report);
  for (Metric& m : metrics) m.value *= scale_for(m.unit, speed);
  report.check(report.attempted > 0, "no operation attempted");

  std::printf("workload %s  seed %llu  (trace %llu, chaos %llu, arrival "
              "%llu)  seconds %g  trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.trace_seed),
              static_cast<unsigned long long>(o.chaos_seed),
              static_cast<unsigned long long>(o.arrival_seed), o.seconds,
              o.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  failed_frac %.6f (%llu of %llu jobs or requests)\n",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted > 0 ? report.attempted
                                                           : 1),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("  host speed: calibration kernel %.3f ms (median of %zu), "
              "reference %.1f ms; timings scaled by %.4f\n",
              kernel_median, report.kernel_ms.size(), kReferenceKernelMs,
              speed);
  print_table(o.trace ? "per-layer metrics" : "end-to-end metrics", metrics,
              speed);
  for (const std::string& v : report.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
    std::cerr << "CHECK FAILED: " << v << "\n";
  }

  const bool correct = report.violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
