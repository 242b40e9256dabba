// Output checks, record digests and modelled quality shared by every
// fleet-backed workload.

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sys/resource.h>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void calibrate(Report& report, std::size_t runs) {
  for (std::size_t run = 0; run < runs; ++run) {
    const auto t0 = Clock::now();
    // One dependent chain of multiplies, shifts and xors in registers: its
    // time follows the core's clock and share of the core, nothing else.
    std::uint64_t x = run + 1;
    for (int i = 0; i < 4'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    const double ms = us_between(t0, Clock::now()) / 1e3;
    // Keeps the chain observable; x never equals 1 for these seeds.
    report.kernel_ms.push_back(x == 1 ? ms + 1e-9 : ms);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t records_digest(const mapa::cluster::FleetResult& result) {
  Digest d;
  for (const mapa::cluster::FleetRecord& fr : result.records) {
    const mapa::sim::JobRecord& r = fr.record;
    d.add(static_cast<std::uint64_t>(r.job.id));
    d.add(static_cast<std::uint64_t>(fr.server));
    d.add(static_cast<std::uint64_t>(fr.retries));
    for (const auto g : r.gpus) d.add(static_cast<std::uint64_t>(g));
    d.add(r.start_s);
    d.add(r.finish_s);
    d.add(r.exec_s);
    d.add(r.predicted_effbw);
    d.add(r.preserved_bw);
  }
  for (const mapa::cluster::DeadLetter& dl : result.dead_letters) {
    d.add(static_cast<std::uint64_t>(dl.job.id));
    d.add(dl.time_s);
  }
  d.add(result.makespan_s);
  return d.h;
}

void check_fleet_result(const mapa::cluster::FleetResult& result,
                        const std::vector<mapa::workload::Job>& jobs,
                        Report& report, const std::string& label) {
  // Every submitted job exactly once across records and dead letters.
  std::unordered_map<int, int> seen;
  seen.reserve(jobs.size());
  for (const auto& job : jobs) seen.emplace(job.id, 0);
  bool unknown = false;
  const auto mark = [&](int id) {
    const auto it = seen.find(id);
    if (it == seen.end()) {
      unknown = true;
    } else {
      ++it->second;
    }
  };
  for (const auto& fr : result.records) mark(fr.record.job.id);
  for (const auto& dl : result.dead_letters) mark(dl.job.id);
  std::size_t missing = 0;
  std::size_t duplicated = 0;
  for (const auto& [id, n] : seen) {
    if (n == 0) ++missing;
    if (n > 1) ++duplicated;
  }
  report.check(!unknown, label + ": a record names a job never submitted");
  report.check(missing == 0, label + ": " + std::to_string(missing) +
                                 " submitted jobs neither placed nor "
                                 "dead-lettered");
  report.check(duplicated == 0, label + ": " + std::to_string(duplicated) +
                                    " jobs accounted more than once");

  // GPU counts, distinct in-range GPUs, and no GPU in two overlapping
  // [start, finish) intervals on one server.
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::pair<double, double>>>
      holds;
  std::size_t bad_size = 0;
  std::size_t bad_gpu = 0;
  for (const auto& fr : result.records) {
    const auto& r = fr.record;
    if (r.gpus.size() != r.job.num_gpus) ++bad_size;
    if (fr.server >= result.servers.size()) {
      ++bad_gpu;
      continue;
    }
    const std::size_t width = result.servers[fr.server].num_gpus;
    std::vector<std::size_t> sorted(r.gpus.begin(), r.gpus.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end() ||
        (!sorted.empty() && sorted.back() >= width)) {
      ++bad_gpu;
    }
    if (!(r.finish_s > r.start_s)) continue;
    for (const std::size_t g : sorted) {
      holds[{fr.server, g}].emplace_back(r.start_s, r.finish_s);
    }
  }
  std::size_t overlaps = 0;
  for (auto& [key, intervals] : holds) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first < intervals[i - 1].second) ++overlaps;
    }
  }
  report.check(bad_size == 0, label + ": " + std::to_string(bad_size) +
                                  " records hold a GPU count unequal to "
                                  "their job's");
  report.check(bad_gpu == 0, label + ": " + std::to_string(bad_gpu) +
                                 " records hold repeated or out-of-range "
                                 "GPUs");
  report.check(overlaps == 0, label + ": " + std::to_string(overlaps) +
                                  " GPU holds overlap on one server");
}

SimQuality sim_quality(const mapa::cluster::FleetResult& result) {
  std::vector<double> exec;
  std::vector<double> wait;
  std::vector<double> finish;
  wait.reserve(result.records.size());
  finish.reserve(result.records.size());
  for (const auto& fr : result.records) {
    const auto& r = fr.record;
    wait.push_back(r.start_s - r.job.arrival_time_s);
    finish.push_back(r.finish_s);
    if (r.job.bandwidth_sensitive) exec.push_back(r.exec_s);
  }
  SimQuality q;
  q.exec_p75_s = percentile(exec, 0.75);
  q.exec_p95_s = percentile(exec, 0.95);
  q.exec_max_s =
      exec.empty() ? 0.0 : *std::max_element(exec.begin(), exec.end());
  q.wait_p99_s = percentile(wait, 0.99);
  q.jobs_per_hour = result.throughput_jobs_per_hour();
  const double t95 = percentile(finish, 0.95);
  if (t95 > 0.0) {
    q.jobs_per_hour_p95 =
        0.95 * static_cast<double>(finish.size()) / t95 * 3600.0;
  }
  q.sensitive = exec.size();
  q.placed = result.records.size();
  return q;
}

SimQuality median_quality(const std::vector<SimQuality>& sessions) {
  const auto median_of = [&](double SimQuality::*field) {
    std::vector<double> xs;
    for (const SimQuality& q : sessions) xs.push_back(q.*field);
    return median(xs);
  };
  SimQuality q;
  q.exec_p75_s = median_of(&SimQuality::exec_p75_s);
  q.exec_p95_s = median_of(&SimQuality::exec_p95_s);
  q.exec_max_s = median_of(&SimQuality::exec_max_s);
  q.wait_p99_s = median_of(&SimQuality::wait_p99_s);
  q.jobs_per_hour = median_of(&SimQuality::jobs_per_hour);
  q.jobs_per_hour_p95 = median_of(&SimQuality::jobs_per_hour_p95);
  for (const SimQuality& each : sessions) {
    q.sensitive += each.sensitive;
    q.placed += each.placed;
  }
  return q;
}

void report_sim_quality(const SimQuality& q, Report& report) {
  report.e2e("sim_exec_p75_s", q.exec_p75_s, "sim_s", q.sensitive);
  report.e2e("sim_exec_p95_s", q.exec_p95_s, "sim_s", q.sensitive);
  report.e2e("sim_wait_p99_s", q.wait_p99_s, "sim_s", q.placed);
  report.e2e("sim_jobs_per_hour_p95", q.jobs_per_hour_p95, "jobs/h",
             q.placed);
  report.notes.push_back(
      "modelled, not gated: sim_exec_max_s " + std::to_string(q.exec_max_s) +
      ", sim_jobs_per_hour (over the makespan) " +
      std::to_string(q.jobs_per_hour));
}

}  // namespace perfbench
