// Layer replay for the layers that emit no spans: the matcher, the
// cache-free policy, and the scoring functions. A fixed, evenly spaced
// sample of a run's placements is re-issued against each server's busy
// mask as it stood at decision time, rebuilt from the records: the GPUs
// of every earlier placement on that server still running at the
// placement's start. The cache-free policy must return the recorded
// mapping, which doubles as an oracle for the cached fleet path.

#include <algorithm>
#include <set>

#include "bench.hpp"
#include "graph/bitgraph.hpp"
#include "match/enumerator.hpp"
#include "policy/policy.hpp"
#include "score/effbw_model.hpp"
#include "score/scores.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kScoreRepeats = 32;

}  // namespace

void replay_layers(const std::vector<mapa::cluster::ServerSpec>& specs,
                   const mapa::cluster::FleetResult& result,
                   const std::vector<mapa::cluster::FaultEvent>& faults,
                   std::size_t sample, Report& report) {
  std::set<std::size_t> faulted;
  for (const auto& e : faults) faulted.insert(e.server);

  std::vector<std::vector<std::size_t>> by_server(specs.size());
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const std::size_t s = result.records[i].server;
    by_server[s].push_back(i);
    if (!faulted.contains(s)) candidates.push_back(i);
  }
  const std::size_t stride = std::max<std::size_t>(
      1, candidates.size() / std::max<std::size_t>(sample, 1));

  double find_us = 0.0;
  double allocate_us = 0.0;
  double effbw_ns = 0.0;
  double preserved_ns = 0.0;
  std::size_t calls = 0;
  std::size_t mismatches = 0;
  double sink = 0.0;
  for (std::size_t c = 0; c < candidates.size() && calls < sample;
       c += stride) {
    const std::size_t i = candidates[c];
    const mapa::cluster::FleetRecord& fr = result.records[i];
    const mapa::cluster::ServerSpec& spec = specs[fr.server];
    const mapa::graph::Graph& hardware = spec.topology.graph();
    std::vector<bool> busy(hardware.num_vertices(), false);
    for (const std::size_t j : by_server[fr.server]) {
      if (j >= i) break;
      const auto& prior = result.records[j].record;
      if (prior.finish_s > fr.record.start_s) {
        for (const auto g : prior.gpus) busy[g] = true;
      }
    }
    const mapa::graph::Graph pattern = fr.record.job.application_graph();
    const mapa::graph::VertexMask mask =
        mapa::graph::VertexMask::of_busy(busy);

    mapa::match::EnumerateOptions options;
    options.forbidden = mask;
    auto t0 = Clock::now();
    const auto matches = mapa::match::find_matches(pattern, hardware, options);
    auto t1 = Clock::now();
    find_us += us_between(t0, t1);
    sink += static_cast<double>(matches.size());

    const auto policy = mapa::policy::make_policy(spec.policy);
    mapa::policy::AllocationRequest request;
    request.pattern = &pattern;
    request.bandwidth_sensitive = fr.record.job.bandwidth_sensitive;
    t0 = Clock::now();
    const auto placed = policy->allocate(hardware, busy, request);
    t1 = Clock::now();
    allocate_us += us_between(t0, t1);
    if (!placed || placed->match.mapping != fr.record.gpus) ++mismatches;

    mapa::match::Match recorded;
    recorded.mapping = fr.record.gpus;
    t0 = Clock::now();
    for (std::size_t r = 0; r < kScoreRepeats; ++r) {
      sink += mapa::score::predict_effective_bandwidth(pattern, hardware,
                                                       recorded);
    }
    t1 = Clock::now();
    effbw_ns += us_between(t0, t1) * 1000.0 / kScoreRepeats;
    t0 = Clock::now();
    for (std::size_t r = 0; r < kScoreRepeats; ++r) {
      sink += mapa::score::preserved_bandwidth(hardware, recorded, mask);
    }
    t1 = Clock::now();
    preserved_ns += us_between(t0, t1) * 1000.0 / kScoreRepeats;
    ++calls;
  }
  report.check(calls > 0, "replay: no placement to replay");
  report.check(mismatches == 0,
               "replay: cache-free policy disagrees with " +
                   std::to_string(mismatches) + " of " +
                   std::to_string(calls) + " recorded placements");
  const double n = static_cast<double>(std::max<std::size_t>(calls, 1));
  report.layer("match.find_us_per_call", find_us / n, "us/call", calls);
  report.layer("policy.allocate_nocache_us_per_call", allocate_us / n,
               "us/call", calls);
  report.layer("score.effbw_ns_per_call", effbw_ns / n, "ns/call", calls);
  report.layer("score.preserved_ns_per_call", preserved_ns / n, "ns/call",
               calls);
  // Keeps the timed calls observable to the optimiser.
  if (sink == -1.0) report.notes.push_back("unreachable");
}

}  // namespace perfbench
