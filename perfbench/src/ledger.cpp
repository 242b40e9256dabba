// Per-layer ledger from the spans the program already emits.
//
// Spans carry no parent id, so nesting is rebuilt per thread from
// (tid, start, duration): on one thread a span's children are the spans
// it fully contains, and its self time is its duration minus that of its
// direct children. Summed over one thread, self times telescope to the
// time covered by that thread's top-level spans.

#include <algorithm>
#include <map>

#include "bench.hpp"

namespace perfbench {

namespace {

struct Flat {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t tid = 0;
  std::string key;
  std::uint64_t child_ns = 0;
};

std::string outcome_of(const mapa::obs::TraceEvent& e) {
  for (std::size_t i = 0; i < e.num_args; ++i) {
    if (std::string(e.arg_keys[i]) != "outcome") continue;
    std::string v = e.arg_values[i];
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      v = v.substr(1, v.size() - 2);
    }
    return v;
  }
  return "none";
}

}  // namespace

const SpanTotals& Ledger::get(const std::string& key) const {
  static const SpanTotals kEmpty;
  const auto it = spans.find(key);
  return it == spans.end() ? kEmpty : it->second;
}

void merge_ledger(Ledger& into, const Ledger& from) {
  for (const auto& [key, t] : from.spans) {
    SpanTotals& sum = into.spans[key];
    sum.self_us += t.self_us;
    sum.total_us += t.total_us;
    sum.count += t.count;
  }
  into.dispatcher_self_us += from.dispatcher_self_us;
  into.dispatcher_fanout_self_us += from.dispatcher_fanout_self_us;
  into.events += from.events;
}

Ledger build_ledger(const mapa::obs::TraceSink& sink) {
  std::vector<Flat> flat;
  {
    const std::vector<mapa::obs::TraceEvent> events = sink.sorted_events();
    flat.reserve(events.size());
    for (const mapa::obs::TraceEvent& e : events) {
      if (e.instant) continue;
      Flat f;
      f.start = e.start_ns;
      f.end = e.start_ns + e.duration_ns;
      f.tid = e.tid;
      f.key.append(e.category).append("/").append(e.name);
      if (f.key == "cache/lookup") f.key.append(":").append(outcome_of(e));
      flat.push_back(std::move(f));
    }
  }
  // Per thread, parents before the children they contain.
  std::sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (i > 0 && flat[i].tid != flat[i - 1].tid) stack.clear();
    while (!stack.empty() && flat[stack.back()].end < flat[i].end) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      flat[stack.back()].child_ns += flat[i].end - flat[i].start;
    }
    stack.push_back(i);
  }

  Ledger ledger;
  ledger.events = sink.size();
  std::uint32_t dispatcher = 0;
  bool have_dispatcher = false;
  for (const Flat& f : flat) {
    if (f.key == "fleet/tick") {
      dispatcher = f.tid;
      have_dispatcher = true;
      break;
    }
  }
  for (const Flat& f : flat) {
    const double dur_us = static_cast<double>(f.end - f.start) / 1000.0;
    const double self_us =
        static_cast<double>(f.end - f.start - std::min(f.child_ns,
                                                       f.end - f.start)) /
        1000.0;
    SpanTotals& t = ledger.spans[f.key];
    t.total_us += dur_us;
    t.self_us += self_us;
    ++t.count;
    if (have_dispatcher && f.tid == dispatcher) {
      ledger.dispatcher_self_us += self_us;
      if (f.key == "fleet/probe_fanout") {
        ledger.dispatcher_fanout_self_us += self_us;
      }
    }
  }
  return ledger;
}

void report_trace_layers(const Ledger& ledger, std::size_t placed_jobs,
                         Report& report) {
  const double jobs =
      static_cast<double>(std::max<std::size_t>(placed_jobs, 1));
  const auto per_job = [&](const std::string& name, double us,
                           std::size_t samples) {
    report.layer(name, us / jobs, "us/job", samples);
  };
  const auto self_of = [&](const std::string& key) {
    return ledger.get(key);
  };

  per_job("cluster.route_us_per_job", self_of("fleet/route").self_us,
          self_of("fleet/route").count);
  per_job("cluster.commit_us_per_job", self_of("fleet/commit").self_us,
          self_of("fleet/commit").count);
  per_job("cluster.serve_shard_self_us_per_job",
          self_of("fleet/serve_shard").self_us,
          self_of("fleet/serve_shard").count);
  per_job("cluster.tick_self_us_per_job", self_of("fleet/tick").self_us,
          self_of("fleet/tick").count);
  per_job("cluster.fanout_self_us_per_job", ledger.dispatcher_fanout_self_us,
          self_of("fleet/probe_fanout").count);

  double fault_us = 0.0;
  std::size_t fault_events = 0;
  for (const auto& [key, t] : ledger.spans) {
    if (key.rfind("fault/", 0) == 0) {
      fault_us += t.total_us;
      fault_events += t.count;
    }
  }
  report.layer("cluster.fault_us_per_event",
               fault_events > 0 ? fault_us / static_cast<double>(fault_events)
                                : 0.0,
               "us/event", fault_events);

  per_job("policy.probe_self_us_per_job", self_of("probe/allocate").self_us,
          self_of("probe/allocate").count);

  const SpanTotals& hit = self_of("cache/lookup:hit");
  const SpanTotals& delta = self_of("cache/lookup:delta");
  const SpanTotals& replay = self_of("cache/lookup:staged_replay");
  per_job("cache.hit_us_per_job", hit.total_us, hit.count);
  per_job("cache.delta_us_per_job", delta.total_us, delta.count);
  per_job("cache.replay_us_per_job", replay.total_us, replay.count);
  // Every outcome that streams a live enumeration; self time excludes the
  // match/enumerate child, leaving cache bookkeeping plus the scoring
  // visitor.
  double enumerate_self = 0.0;
  std::size_t enumerate_lookups = 0;
  for (const char* outcome : {"staged_enumerate", "miss", "unreplayable",
                              "bypass", "staged_bypass"}) {
    const SpanTotals& t = self_of(std::string("cache/lookup:") + outcome);
    enumerate_self += t.self_us;
    enumerate_lookups += t.count;
  }
  per_job("cache.staged_enumerate_self_us_per_job", enumerate_self,
          enumerate_lookups);

  const SpanTotals& enumerate = self_of("match/enumerate");
  report.layer("match.enumerations", static_cast<double>(enumerate.count),
               "count", enumerate.count);
  per_job("match.enumerate_us_per_job", enumerate.total_us, enumerate.count);
}

}  // namespace perfbench
