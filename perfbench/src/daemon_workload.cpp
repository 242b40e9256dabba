// daemon_open_loop: svc::AllocationService over 1000 DGX-1V servers with
// topo-aware placement and 32 shards, driven in-process through ingest()
// and poll() with pre-encoded wire frames. topo-aware bypasses the matcher
// and the match cache, so this is the one workload on the svc decode ->
// admit -> tick -> encode path, and reuse or matcher changes predict no
// change here.
//
// Load is open loop: request i is due at a Poisson offset fixed before
// the clock starts and is sent when due, whether or not earlier requests
// have been answered. Latency runs from the due time (not the send time)
// to the reply frame, so time the single-threaded loop spends in poll()
// or in a host stall counts against every request it delays; how late
// each request was sent is reported on its own. The mix is mostly
// allocates, with small shares of queries (reads) and releases (writes)
// of recently sent jobs.
//
// Idle time is skipped: when nothing is pending and the next request is
// not yet due, the run's clock jumps to its due time instead of spinning
// until then (see drive()). Every busy interval is measured in real time
// and the schedule is unchanged, so queueing, batching and latency are
// those of the open loop; what goes is the idle gap, in which a shared
// host's neighbours evict the service's caches. With the gaps, the
// daemon's time per request moved by up to 70% between runs with the
// neighbours' load while a register-only kernel moved by 9%.
//
// Phases, each on a fresh service:
//   quality  every allocate of the 25k-job trace in one batch, which is
//            deterministic and gives the modelled sim_* metrics;
//   fixed    kFixedRate for a share of the budget: alloc latency, service
//            time and decision latency;
//   ladder   rates from ladder_rates(), searched by bisection, each run
//            for kRungSeconds; max_rate_rps is the highest rung that held
//            (alloc p99 within kP99LimitUs, no growing backlog, no
//            admission reject). Its steps alternate with the fixed-rate
//            runs.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <unordered_set>
#include <variant>

#include "bench.hpp"
#include "graph/topology.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

namespace cl = mapa::cluster;
namespace svc = mapa::svc;
namespace wl = mapa::workload;

constexpr std::size_t kServers = 1000;
constexpr std::size_t kQualityJobsPerServer = 25;
constexpr double kFixedRate = 20'000.0;  // req/s, below the knee
/// Requests of one fixed-rate run: 10 s of schedule at kFixedRate, which
/// takes about kFixedRunS of busy time on a 4-core x86 box.
constexpr std::size_t kFixedRequests = 200'000;
constexpr double kFixedRunS = 1.5;
constexpr double kFixedShare = 0.6;  // of --seconds
constexpr double kRungSeconds = 1.0;
/// Latency and service time are taken per window and reported as the
/// median over windows, so one host stall (they reach 20 ms on a shared
/// box) sets the figure of one window, not of the run or the rung.
constexpr double kWindowS = 0.5;
/// Runs of each rung; see fold_windows.
constexpr std::size_t kRungReps = 2;
/// Calibration kernel runs next to each fixed-rate run, so the run's host
/// speed is sampled where the daemon was measured.
constexpr std::size_t kKernelRunsPerRep = 5;
/// Ladder rates, searched by bisection (see run_daemon_open_loop). The
/// knee moves with the host's speed (about 80k-150k req/s on a 4-core x86
/// box with neighbours), so the steps are fine enough that crossing one
/// moves the figure by 10%, not by a factor.
constexpr double kLadderLow = 20'000.0;
constexpr double kLadderHigh = 220'000.0;
constexpr double kLadderStep = 1.1;
/// Far above any host stall, so a rung fails only when the queue
/// outgrows the service: the figure is the capacity knee.
constexpr double kP99LimitUs = 50'000.0;
constexpr double kQueryShare = 0.05;
constexpr double kReleaseShare = 0.05;
/// Releases and queries name one of the last this-many allocates, so some
/// land in the same batch as their allocate.
constexpr std::size_t kRecentWindow = 32;
constexpr std::uint64_t kClient = 1;
constexpr std::size_t kSetups = 5;
/// Quality batches, each its own trace: the median over them keeps one
/// trace's straggler from setting the modelled figures.
constexpr std::size_t kQualityBatches = 3;

enum class Kind : std::uint8_t { kAllocate, kQuery, kRelease };

/// A request stream, encoded back to back in one buffer. Due times are
/// kept at unit rate (mean gap 1 s): driven at rate r, request i is due
/// unit_due[i] / r after the start, so every rate replays the same frames
/// on the same Poisson pattern.
struct Stream {
  std::vector<double> unit_due;
  std::vector<Kind> kind;
  std::vector<int> job_id;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offset;  // frame i = bytes[offset[i], offset[i+1])
};

std::vector<cl::ServerSpec> dgx_specs() {
  cl::FleetArchetype arch;
  arch.name = "dgx1v";
  arch.topology = mapa::graph::TopologyHandle(mapa::graph::dgx1_v100());
  arch.policy = "topo-aware";
  return cl::archetype_fleet_specs(kServers, {arch});
}

svc::ServiceConfig service_config(
    std::shared_ptr<mapa::obs::Observer> observer = nullptr) {
  svc::ServiceConfig config;
  config.cluster.shards = 32;
  config.cluster.observer = std::move(observer);
  // Admission never sheds here: the ladder finds where latency breaks.
  config.max_pending = std::size_t{1} << 22;
  return config;
}

/// A stream of `count` requests drawing allocates from `jobs` in order;
/// with `mix` off every request allocates.
Stream make_stream(const std::vector<wl::Job>& jobs, std::size_t count,
                   bool mix, std::uint64_t seed, double& encode_s) {
  Stream p;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<svc::Request> requests;
  requests.reserve(count);
  std::size_t next_job = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < count && next_job < jobs.size(); ++i) {
    t += gap(rng);
    const double u = unit(rng);
    svc::Request r;
    r.id = i + 1;
    Kind kind = Kind::kAllocate;
    int id = 0;
    if (mix && next_job > 0 && u < kQueryShare + kReleaseShare) {
      const std::size_t window = std::min(next_job, kRecentWindow);
      const std::size_t back = static_cast<std::size_t>(
          unit(rng) * static_cast<double>(window));
      id = jobs[next_job - 1 - std::min(back, window - 1)].id;
      if (u < kQueryShare) {
        kind = Kind::kQuery;
        r.payload = svc::QueryRequest{id};
      } else {
        kind = Kind::kRelease;
        r.payload = svc::ReleaseRequest{id};
      }
    } else {
      id = jobs[next_job].id;
      r.payload = svc::AllocateRequest::from_job(jobs[next_job]);
      ++next_job;
    }
    p.unit_due.push_back(t);
    p.kind.push_back(kind);
    p.job_id.push_back(id);
    requests.push_back(std::move(r));
  }
  const auto t0 = Clock::now();
  for (const svc::Request& r : requests) {
    const std::vector<std::uint8_t> frame = svc::encode(r);
    p.offset.push_back(p.bytes.size());
    p.bytes.insert(p.bytes.end(), frame.begin(), frame.end());
  }
  p.offset.push_back(p.bytes.size());
  encode_s += seconds_between(t0, Clock::now());
  return p;
}

/// Runs of the fixed-rate schedule that --seconds affords, at an assumed
/// kFixedRunS each; fixed by --seconds, never by how fast runs went.
std::size_t fixed_reps(const Options& o) {
  const double n = std::floor(o.seconds * kFixedShare / kFixedRunS);
  return static_cast<std::size_t>(std::clamp(n, 3.0, 63.0));
}

/// The ladder: 20k req/s and up in steps of 10%, rounded to 1k.
const std::vector<double>& ladder_rates() {
  static const std::vector<double> rates = [] {
    std::vector<double> r;
    for (double rate = kLadderLow; rate <= kLadderHigh; rate *= kLadderStep) {
      r.push_back(std::round(rate / 1000.0) * 1000.0);
    }
    return r;
  }();
  return rates;
}

/// One deterministic batch: its own 25k-job trace, every allocate due at
/// once.
struct QualityBatch {
  std::vector<wl::Job> jobs;
  Stream stream;
};

struct Inputs {
  std::vector<QualityBatch> quality;
  /// Serves the fixed-rate phase and every ladder rung (a prefix each).
  Stream stream;
  double encode_ns_per_req = 0.0;
  std::unique_ptr<svc::AllocationService> service;  // for the first batch
};

Inputs make_inputs(const Options& o) {
  Inputs in;
  double encode_s = 0.0;
  std::size_t frames = 0;
  for (std::size_t k = 0; k < kQualityBatches; ++k) {
    QualityBatch batch;
    batch.jobs = wl::generate_fleet_trace(wl::fleet_scale_trace_config(
        kServers, kQualityJobsPerServer, mix_seed(o.trace_seed, 100 + k)));
    batch.stream =
        make_stream(batch.jobs, batch.jobs.size(), false, 0, encode_s);
    frames += batch.stream.kind.size();
    in.quality.push_back(std::move(batch));
  }

  const std::size_t count =
      std::max(kFixedRequests, static_cast<std::size_t>(ladder_rates().back() *
                                                         kRungSeconds));
  wl::FleetTraceConfig trace = wl::fleet_scale_trace_config(
      kServers, kQualityJobsPerServer, o.trace_seed);
  trace.num_jobs = count;
  in.stream = make_stream(wl::generate_fleet_trace(trace), count, true,
                         o.arrival_seed, encode_s);
  frames += in.stream.kind.size();
  in.encode_ns_per_req = encode_s * 1e9 / static_cast<double>(frames);
  in.service = std::make_unique<svc::AllocationService>(dgx_specs(),
                                                        service_config());
  return in;
}

/// Figures of one kWindowS slice of a run, by due time (requests) or
/// start time (polls).
struct Window {
  double busy_s = 0.0;  // ingest() + poll()
  std::size_t placed = 0;
  std::vector<double> alloc_us;
  std::vector<double> decision_us;
};

struct RunResult {
  std::size_t sent = 0;
  std::size_t unexpected = 0;  // unanswered, duplicate, undecodable, error
  std::size_t queue_full = 0;
  std::size_t decode_errors = 0;
  std::size_t placed = 0;
  std::vector<double> alloc_us;     // due -> reply, placed allocates
  std::vector<double> latency_us;   // by request; NaN unless placed
  std::vector<double> late_ms;      // due -> sent
  std::vector<double> admit_us;     // due -> start of the serving poll
  std::vector<double> poll_us;      // every poll
  /// Polls that took in one request and placed one allocate: one
  /// decision's service time. Polls that batch several requests are left
  /// out, since how often arrivals coincide follows the host's speed and
  /// their share moves the tail by whole batch sizes; their cost is in
  /// alloc_us and busy time.
  std::vector<double> decision_us;
  double ingest_s = 0.0;
  double poll_s = 0.0;
  double decode_s = 0.0;
  std::size_t replies = 0;
  bool aborted = false;      // schedule fell too far behind
  double backlog_growth_ms = 0.0;  // late, last quarter minus first quarter
  std::uint64_t ticks = 0;
  std::vector<Window> windows;
  cl::FleetResult result;
};

/// Drive the first `count` requests of a stream open loop at `rate` (with
/// rate 0, as one batch) and check that every request is answered exactly
/// once with a decodable reply. The clock is real time plus `skipped`, the
/// idle time jumped over: it only grows while nothing is pending, so every
/// busy interval and every latency is measured in real time.
RunResult drive(svc::AllocationService& service, const Stream& stream,
                double rate, std::size_t count, double abort_after_s) {
  RunResult r;
  const std::size_t n = std::min(count, stream.kind.size());
  const auto due_s = [&](std::size_t i) {
    return rate > 0.0 ? stream.unit_due[i] / rate : 0.0;
  };
  std::vector<std::uint8_t> answers(n, 0);
  std::vector<svc::Outbound> out;
  out.reserve(1024);
  r.late_ms.assign(n, 0.0);
  r.latency_us.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::unordered_set<int> released_jobs;

  const auto start = Clock::now();
  Clock::duration skipped{0};
  const auto now_v = [&] { return Clock::now() + skipped; };
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s(i)));
  };
  const auto window = [&](double offset_s) -> Window& {
    const auto w = static_cast<std::size_t>(std::max(0.0, offset_s) / kWindowS);
    if (w >= r.windows.size()) r.windows.resize(w + 1);
    return r.windows[w];
  };
  // `served`: requests the poll being harvested took in; 0 outside poll().
  const auto take_replies = [&](Clock::time_point at, std::size_t served) {
    std::size_t placed_here = 0;
    for (const svc::Outbound& o : out) {
      ++r.replies;
      const auto d0 = now_v();
      const svc::DecodedReply decoded =
          svc::decode_reply(o.frame.data() + 4, o.frame.size() - 4);
      r.decode_s += seconds_between(d0, now_v());
      const svc::Reply* reply = std::get_if<svc::Reply>(&decoded);
      if (reply == nullptr || reply->id == 0 || reply->id > n) {
        ++r.unexpected;
        continue;
      }
      const std::size_t i = reply->id - 1;
      if (answers[i]++ != 0) {
        ++r.unexpected;
        continue;
      }
      if (const auto* ok = std::get_if<svc::AllocateReply>(&reply->payload)) {
        if (stream.kind[i] != Kind::kAllocate ||
            ok->job_id != stream.job_id[i]) {
          ++r.unexpected;
          continue;
        }
        ++r.placed;
        ++placed_here;
        r.alloc_us.push_back(us_between(due(i), at));
        r.latency_us[i] = r.alloc_us.back();
        Window& w = window(due_s(i));
        ++w.placed;
        w.alloc_us.push_back(r.alloc_us.back());
      } else if (const auto* err =
                     std::get_if<svc::ErrorReply>(&reply->payload)) {
        if (err->code == svc::ErrorCode::kQueueFull) ++r.queue_full;
        if (err->code >= svc::ErrorCode::kBadMagic &&
            err->code <= svc::ErrorCode::kOversizedFrame) {
          ++r.decode_errors;
        }
        const bool own_release =
            err->code == svc::ErrorCode::kCancelled &&
            stream.kind[i] == Kind::kAllocate &&
            released_jobs.contains(stream.job_id[i]);
        if (!own_release) ++r.unexpected;
      }
    }
    out.clear();
    if (served == 1 && placed_here == 1) {
      r.decision_us.push_back(r.poll_us.back());
      window(seconds_between(start, at) - r.poll_us.back() * 1e-6)
          .decision_us.push_back(r.poll_us.back());
    }
  };

  std::size_t next = 0;
  std::size_t polled = 0;  // requests [polled, next) await a poll
  while (true) {
    Clock::time_point now = now_v();
    while (next < n && due(next) <= now) {
      r.late_ms[next] =
          std::chrono::duration<double, std::milli>(now - due(next)).count();
      if (stream.kind[next] == Kind::kRelease) {
        released_jobs.insert(stream.job_id[next]);
      }
      const std::uint8_t* frame = stream.bytes.data() + stream.offset[next];
      const std::size_t size = stream.offset[next + 1] - stream.offset[next];
      service.ingest(kClient, frame, size, out);
      const auto after = now_v();
      r.ingest_s += seconds_between(now, after);
      window(due_s(next)).busy_s += seconds_between(now, after);
      now = after;
      ++next;
    }
    if (!out.empty()) take_replies(now, 0);
    if (service.pending() > 0) {
      const auto p0 = now_v();
      for (std::size_t i = polled; i < next; ++i) {
        r.admit_us.push_back(us_between(due(i), p0));
      }
      const std::size_t served = next - polled;
      polled = next;
      service.poll(out);
      const auto p1 = now_v();
      r.poll_us.push_back(us_between(p0, p1));
      r.poll_s += seconds_between(p0, p1);
      window(seconds_between(start, p0)).busy_s += seconds_between(p0, p1);
      take_replies(p1, served);
      if (abort_after_s > 0.0 && seconds_between(start, p1) > abort_after_s) {
        r.aborted = next < n;
        break;
      }
      continue;
    }
    polled = next;
    if (next == n) break;
    // Idle until the next request is due: skip the gap.
    skipped += std::max(Clock::duration{0}, due(next) - now_v());
  }
  r.sent = next;
  r.late_ms.resize(next);
  r.ticks = service.fleet().ticks();
  service.shutdown(out);
  take_replies(now_v(), 0);
  for (std::size_t i = 0; i < next; ++i) {
    if (answers[i] == 0) ++r.unexpected;
  }
  if (next >= 8) {
    const std::size_t q = next / 4;
    const auto quarter = static_cast<std::ptrdiff_t>(q);
    const std::vector<double> head(r.late_ms.begin(),
                                   r.late_ms.begin() + quarter);
    const std::vector<double> tail(r.late_ms.end() - quarter,
                                   r.late_ms.end());
    r.backlog_growth_ms = median(tail) - median(head);
  }
  r.result = service.finish();
  return r;
}

/// One window's figures after folding repetitions of a run.
struct WindowFigures {
  double host_us = 0.0;
  double decision_p50 = 0.0;
  double decision_p99 = 0.0;
  double alloc_p99 = 0.0;
};

/// Each request's median latency over the repetitions of one schedule
/// (same frames, same due times) that placed it; infinity where none did.
/// A host stall delays the requests it hits in one repetition and rarely
/// the same ones in most of them, so the median strips it, while it still
/// follows the host speed of the typical repetition rather than of the
/// fastest one.
std::vector<double> typical_latencies(const std::vector<RunResult>& reps) {
  std::vector<double> typical(reps.front().latency_us.size(),
                              std::numeric_limits<double>::infinity());
  std::vector<double> xs;
  for (std::size_t i = 0; i < typical.size(); ++i) {
    xs.clear();
    for (const RunResult& r : reps) {
      if (i < r.latency_us.size() && !std::isnan(r.latency_us[i])) {
        xs.push_back(r.latency_us[i]);
      }
    }
    if (!xs.empty()) typical[i] = median(xs);
  }
  return typical;
}

/// Folds repetitions of one schedule per window: typical request
/// latencies (see typical_latencies), and the median over repetitions of
/// each window's service time and poll percentiles.
std::vector<WindowFigures> fold_windows(const std::vector<RunResult>& reps,
                                        const Stream& stream, double rate) {
  std::size_t windows = 0;
  for (const RunResult& r : reps) windows = std::max(windows, r.windows.size());
  std::vector<std::vector<double>> alloc(windows);
  const std::vector<double> typical = typical_latencies(reps);
  for (std::size_t i = 0; i < typical.size(); ++i) {
    const auto w =
        static_cast<std::size_t>(stream.unit_due[i] / rate / kWindowS);
    if (std::isfinite(typical[i]) && w < windows) {
      alloc[w].push_back(typical[i]);
    }
  }
  std::vector<WindowFigures> out;
  for (std::size_t w = 0; w < windows; ++w) {
    if (alloc[w].empty()) continue;
    std::vector<double> host_us;
    std::vector<double> decision_p50;
    std::vector<double> decision_p99;
    for (const RunResult& r : reps) {
      if (w >= r.windows.size() || r.windows[w].placed == 0) continue;
      const Window& x = r.windows[w];
      host_us.push_back(x.busy_s * 1e6 / static_cast<double>(x.placed));
      decision_p50.push_back(percentile(x.decision_us, 0.50));
      decision_p99.push_back(percentile(x.decision_us, 0.99));
    }
    if (host_us.empty()) continue;
    WindowFigures f;
    f.host_us = median(host_us);
    f.decision_p50 = median(decision_p50);
    f.decision_p99 = median(decision_p99);
    f.alloc_p99 = percentile(alloc[w], 0.99);
    out.push_back(f);
  }
  return out;
}

double median_over(const std::vector<WindowFigures>& windows,
                   double WindowFigures::*field) {
  std::vector<double> xs;
  for (const WindowFigures& w : windows) xs.push_back(w.*field);
  return median(xs);
}

}  // namespace

void run_daemon_open_loop(const Options& o, Report& report) {
  const auto run_start = Clock::now();
  std::vector<double> setup_s;
  std::vector<double> encode_ns;
  Inputs in;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    in = make_inputs(o);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    encode_ns.push_back(in.encode_ns_per_req);
  }

  const auto account = [&](const RunResult& pr, const std::string& label) {
    report.attempted += pr.sent;
    report.failed += pr.unexpected;
    report.check(pr.unexpected == 0,
                 label + ": " + std::to_string(pr.unexpected) +
                     " requests unanswered, answered twice, undecodable or "
                     "failed");
  };

  // Quality: deterministic batches of allocates through the service; the
  // sim_* figures are their medians.
  std::vector<SimQuality> quality;
  for (std::size_t k = 0; k < in.quality.size(); ++k) {
    const QualityBatch& batch = in.quality[k];
    std::unique_ptr<svc::AllocationService> service =
        k == 0 ? std::move(in.service)
               : std::make_unique<svc::AllocationService>(dgx_specs(),
                                                          service_config());
    const RunResult pr =
        drive(*service, batch.stream, 0.0, batch.jobs.size(), 0.0);
    const std::string label = "quality batch " + std::to_string(k);
    account(pr, label);
    check_fleet_result(pr.result, batch.jobs, report, label);
    report.check(pr.placed == batch.jobs.size(),
                 label + ": not every allocate was placed");
    quality.push_back(sim_quality(pr.result));
    if (!o.trace) continue;
    // Tracing must not change a single record.
    mapa::obs::ObsConfig config;
    config.tracing = true;
    config.trace_max_events = std::size_t{1} << 24;
    svc::AllocationService traced(
        dgx_specs(),
        service_config(std::make_shared<mapa::obs::Observer>(config)));
    const RunResult tr =
        drive(traced, batch.stream, 0.0, batch.jobs.size(), 0.0);
    account(tr, label + " (traced)");
    report.check(records_digest(tr.result) == records_digest(pr.result),
                 label + ": traced and untraced records differ");
    break;
  }

  const auto fixed_phase = [&](std::shared_ptr<mapa::obs::Observer> obs) {
    svc::AllocationService service(dgx_specs(), service_config(obs));
    RunResult pr =
        drive(service, in.stream, kFixedRate, kFixedRequests, 0.0);
    account(pr, obs ? "traced fixed-rate phase" : "fixed-rate phase");
    return pr;
  };
  const auto host_us = [](const RunResult& pr) {
    return (pr.ingest_s + pr.poll_s) * 1e6 /
           static_cast<double>(std::max<std::size_t>(pr.placed, 1));
  };

  if (!o.trace) {
    // A rung holds when alloc p99 (per-request median of kRungReps runs,
    // median over windows) is within the limit, one run finished without
    // admission rejects, and the generator's lateness did not keep
    // growing. Bisection assumes a rate above a failed rung fails too.
    const auto holds = [&](double rate) {
      const auto count = static_cast<std::size_t>(rate * kRungSeconds);
      const std::string label =
          "ladder rung " + std::to_string(static_cast<int>(rate));
      calibrate(report, kKernelRunsPerRep);
      std::vector<RunResult> reps;
      bool clean = false;
      double backlog_ms = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < kRungReps; ++r) {
        svc::AllocationService service(dgx_specs(), service_config());
        reps.push_back(
            drive(service, in.stream, rate, count, 2.0 * kRungSeconds));
        account(reps.back(), label);
        clean = clean || (!reps.back().aborted && reps.back().queue_full == 0);
        backlog_ms = std::min(backlog_ms, reps.back().backlog_growth_ms);
      }
      const double p99 = median_over(fold_windows(reps, in.stream, rate),
                                     &WindowFigures::alloc_p99);
      const bool held =
          clean && p99 <= kP99LimitUs && backlog_ms * 1000.0 <= kP99LimitUs;
      report.notes.push_back(
          label + ": alloc p99 " + std::to_string(p99) + " us, backlog +" +
          std::to_string(backlog_ms) + " ms" + (held ? "" : "  -> missed"));
      return held;
    };
    const std::vector<double>& rates = ladder_rates();
    std::ptrdiff_t lo = -1;  // highest rung known to hold
    auto hi = static_cast<std::ptrdiff_t>(rates.size());  // lowest known miss
    std::size_t rungs = 0;
    // Fixed-rate runs alternate with the ladder's bisection steps, so both
    // sample the host's speed across the whole run, not in two blocks.
    std::vector<RunResult> fixed;
    double rss_mb = 0.0;
    const std::size_t reps = fixed_reps(o);
    for (std::size_t r = 0; r < reps || hi - lo > 1; ++r) {
      if (r < reps) {
        calibrate(report, kKernelRunsPerRep);
        fixed.push_back(fixed_phase(nullptr));
        // Read before any rung: an overloaded rung's backlog is not the
        // service's footprint.
        if (r == 0) rss_mb = peak_rss_mb();
      }
      if (hi - lo > 1) {
        const std::ptrdiff_t mid = lo + (hi - lo) / 2;
        ++rungs;
        if (holds(rates[static_cast<std::size_t>(mid)])) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    calibrate(report, kKernelRunsPerRep);
    const std::vector<WindowFigures> windows =
        fold_windows(fixed, in.stream, kFixedRate);
    std::size_t placed = 0;
    std::size_t decisions = 0;
    for (const RunResult& pr : fixed) {
      placed += pr.placed;
      decisions += pr.decision_us.size();
    }
    const double max_rate = lo < 0 ? 0.0 : rates[static_cast<std::size_t>(lo)];
    report.e2e("setup_s", median(setup_s), "s", setup_s.size());
    report.e2e("host_us_per_job", median_over(windows, &WindowFigures::host_us),
               "us", placed);
    report.e2e("decision_p50_us",
               median_over(windows, &WindowFigures::decision_p50), "us",
               decisions);
    report.e2e("decision_p99_us",
               median_over(windows, &WindowFigures::decision_p99), "us",
               decisions);
    std::vector<double> typical;
    for (const double us : typical_latencies(fixed)) {
      if (std::isfinite(us)) typical.push_back(us);
    }
    report.e2e("alloc_p50_us", percentile(typical, 0.50), "us",
               typical.size());
    // Per window, as for the ladder: a stretch of heavier host load moves
    // the tail of the windows it covers, not the run's figure.
    report.e2e("alloc_p99_us",
               median_over(windows, &WindowFigures::alloc_p99), "us",
               typical.size());
    report.e2e("max_rate_rps", max_rate, "1/s", rungs);
    report.e2e("peak_rss_mb", rss_mb, "MiB", 1);
    report_sim_quality(median_quality(quality), report);
    return;
  }

  // Traced run: alternate untraced and traced fixed-rate phases.
  std::vector<RunResult> untraced;
  std::vector<double> untraced_host;
  std::vector<double> traced_host;
  std::shared_ptr<mapa::obs::Observer> first_obs;
  RunResult first_traced;
  double last_s = 0.0;
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = seconds_between(run_start, Clock::now());
    if (!untraced.empty() && !traced_host.empty() &&
        elapsed + last_s > o.seconds) {
      break;
    }
    const auto r0 = Clock::now();
    if (rep % 2 == 0) {
      RunResult pr = fixed_phase(nullptr);
      untraced_host.push_back(host_us(pr));
      if (untraced.empty()) untraced.push_back(std::move(pr));
    } else {
      mapa::obs::ObsConfig config;
      config.tracing = true;
      config.trace_max_events = std::size_t{1} << 24;
      auto obs = std::make_shared<mapa::obs::Observer>(config);
      RunResult pr = fixed_phase(obs);
      traced_host.push_back(host_us(pr));
      if (!first_obs) {
        first_obs = obs;
        first_traced = std::move(pr);
      }
    }
    last_s = seconds_between(r0, Clock::now());
  }
  const RunResult& fixed = untraced.front();
  const double requests =
      static_cast<double>(std::max<std::size_t>(fixed.sent, 1));
  report.layer("svc.encode_ns_per_req", median(encode_ns), "ns/req",
               encode_ns.size());
  report.layer("svc.decode_reply_ns",
               fixed.decode_s * 1e9 /
                   static_cast<double>(std::max<std::size_t>(fixed.replies, 1)),
               "ns/reply", fixed.replies);
  report.layer("svc.ingest_us_per_req", fixed.ingest_s * 1e6 / requests,
               "us/req", fixed.sent);
  report.layer("svc.poll_us_per_req", fixed.poll_s * 1e6 / requests, "us/req",
               fixed.sent);
  report.layer("svc.poll_p99_us", percentile(fixed.poll_us, 0.99), "us",
               fixed.poll_us.size());
  report.layer("svc.requests_per_poll",
               requests / static_cast<double>(
                              std::max<std::size_t>(fixed.poll_us.size(), 1)),
               "req/poll", fixed.poll_us.size());
  report.layer("svc.admit_wait_p99_us", percentile(fixed.admit_us, 0.99),
               "us", fixed.admit_us.size());
  report.layer("svc.queue_full_rejects", static_cast<double>(fixed.queue_full),
               "count", fixed.sent);
  report.layer("svc.decode_errors", static_cast<double>(fixed.decode_errors),
               "count", fixed.sent);
  report.layer("gen.late_p99_ms", percentile(fixed.late_ms, 0.99), "ms",
               fixed.late_ms.size());
  report.layer("gen.late_max_ms",
               fixed.late_ms.empty()
                   ? 0.0
                   : *std::max_element(fixed.late_ms.begin(),
                                       fixed.late_ms.end()),
               "ms", fixed.late_ms.size());

  report.layer("cluster.ticks", static_cast<double>(fixed.ticks), "count", 1);
  std::uint64_t probes = 0;
  for (const cl::ServerResult& sr : fixed.result.servers) probes += sr.probes;
  report.layer("cluster.probes_per_job",
               static_cast<double>(probes) /
                   static_cast<double>(std::max<std::size_t>(fixed.placed, 1)),
               "probes/job", probes);

  const mapa::obs::TraceSink& sink = *first_obs->trace();
  const Ledger ledger = build_ledger(sink);
  report_trace_layers(ledger, first_traced.placed, report);
  report.layer("obs.trace_overhead_pct",
               (median(traced_host) / median(untraced_host) - 1.0) * 100.0,
               "%", traced_host.size() + untraced_host.size());
  report.layer("obs.trace_events", static_cast<double>(ledger.events),
               "count", 1);
  report.layer("obs.trace_dropped", static_cast<double>(sink.dropped()),
               "count", 1);
  // poll() also drains admission and harvests replies outside any span.
  report.layer("obs.dispatcher_span_coverage",
               first_traced.poll_s > 0.0
                   ? ledger.dispatcher_self_us / (first_traced.poll_s * 1e6)
                   : 0.0,
               "ratio", 1);
  report.check(sink.dropped() == 0, "trace dropped events");
}

}  // namespace perfbench
