// w11_perfbench: the repository benchmark.
//
//   w11_perfbench --workload <testbed_fig16|campus_day|fleet_churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--witness <file>] [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the witness prefix twice from a fresh set-up, once with
// benchmark-owned spans around every call into a layer and once without,
// and reports per-layer metrics plus the tracing overhead. Either way the
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Lines before it are the human-readable report.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 1000;
constexpr double kSetupMinSeconds = 1.0;

// Every per-layer metric, for every workload. A layer a workload does not
// drive reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    // All workloads.
    {"bench.self_ms", "ms"},
    {"exec.cpu_share", "ratio"},
    {"exec.lanes", "count"},
    {"trace.timed_ms", "ms"},
    {"trace.accounted_ms", "ms"},
    {"trace.untraced_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    // testbed_fig16.
    {"scenario.construct_ms", "ms"},
    {"scenario.readout_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.ns_per_event", "ns"},
    {"sim.events", "count"},
    {"sim.traced_events", "count"},
    {"sim.events_per_segment", "ratio"},
    {"net.wire_deliveries", "count"},
    {"net.segments_sent", "count"},
    {"net.retransmits", "count"},
    {"net.wire_drops", "count"},
    {"mac.txops", "count"},
    {"mac.collisions", "count"},
    {"mac.busy_fraction", "fraction"},
    {"mac.ampdu_mean_mpdus", "mpdus"},
    {"wlan.mpdus_acked", "count"},
    {"wlan.mpdus_lost", "count"},
    {"wlan.queue_drops", "count"},
    {"fastack.fast_acks", "count"},
    {"fastack.acks_suppressed", "count"},
    {"fastack.local_retransmits", "count"},
    {"fastack.bypassed_segments", "count"},
    // campus_day.
    {"flowsim.scan_ms", "ms"},
    {"flowsim.scan_calls", "count"},
    {"flowsim.evaluate_ms", "ms"},
    {"flowsim.sample_ms", "ms"},
    {"flowsim.churn_ms", "ms"},
    {"flowsim.samples", "count"},
    {"flowsim.stats_cache_hit_ratio", "ratio"},
    {"turboca.firing_self_ms", "ms"},
    {"turboca.apply_ms", "ms"},
    {"turboca.firings", "count"},
    {"turboca.picks", "count"},
    {"turboca.switches", "count"},
    // fleet_churn.
    {"fleet.tick_self_ms", "ms"},
    {"fleet.offer_ms", "ms"},
    {"fleet.ingest_ms", "ms"},
    {"fleet.plan_cpu_ms", "ms"},
    {"fleet.campus_plan_ms.p50", "ms"},
    {"fleet.campus_plan_ms.p99", "ms"},
    {"fleet.jobs_run", "count"},
    {"fleet.aps_repartitioned", "count"},
    {"fleet.cache_hit_ratio", "ratio"},
    {"fleet.jobs_deferred", "count"},
    {"fleet.epochs_dropped", "count"},
    {"ctrl.commit_us", "us"},
    {"ctrl.plans_committed", "count"},
    {"telemetry.ingest_plan_us", "us"},
    {"telemetry.ingest_scans_ms", "ms"},
    {"telemetry.rows", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string witness = "perfbench/witness.txt";
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (flag == "--trace") a.trace = v != "0";
    else if (flag == "--witness") a.witness = v;
    else if (flag == "--spans-out") a.spans_out = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

void line(const std::string& s) { std::printf("%s\n", s.c_str()); }

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Median set-up time over repetitions, each of which must reproduce the
// same simulated result. Short set-ups repeat until they span a second, so
// the median does not hang on one moment of host noise.
double timed_setup(Workload& w, Ledger& ledger) {
  std::vector<double> secs;
  std::string first;
  double total = 0.0;
  while (static_cast<int>(secs.size()) < kSetupMinReps ||
         (total < kSetupMinSeconds &&
          static_cast<int>(secs.size()) < kSetupMaxReps)) {
    const Workload::Setup s = w.setup();
    secs.push_back(s.seconds);
    total += s.seconds;
    if (secs.size() == 1) first = s.fingerprint;
    ledger.op(s.fingerprint == first, "set-up pass not reproducible");
  }
  line("setup: " + std::to_string(secs.size()) + " reps, median " +
       fmt(median(secs)) + " s, fingerprint " + first);
  return median(secs);
}

void check_witness(const Args& a, const Workload& w,
                   const PinnedWitnesses& pinned, Ledger& ledger) {
  for (const auto& [key, value] : w.witness().fields)
    line("witness: " + a.workload + " " + std::to_string(a.seed) + " " + key +
         " " + value);
  const auto it = pinned.find({a.workload, a.seed});
  if (it == pinned.end()) {
    ledger.op(!w.witness().fields.empty(), "witness prefix not reached");
    line("witness: no pinned witness for seed " + std::to_string(a.seed) +
         "; printed for diffing");
    return;
  }
  const std::vector<std::string> bad =
      witness_mismatches(it->second, w.witness());
  for (const std::string& k : bad) line("witness MISMATCH: " + k);
  ledger.op(bad.empty(), "witness mismatch");
  if (bad.empty()) line("witness: matches the pinned witness");
}

double cpu_share(const Pass& p) {
  return p.par_wall_s > 0.0 ? p.par_cpu_s / p.par_wall_s : 0.0;
}

void context_line(const Args& a, const Workload& w, const Pass& p) {
  line("context: workload=" + a.workload + " seed=" + std::to_string(a.seed) +
       " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
       " lanes=" + std::to_string(w.lanes()) + " build=" + build_type() +
       " exec.cpu_share=" + fmt(cpu_share(p)));
}

std::vector<Metric> end_to_end(const Workload& w, const Pass& p,
                               double setup_s, const Ledger& ledger) {
  const double denom = w.rate_per_cpu_second() ? p.cpu_s : p.timed_s;
  const double mean_rate = denom > 0.0 ? p.work / denom : 0.0;
  const double rate =
      p.segment_rates.empty() ? mean_rate : median(p.segment_rates);
  const Percentile p50 = percentile(p.op_ms, 0.50);
  const Percentile p90 = percentile(p.op_ms, 0.90);
  line(w.rate_name() + " = " + fmt(rate) + " (median of " +
       std::to_string(p.segment_rates.size()) + " segments; overall " +
       fmt(mean_rate) + " over " + std::to_string(p.ops) + " ops in " +
       fmt(p.timed_s) + " s timed, " + fmt(p.cpu_s) + " s CPU)");
  const double top = highest_supported(p.op_ms.size(), {0.5, 0.9, 0.99, 0.999});
  for (const Percentile& q : {p50, p90, percentile(p.op_ms, top)})
    line(w.latency_name() + ".p" + fmt(q.q * 100) + " = " + fmt(q.value) +
         " ms (n=" + std::to_string(q.n) + ", beyond=" +
         std::to_string(q.beyond) +
         (q.supported() ? ")" : ", UNSUPPORTED: fewer than 10 beyond)"));
  line("failed_fraction = " + fmt(ledger.failed_fraction()) + " (" +
       std::to_string(ledger.failed()) + " of " +
       std::to_string(ledger.attempted()) + ")");
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_fraction", 1.0 - ledger.failed_fraction(), "fraction"},
      {"work_rate", rate, "work/s"},
      {"op_ms.p50", p50.value, "ms"},
      {"op_ms.p90", p90.value, "ms"},
  };
}

// `v` holds the workload's layer metrics, read right after the traced pass.
std::vector<Metric> per_layer(std::map<std::string, double> v,
                              const Workload& w, const SpanLog& spans,
                              const Pass& traced, const Pass& untraced,
                              Ledger& ledger) {
  const std::vector<double> self = spans.self_times();
  double root_self = 0.0;
  double accounted = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    accounted += self[i];
    if (spans.spans()[i].parent < 0) root_self += self[i];
  }
  v["bench.self_ms"] = 1e3 * root_self;
  v["exec.cpu_share"] = cpu_share(traced);
  v["exec.lanes"] = w.lanes();
  v["trace.timed_ms"] = 1e3 * traced.timed_s;
  v["trace.accounted_ms"] = 1e3 * accounted;
  v["trace.untraced_ms"] = 1e3 * untraced.timed_s;
  v["trace.overhead_ms"] = 1e3 * (traced.timed_s - untraced.timed_s);
  v["trace.overhead_pct"] =
      untraced.timed_s > 0.0
          ? 100.0 * (traced.timed_s - untraced.timed_s) / untraced.timed_s
          : 0.0;
  v["trace.spans"] = static_cast<double>(spans.spans().size());

  line("per-layer self time over the witness prefix (" +
       std::to_string(traced.ops) + " ops):");
  for (const auto& [name, secs] : spans.self_by_name())
    line("  self " + name + " = " + fmt(1e3 * secs) + " ms");
  line("  accounted " + fmt(1e3 * accounted) + " ms of " +
       fmt(1e3 * traced.timed_s) + " ms timed; tracing overhead " +
       fmt(v["trace.overhead_ms"]) + " ms (" + fmt(v["trace.overhead_pct"]) +
       "%) against " + fmt(1e3 * untraced.timed_s) + " ms untraced");

  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = v.find(m.name);
    out.push_back({m.name, it == v.end() ? 0.0 : it->second, m.unit});
    v.erase(m.name);
  }
  for (const auto& [name, value] : v) {
    line("per-layer metric " + name + " is not declared");
    ledger.fail("undeclared per-layer metric");
  }
  return out;
}

std::unique_ptr<Workload> make(const Args& a) {
  // The fleet pool gets half the cores. With every core in use, a core the
  // host takes away stalls a lane and the tick waits for it: on 4 vCPUs
  // tick p50 spread ±10% at 4 lanes against ±1% at 2.
  const int lanes =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  if (a.workload == "testbed_fig16") return make_testbed_fig16(a.seed);
  if (a.workload == "campus_day") return make_campus_day(a.seed);
  if (a.workload == "fleet_churn") return make_fleet_churn(a.seed, lanes);
  return nullptr;
}

int run(const Args& a) {
  PinnedWitnesses pinned;
  std::string error;
  if (!load_witnesses(a.witness, pinned, error)) {
    std::fprintf(stderr, "w11_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> w = make(a);
  if (!w) {
    std::fprintf(stderr, "w11_perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }

  Ledger ledger;
  std::vector<Metric> metrics;
  try {
    const double setup_s = timed_setup(*w, ledger);
    // One untimed pass over the witness prefix first, so the allocator and
    // the program's caches reach the state every later pass starts from;
    // cold start is what setup_s measures. Every pass must reproduce it.
    SpanLog off(false);
    StopRule prefix;
    prefix.min_ops = w->prefix_ops();
    (void)w->measure(prefix, off, ledger);
    const Witness warm_witness = w->witness();
    const auto same_as_warm = [&] {
      ledger.op(!warm_witness.fields.empty() &&
                    witness_mismatches(warm_witness, w->witness()).empty(),
                "witness differs between passes over the same inputs");
    };
    (void)w->setup();
    if (!a.trace) {
      StopRule stop = prefix;
      stop.seconds = a.seconds;
      stop.min_samples = min_samples_for(0.90);
      const Pass pass = w->measure(stop, off, ledger);
      context_line(a, *w, pass);
      check_witness(a, *w, pinned, ledger);
      same_as_warm();
      metrics = end_to_end(*w, pass, setup_s, ledger);
    } else {
      SpanLog spans(true);
      const Pass traced = w->measure(prefix, spans, ledger);
      const std::map<std::string, double> layers =
          w->layer_metrics(spans.self_by_name());
      check_witness(a, *w, pinned, ledger);
      same_as_warm();
      (void)w->setup();
      const Pass untraced = w->measure(prefix, off, ledger);
      same_as_warm();
      context_line(a, *w, traced);
      metrics = per_layer(layers, *w, spans, traced, untraced, ledger);
      if (!a.spans_out.empty() && !spans.write_jsonl(a.spans_out))
        line("could not write spans to " + a.spans_out);
    }
  } catch (const std::exception& e) {
    line(std::string("exception: ") + e.what());
    ledger.fail("exception");
  }
  for (const auto& [reason, n] : ledger.reasons())
    line("FAILED " + std::to_string(n) + "x: " + reason);
  if (metrics.empty()) return 1;  // nothing measured
  line(result_line(ledger.failed() == 0, ledger, metrics));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: w11_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--witness <file>] "
                 "[--spans-out <file>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "w11_perfbench: refusing to measure an unoptimized build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#else
  return perfbench::run(args);
#endif
}
