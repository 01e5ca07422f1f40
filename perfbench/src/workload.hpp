#pragma once
// One benchmark workload: a program built from generated inputs, driven
// through the simulator's public APIs.
//
// Every workload measures the same end-to-end quantities, each in its own
// terms: a work rate, a per-operation latency, and its set-up time. Layer
// counters are read over a fixed prefix of operations after set-up (the
// witness prefix), so they depend only on the seed and compare exactly
// between two builds of the program.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flowsim/scan.hpp"
#include "harness.hpp"

namespace perfbench {

// What one measurement pass produced.
struct Pass {
  std::uint64_t ops = 0;      // operations completed in timed regions
  double timed_s = 0.0;       // wall time inside the timed regions
  double cpu_s = 0.0;         // process CPU inside the timed regions
  double work = 0.0;          // numerator of the work rate
  std::vector<double> op_ms;  // latency samples
  // Process CPU over wall across the parallel sections (planner firings or
  // fleet ticks); 1.0 means the pool never engaged.
  double par_cpu_s = 0.0;
  double par_wall_s = 0.0;
  // The work rate of each complete segment (a testbed cycle, a campus or
  // fleet episode): segments have identical structure, so their median is
  // the rate, robust to a burst of host noise. The open segment accumulates
  // work and the rate's time base until close_segment().
  std::vector<double> segment_rates;
  double seg_work = 0.0;
  double seg_time = 0.0;
  void close_segment() {
    if (seg_time > 0.0) segment_rates.push_back(seg_work / seg_time);
    seg_work = 0.0;
    seg_time = 0.0;
  }
};

// Stopping rule for a pass: run until both `seconds` of timed work and
// `min_samples` latency samples and `min_ops` operations are reached, or
// until `max_wall_s` of wall time has passed.
struct StopRule {
  double seconds = 0.0;
  std::size_t min_samples = 0;
  std::uint64_t min_ops = 0;
  double max_wall_s = 120.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Build the program afresh and run its first cold pass. Input generation
  // stays outside `seconds`; `fingerprint` digests the pass's simulated
  // result, and repetitions must agree on it.
  struct Setup {
    double seconds = 0.0;
    std::string fingerprint;
  };
  virtual Setup setup() = 0;

  // Continue from the state set-up left, until `stop` says so.
  virtual Pass measure(const StopRule& stop, SpanLog& spans,
                       Ledger& ledger) = 0;

  // Operations in the witness prefix, and the witness once reached.
  [[nodiscard]] virtual std::uint64_t prefix_ops() const = 0;
  [[nodiscard]] virtual const Witness& witness() const = 0;

  // Layer metrics over the witness prefix: the program's counters plus
  // the self time of each span name (seconds), as the traced pass of that
  // prefix recorded them.
  [[nodiscard]] virtual std::map<std::string, double> layer_metrics(
      const std::map<std::string, double>& self_s) const = 0;

  // The work rate divides by process CPU time instead of wall time.
  [[nodiscard]] virtual bool rate_per_cpu_second() const { return false; }
  // This workload's own names for the work rate and the latency.
  [[nodiscard]] virtual std::string rate_name() const = 0;
  [[nodiscard]] virtual std::string latency_name() const = 0;
  // Run context: lanes and anything else a reader needs.
  [[nodiscard]] virtual int lanes() const { return 1; }
};

[[nodiscard]] std::unique_ptr<Workload> make_testbed_fig16(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_campus_day(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed,
                                                         int lanes);

// FNV-1a over every (AP, band, channel number, width) of a plan.
[[nodiscard]] inline std::uint64_t plan_hash(const w11::ChannelPlan& plan) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [id, ch] : plan) {
    mix(id.value());
    mix(static_cast<std::uint64_t>(ch.band));
    mix(static_cast<std::uint64_t>(ch.number));
    mix(static_cast<std::uint64_t>(ch.width));
  }
  return h;
}

// Independent streams of one benchmark seed (SplitMix64 finalizer).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t x =
      seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
