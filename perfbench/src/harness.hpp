#pragma once
// The benchmark's own bookkeeping, kept free of any simulator code so the
// self-test can pin it: percentile selection under the "at least ten
// samples beyond it" rule, benchmark-owned spans and the self time derived
// from them, determinism-witness comparison, and the failed-op ledger.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Host clocks. Wall time is steady_clock; CPU time is the whole process
// (every lane of every pool).
[[nodiscard]] double wall_s();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Percentiles

// A timing percentile is only reported when at least this many samples lie
// strictly beyond it.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;       // samples
  std::size_t beyond = 0;  // samples ranked after the chosen one
  [[nodiscard]] bool supported() const { return beyond >= kMinBeyond; }
};

// Nearest-rank percentile: the ceil(q * n)-th smallest sample.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

// Smallest sample count at which percentile q has kMinBeyond samples
// beyond it.
[[nodiscard]] std::size_t min_samples_for(double q);

// The highest of `levels` the sample count supports (0 when none does).
[[nodiscard]] double highest_supported(std::size_t n,
                                       const std::vector<double>& levels);

// ---------------------------------------------------------------------------
// Spans

// Benchmark-owned spans around each call into a layer: name, start, end,
// parent, and the id of the step / firing / tick they belong to. Kept in
// memory and written out at exit. A disabled log records nothing and costs
// one branch per call.
class SpanLog {
 public:
  struct Span {
    int name = 0;     // interned name
    int parent = -1;  // index into spans(), -1 = root
    std::uint64_t op = 0;
    double start = 0.0;
    double end = 0.0;
    bool reported = false;  // duration read from the program, not timed
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Open a span as a child of the innermost open one. Returns its index
  // (-1 when disabled).
  int open(const std::string& name, std::uint64_t op);
  void close(int idx);

  // A child of `parent` whose duration the program measured itself. It is
  // placed at the parent's start, since only its length is known.
  void add_reported(int parent, const std::string& name, double seconds);

  // A span with explicit times (program-reported children, tests).
  int add(const std::string& name, int parent, std::uint64_t op, double start,
          double end);

  // RAII helper around open/close.
  class Scope {
   public:
    Scope(SpanLog& log, const std::string& name, std::uint64_t op)
        : log_(log), idx_(log.open(name, op)) {}
    ~Scope() { log_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return idx_; }

   private:
    SpanLog& log_;
    int idx_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Self time per span: its duration minus the union of its children's
  // intervals, clipped to its own.
  [[nodiscard]] std::vector<double> self_times() const;
  // Self time summed per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_by_name() const;

  // One JSON object per line: name, op, parent, start_s, end_s, reported.
  bool write_jsonl(const std::string& path) const;

 private:
  int intern(const std::string& name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Determinism witness

// Ordered (key, value) pairs describing a workload's simulated output at a
// fixed amount of work, so it does not depend on host speed.
struct Witness {
  std::vector<std::pair<std::string, std::string>> fields;
  void add(const std::string& key, const std::string& value) {
    fields.emplace_back(key, value);
  }
};

// Pinned witnesses, one per (workload, seed), read from a text file of
// "workload seed key value" lines ('#' starts a comment).
using PinnedWitnesses =
    std::map<std::pair<std::string, std::uint64_t>, Witness>;
[[nodiscard]] bool load_witnesses(const std::string& path,
                                  PinnedWitnesses& out, std::string& error);

// Keys whose value differs from, or is missing against, the pinned
// witness. Extra keys in `actual` are not mismatches.
[[nodiscard]] std::vector<std::string> witness_mismatches(
    const Witness& pinned, const Witness& actual);

[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] std::string double_bits(double v);

// ---------------------------------------------------------------------------
// Failed-op accounting

// Counts attempted and failed operations. A failure carries a reason so the
// report can say what went wrong; reasons are tallied, not listed per op.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& reason, std::uint64_t n = 1);
  // One attempted op that succeeded iff `ok`.
  void op(bool ok, const std::string& reason_if_failed);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_fraction() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& reasons() const {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Full-precision JSON number (non-finite values become null).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(bool correct, const Ledger& ledger,
                                      const std::vector<Metric>& metrics);

// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
