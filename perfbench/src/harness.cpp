#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

namespace {

// 1-based nearest rank ceil(q * n), robust to q * n landing a hair above an
// integer in floating point (0.9 * 100 must rank 90, not 91).
std::size_t nearest_rank(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (samples.empty()) return p;
  const std::size_t rank = nearest_rank(q, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n - nearest_rank(q, n) < kMinBeyond) ++n;
  return n;
}

double highest_supported(std::size_t n, const std::vector<double>& levels) {
  double best = 0.0;
  for (const double q : levels)
    if (n > 0 && n - nearest_rank(q, n) >= kMinBeyond) best = std::max(best, q);
  return best;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------

int SpanLog::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

int SpanLog::open(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  s.start = wall_s();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end = wall_s();
  // Spans close innermost-first; tolerate a caller closing out of order by
  // popping everything above the closed one.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == idx) break;
  }
}

void SpanLog::add_reported(int parent, const std::string& name,
                           double seconds) {
  if (!enabled_ || parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  const int idx = add(name, parent, p.op, p.start, p.start + seconds);
  spans_[static_cast<std::size_t>(idx)].reported = true;
}

int SpanLog::add(const std::string& name, int parent, std::uint64_t op,
                 double start, double end) {
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.op = op;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of child intervals clipped to [start, end].
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open_run = false;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start);
      const double hi = std::min(hi0, s.end);
      if (hi <= lo) continue;
      if (open_run && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open_run) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open_run = true;
      }
    }
    if (open_run) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::map<std::string, double> SpanLog::self_by_name() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[names_[static_cast<std::size_t>(spans_[i].name)]] += self[i];
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":" << json_string(names_[static_cast<std::size_t>(s.name)])
       << ",\"op\":" << s.op << ",\"parent\":" << s.parent
       << ",\"start_s\":" << json_number(s.start)
       << ",\"end_s\":" << json_number(s.end)
       << ",\"reported\":" << (s.reported ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------

bool load_witnesses(const std::string& path, PinnedWitnesses& out,
                    std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string key;
    std::string value;
    if (!(ls >> workload)) continue;  // blank or comment
    if (!(ls >> seed >> key >> value)) {
      error = path + ":" + std::to_string(lineno) +
              ": expected 'workload seed key value'";
      return false;
    }
    out[{workload, seed}].add(key, value);
  }
  return true;
}

std::vector<std::string> witness_mismatches(const Witness& pinned,
                                            const Witness& actual) {
  std::map<std::string, std::string> got(actual.fields.begin(),
                                         actual.fields.end());
  std::vector<std::string> bad;
  for (const auto& [key, value] : pinned.fields) {
    const auto it = got.find(key);
    if (it == got.end() || it->second != value) bad.push_back(key);
  }
  return bad;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

std::string double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return hex64(bits);
}

// ---------------------------------------------------------------------------

void Ledger::fail(const std::string& reason, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  reasons_[reason] += n;
}

void Ledger::op(bool ok, const std::string& reason_if_failed) {
  attempt();
  if (!ok) fail(reason_if_failed);
}

double Ledger::failed_fraction() const {
  return attempted_ == 0 ? 1.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, const Ledger& ledger,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted()
     << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
