// Self-test of the benchmark's own logic: percentile choice under the
// "ten samples beyond" rule, self time from nested spans, witness
// comparison, and failed-op accounting. Exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  using perfbench::percentile;
  // p90 of 1..100 is the 90th value, with exactly ten samples beyond it.
  const perfbench::Percentile p90 = percentile(one_to(100), 0.90);
  CHECK(near(p90.value, 90.0));
  CHECK(p90.n == 100 && p90.beyond == 10 && p90.supported());
  // One sample fewer and p90 no longer has ten beyond it.
  CHECK(!percentile(one_to(99), 0.90).supported());
  const perfbench::Percentile p50 = percentile(one_to(20), 0.50);
  CHECK(near(p50.value, 10.0) && p50.beyond == 10 && p50.supported());
  CHECK(!percentile(one_to(19), 0.50).supported());
  CHECK(percentile({}, 0.5).n == 0 && !percentile({}, 0.5).supported());

  CHECK(perfbench::min_samples_for(0.50) == 20);
  CHECK(perfbench::min_samples_for(0.90) == 100);
  CHECK(perfbench::min_samples_for(0.99) == 1000);

  const std::vector<double> levels = {0.5, 0.75, 0.9, 0.99};
  CHECK(near(perfbench::highest_supported(100, levels), 0.9));
  CHECK(near(perfbench::highest_supported(40, levels), 0.75));
  CHECK(near(perfbench::highest_supported(999, levels), 0.9));
  CHECK(near(perfbench::highest_supported(1000, levels), 0.99));
  CHECK(near(perfbench::highest_supported(5, levels), 0.0));

  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5));
}

void test_self_time() {
  perfbench::SpanLog log(true);
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,7].
  const int root = log.add("root", -1, 7, 0.0, 10.0);
  const int a = log.add("a", root, 7, 1.0, 4.0);
  log.add("a1", a, 7, 2.0, 3.0);
  log.add("b", root, 7, 5.0, 7.0);
  std::vector<double> self = log.self_times();
  CHECK(near(self[0], 5.0));  // 10 - (3 + 2)
  CHECK(near(self[1], 2.0));  // 3 - 1
  CHECK(near(self[2], 1.0));
  CHECK(near(self[3], 2.0));
  // Properly nested spans account for the root's whole duration.
  double sum = 0.0;
  for (const double s : self) sum += s;
  CHECK(near(sum, 10.0));

  // Overlapping children count once; a child running past its parent is
  // clipped to the parent.
  perfbench::SpanLog ov(true);
  const int p = ov.add("p", -1, 1, 0.0, 10.0);
  ov.add("c", p, 1, 1.0, 4.0);
  ov.add("c", p, 1, 3.0, 6.0);
  ov.add("c", p, 1, 9.0, 12.0);
  self = ov.self_times();
  CHECK(near(self[0], 10.0 - 5.0 - 1.0));
  CHECK(near(ov.self_by_name()["c"], 3.0 + 3.0 + 3.0));

  // A program-reported child sits at its parent's start.
  perfbench::SpanLog rep(true);
  const int t = rep.add("tick", -1, 3, 2.0, 5.0);
  rep.add_reported(t, "ingest", 0.5);
  CHECK(rep.spans().size() == 2 && rep.spans()[1].reported);
  CHECK(near(rep.spans()[1].start, 2.0) && near(rep.spans()[1].end, 2.5));
  CHECK(near(rep.self_by_name()["tick"], 2.5));

  // Timed spans nest by open/close order; a disabled log records nothing.
  perfbench::SpanLog live(true);
  {
    perfbench::SpanLog::Scope outer(live, "outer", 1);
    perfbench::SpanLog::Scope inner(live, "inner", 1);
  }
  CHECK(live.spans().size() == 2 && live.spans()[1].parent == 0);
  CHECK(live.spans()[0].end >= live.spans()[1].end);
  perfbench::SpanLog off(false);
  { perfbench::SpanLog::Scope s(off, "x", 1); }
  off.add_reported(-1, "y", 1.0);
  CHECK(off.spans().empty());
}

void test_witness() {
  perfbench::Witness pinned;
  pinned.add("digest", "0x01");
  pinned.add("plan", "0x02");
  perfbench::Witness same = pinned;
  same.add("extra", "ignored");
  CHECK(perfbench::witness_mismatches(pinned, same).empty());

  perfbench::Witness differs;
  differs.add("digest", "0x01");
  differs.add("plan", "0x03");
  CHECK(perfbench::witness_mismatches(pinned, differs) ==
        std::vector<std::string>{"plan"});

  perfbench::Witness missing;
  missing.add("plan", "0x02");
  CHECK(perfbench::witness_mismatches(pinned, missing) ==
        std::vector<std::string>{"digest"});
  const perfbench::Witness empty;
  CHECK(perfbench::witness_mismatches(pinned, empty).size() == 2);

  const std::string path = "perfbench_selftest_witness.txt";
  {
    std::ofstream os(path);
    os << "# comment\n\nfleet_churn 1 plan_digest 0xabc  # trailing\n"
       << "fleet_churn 1 fleet_aps 10200\ncampus_day 2 switches 17\n";
  }
  perfbench::PinnedWitnesses w;
  std::string error;
  CHECK(perfbench::load_witnesses(path, w, error));
  CHECK(w.size() == 2);
  CHECK((w[{"fleet_churn", 1}].fields.size() == 2));
  CHECK((w[{"fleet_churn", 1}].fields[0].second == "0xabc"));
  {
    std::ofstream os(path);
    os << "fleet_churn 1 only_a_key\n";
  }
  perfbench::PinnedWitnesses bad;
  CHECK(!perfbench::load_witnesses(path, bad, error) && !error.empty());
  std::remove(path.c_str());
  CHECK(!perfbench::load_witnesses(path, bad, error));

  CHECK(perfbench::hex64(0xabcULL) == "0x0000000000000abc");
  CHECK(perfbench::double_bits(1.0) == "0x3ff0000000000000");
}

void test_ledger() {
  perfbench::Ledger l;
  CHECK(near(l.failed_fraction(), 1.0));  // nothing attempted is no success
  l.op(true, "never");
  l.op(false, "witness mismatch");
  l.attempt(6);
  l.fail("job deferred", 2);
  l.fail("job deferred", 0);
  CHECK(l.attempted() == 8 && l.failed() == 3);
  CHECK(near(l.failed_fraction(), 3.0 / 8.0));
  CHECK(l.reasons().size() == 2 && l.reasons().at("job deferred") == 2);
  CHECK(l.reasons().count("never") == 0);

  const std::string line =
      perfbench::result_line(false, l, {{"work_rate", 0.1, "work/s"}});
  CHECK(line ==
        "{\"correct\": false, \"attempted\": 8, \"failed\": 3, \"metrics\": "
        "{\"work_rate\": {\"value\": 0.10000000000000001, \"unit\": "
        "\"work/s\"}}}");
  CHECK(perfbench::json_number(std::nan("")) == "null");
  CHECK(perfbench::json_string("a\"b\\") == "\"a\\\"b\\\\\"");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_witness();
  test_ledger();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
