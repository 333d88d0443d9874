// Self-tests of the benchmark harness: percentile and sample-count math,
// seed determinism of the operation sequence, and the oracle's rejection of
// a wrong answer. Exits non-zero on the first failing check.
//
//   python3 perfbench/run.py --selftest

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "workloads.h"

namespace tman::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    failures++;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; i--) v.push_back(i);  // unsorted on purpose
  Expect(Near(Percentile(v, 0), 1), "p0 is the minimum");
  Expect(Near(Percentile(v, 100), 100), "p100 is the maximum");
  Expect(Near(Percentile(v, 50), 50.5), "p50 interpolates");
  Expect(Near(Percentile({7}, 99), 7), "single sample");
  Expect(Near(Percentile({}, 50), 0), "empty set");

  Expect(SamplesAbove(1000, 99) == 10, "1000 samples: 10 above p99");
  Expect(SamplesAbove(999, 99) == 9, "999 samples: 9 above p99");
  Expect(SamplesAbove(20, 50) == 10, "20 samples: 10 above p50");
  Expect(SamplesAbove(10, 100) == 0, "nothing above p100");

  double out = -1;
  std::vector<double> thousand(1000, 1.0);
  Expect(TailPercentile(thousand, 99, &out) && Near(out, 1),
         "p99 accepted with 10 samples above");
  std::vector<double> short_run(999, 1.0);
  out = -1;
  Expect(!TailPercentile(short_run, 99, &out) && out == -1,
         "p99 refused with 9 samples above");
  Expect(!TailPercentile(std::vector<double>(19, 1.0), 50, &out),
         "p50 refused with 9 samples above");
}

void TestSeedDeterminism() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec w;
    Expect(FindWorkload(name, &w), "workload " + name + " exists");
    // A small dataset keeps the test fast; the sequence logic is the same.
    w.trajectories = 400;
    w.loaded = w.loaded == 20000 ? 400 : 200;
    const auto data_a = GenerateData(w, 7);
    const auto data_b = GenerateData(w, 7);
    const auto ops_a = GenerateOps(w, data_a, 7, 300);
    const auto ops_b = GenerateOps(w, data_b, 7, 300);
    bool same = ops_a.size() == ops_b.size();
    for (size_t i = 0; same && i < ops_a.size(); i++) {
      const Op& a = ops_a[i];
      const Op& b = ops_b[i];
      same = a.type == b.type && a.ts == b.ts && a.te == b.te &&
             a.rect.min_x == b.rect.min_x && a.rect.max_y == b.rect.max_y &&
             a.oid == b.oid && a.query == b.query &&
             a.threshold == b.threshold && a.k == b.k &&
             a.batch_begin == b.batch_begin && a.batch_end == b.batch_end &&
             a.recent == b.recent;
    }
    Expect(same, name + ": same seed gives the same operations");
    const auto ops_c = GenerateOps(w, data_a, 8, 300);
    bool differs = ops_c.size() != ops_a.size();
    for (size_t i = 0; !differs && i < ops_a.size(); i++) {
      differs = ops_a[i].type != ops_c[i].type || ops_a[i].ts != ops_c[i].ts ||
                ops_a[i].query != ops_c[i].query;
    }
    Expect(differs, name + ": another seed gives other operations");

    // Inserts never repeat a trajectory.
    size_t next = w.loaded;
    bool in_order = true;
    for (const Op& op : ops_a) {
      if (op.type != OpType::kInsert) continue;
      in_order = in_order && op.batch_begin == next && op.batch_end > next;
      next = op.batch_end;
    }
    Expect(in_order && next <= w.trajectories,
           name + ": inserts consume the pool once, in order");
  }
}

// The oracle accepts its own answer and rejects it with one id removed or
// one id added, for every query type of every workload.
void TestOracleRejects() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec w;
    FindWorkload(name, &w);
    w.trajectories = 600;
    w.loaded = w.loaded == 20000 ? 600 : 300;
    const auto data = GenerateData(w, 11);
    const Oracle oracle(w, data);
    const auto ops = GenerateOps(w, data, 11, 400);
    size_t checked = 0;
    for (const Op& op : ops) {
      if (!IsRead(op.type)) continue;
      const size_t visible = w.trajectories;
      std::vector<std::string> answer;
      if (op.type == OpType::kTopK) {
        // Rebuild a correct answer: the k nearest ids by exact distance.
        std::vector<std::pair<double, std::string>> all;
        for (size_t i = 0; i < visible; i++) {
          if (i == op.query) continue;
          all.emplace_back(geo::ExactDistance(w.measure, data[op.query].points,
                                              data[i].points),
                           data[i].tid);
        }
        std::sort(all.begin(), all.end());
        for (size_t i = 0; i < op.k && i < all.size(); i++) {
          answer.push_back(all[i].second);
        }
      } else {
        answer = oracle.Expected(op, visible);
      }
      const std::string label = name + " " + OpName(op.type);
      Expect(oracle.Check(op, answer, visible).empty(),
             label + ": correct answer accepted");
      if (!answer.empty()) {
        std::vector<std::string> fewer(answer.begin(), answer.end() - 1);
        Expect(!oracle.Check(op, fewer, visible).empty(),
               label + ": answer with one id removed rejected");
      }
      // Add a stored id the answer does not contain.
      for (size_t i = 0; i < visible; i++) {
        if (std::find(answer.begin(), answer.end(), data[i].tid) !=
                answer.end() ||
            (op.type == OpType::kTopK && i == op.query)) {
          continue;
        }
        std::vector<std::string> more = answer;
        more.push_back(data[i].tid);
        Expect(!oracle.Check(op, more, visible).empty(),
               label + ": answer with one id added rejected");
        break;
      }
      if (++checked >= 24) break;
    }
    Expect(checked > 0, name + ": oracle exercised");
  }
}

}  // namespace
}  // namespace tman::perfbench

int main() {
  tman::perfbench::TestPercentiles();
  tman::perfbench::TestSeedDeterminism();
  tman::perfbench::TestOracleRejects();
  if (tman::perfbench::failures > 0) {
    std::printf("%d self-test check(s) failed\n", tman::perfbench::failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
