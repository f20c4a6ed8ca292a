// `explore`: one analyst, closed loop, read only (§3.2's exploratory
// battery, then confirmatory queries) over a census view several times
// larger than the disk buffer pool.
//
// Every pass issues the same request structure; the seed only picks the
// census sample, the order of requests and the constants of the
// confirmatory queries, so two seeds cost the same work. Some requests
// recur (the scripts run twice, a few terminal statistics and every
// confirmatory query are asked again), so the Summary Database both
// computes and serves. Most requests compute, which keeps the median
// query inside the scan-bound computes rather than on the edge between
// microsecond cache hits and millisecond scans. QueryMany runs with one
// worker (the chunked engine, inline on the caller's thread): with more,
// concurrent chunk reads reorder pool evictions and the simulated disk
// time stops repeating exactly.

#include <algorithm>
#include <random>
#include <sstream>

#include "check/check.h"
#include "harness.h"

namespace statdb::analystbench {
namespace {

constexpr uint64_t kRows = 200000;
constexpr size_t kDiskFrames = 1024;
constexpr size_t kReasks = 4;  // terminal statistics asked twice
constexpr size_t kWorkers = 1;
const char* kView = "v";

const std::vector<std::string> kBattery = {
    "count", "sum",  "mean", "variance", "stddev",   "min",
    "max",   "median", "mode", "distinct", "histogram"};
const std::vector<std::string> kCategoryBattery = {"count", "distinct",
                                                   "mode", "histogram"};
// Typed at a terminal one statistic at a time (the serial query path).
const std::vector<std::string> kTerminalAttrs = {"INCOME", "AGE"};
// Sent by a script as one QueryMany batch (the chunked engine).
const std::vector<std::string> kScriptAttrs = {"HOURS_WORKED",
                                               "HOUSEHOLD_SIZE"};
const std::vector<std::string> kCategoryAttrs = {"SEX", "REGION",
                                                 "EDUCATION"};

enum class StepKind { kSingle, kBatch, kBivariate, kGroupCompare, kFiltered };

struct Step {
  StepKind kind = StepKind::kSingle;
  std::vector<QueryRequest> requests;  // kSingle: one; kBatch: several
  std::string function;                // bivariate / filtered
  std::string attr_a, attr_b;          // bivariate; group: value, category
  int64_t code_a = 0, code_b = 0;      // group compare
  FilterPredicate filter;              // filtered
};

std::string KeyOf(const Step& s, size_t i) {
  switch (s.kind) {
    case StepKind::kSingle:
    case StepKind::kBatch:
      return s.requests[i].function + "(" + s.requests[i].attribute + ")";
    case StepKind::kBivariate:
      return s.function + "(" + s.attr_a + "," + s.attr_b + ")";
    case StepKind::kGroupCompare:
      return "welch(" + s.attr_a + " by " + s.attr_b + ":" +
             std::to_string(s.code_a) + "/" + std::to_string(s.code_b) + ")";
    case StepKind::kFiltered:
      return "filtered " + s.function + "(" + s.attr_a + ")";
  }
  return "";
}

/// One recorded answer of a pass.
struct Answer {
  std::string key;
  StepKind kind;
  AnswerSource source;
  bool compressed_route;  // the call bumped dbms.scan.compressed_domain
  SummaryResult result;
  const Step* step;
  size_t index;
};

class Explore final : public Workload {
 public:
  explicit Explore(uint64_t seed)
      : census_(MakeCensus(kRows, seed, /*sorted=*/true)) {
    std::mt19937_64 rng(seed);
    BuildSteps(&rng);
  }

  std::string Inputs() const override {
    std::ostringstream os;
    os << "rows=" << kRows << " sorted_by_categories=yes disk_pool_frames="
       << kDiskFrames << " view_pages=" << view_pages_
       << " (x" << double(view_pages_) / double(kDiskFrames)
       << " the pool) policy=invalidate threads=1 (QueryMany workers="
       << kWorkers << ", chunked engine inline) requests_per_pass="
       << steps_.size() << " closed_loop";
    return os.str();
  }

  bool Deterministic() const override { return true; }

  PassResult RunPass(bool traced) override;

 private:
  void BuildSteps(std::mt19937_64* rng);
  bool Check(const std::vector<Answer>& answers, StatisticalDbms& dbms,
             Outcomes* outcomes);

  Table census_;
  std::vector<Step> steps_;
  uint64_t view_pages_ = 0;
  /// First pass's answers by key: later passes must repeat them bit for
  /// bit; the first pass checks them against the oracle.
  std::map<std::string, SummaryResult> reference_;
};

void Explore::BuildSteps(std::mt19937_64* rng) {
  std::vector<Step> first;
  for (const std::string& attr : kTerminalAttrs) {
    for (const std::string& fn : kBattery) {
      Step s;
      s.requests = {{fn, attr, {}}};
      first.push_back(s);
    }
  }
  for (const std::string& attr : kCategoryAttrs) {
    for (const std::string& fn : kCategoryBattery) {
      Step s;
      s.requests = {{fn, attr, {}}};
      first.push_back(s);
    }
  }
  std::vector<Step> scripts;
  for (const std::string& attr : kScriptAttrs) {
    Step s;
    s.kind = StepKind::kBatch;
    for (const std::string& fn : kBattery) s.requests.push_back({fn, attr, {}});
    scripts.push_back(s);
  }
  first.insert(first.end(), scripts.begin(), scripts.end());
  std::shuffle(first.begin(), first.end(), *rng);
  steps_ = first;

  // Re-asks: the scripts run again, and the analyst re-types a few of
  // the terminal statistics.
  std::vector<Step> again = scripts;
  std::vector<Step> singles;
  for (const Step& s : first) {
    if (s.kind == StepKind::kSingle) singles.push_back(s);
  }
  std::shuffle(singles.begin(), singles.end(), *rng);
  again.insert(again.end(), singles.begin(), singles.begin() + kReasks);
  std::shuffle(again.begin(), again.end(), *rng);
  steps_.insert(steps_.end(), again.begin(), again.end());

  // Confirmatory phase: each bivariate and group comparison is asked,
  // then asked again; filtered queries are never cached.
  std::vector<Step> confirm;
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"AGE", "INCOME"}, {"HOURS_WORKED", "INCOME"}, {"AGE", "HOURS_WORKED"}};
  for (const auto& [a, b] : pairs) {
    for (const char* fn : {"correlation", "regression"}) {
      Step s;
      s.kind = StepKind::kBivariate;
      s.function = fn;
      s.attr_a = a;
      s.attr_b = b;
      confirm.push_back(s);
    }
  }
  std::uniform_int_distribution<int64_t> region(0, 8), education(0, 5);
  for (const auto& [value, category] :
       std::vector<std::pair<std::string, std::string>>{
           {"INCOME", "SEX"}, {"INCOME", "REGION"},
           {"HOURS_WORKED", "EDUCATION"}}) {
    Step s;
    s.kind = StepKind::kGroupCompare;
    s.attr_a = value;
    s.attr_b = category;
    if (category == "SEX") {
      s.code_a = 0;
      s.code_b = 1;
    } else {
      auto& dist = category == "REGION" ? region : education;
      s.code_a = dist(*rng);
      do {
        s.code_b = dist(*rng);
      } while (s.code_b == s.code_a);
    }
    confirm.push_back(s);
  }
  std::shuffle(confirm.begin(), confirm.end(), *rng);
  std::vector<Step> confirm_again = confirm;
  std::shuffle(confirm_again.begin(), confirm_again.end(), *rng);

  std::vector<Step> filtered;
  std::uniform_real_distribution<double> income_lo(10000, 40000);
  std::uniform_int_distribution<int64_t> age_lo(18, 50), hours_lo(10, 30);
  auto range = [&](const char* fn, const char* attr, Value lo, Value hi) {
    Step s;
    s.kind = StepKind::kFiltered;
    s.function = fn;
    s.attr_a = attr;
    s.filter = FilterPredicate::Range(std::move(lo), std::move(hi));
    filtered.push_back(s);
  };
  const double ilo = income_lo(*rng);
  range("mean", "INCOME", Value::Real(ilo), Value::Real(ilo * 2.5));
  const int64_t alo = age_lo(*rng);
  range("count", "AGE", Value::Int(alo), Value::Int(alo + 20));
  const int64_t hlo = hours_lo(*rng);
  range("variance", "HOURS_WORKED", Value::Real(double(hlo)),
        Value::Real(double(hlo + 30)));
  auto equal = [&](const char* fn, const char* attr, int64_t code) {
    Step s;
    s.kind = StepKind::kFiltered;
    s.function = fn;
    s.attr_a = attr;
    s.filter = FilterPredicate::Equal(Value::Int(code));
    filtered.push_back(s);
  };
  equal("count", "REGION", region(*rng));
  equal("count", "EDUCATION", education(*rng));
  equal("count", "SEX", 1);
  std::shuffle(filtered.begin(), filtered.end(), *rng);

  steps_.insert(steps_.end(), confirm.begin(), confirm.end());
  steps_.insert(steps_.end(), filtered.begin(), filtered.end());
  steps_.insert(steps_.end(), confirm_again.begin(), confirm_again.end());
}

PassResult Explore::RunPass(bool traced) {
  PassResult r;
  Installation inst = MakeInstallation(kDiskFrames, /*faulty_devices=*/false);
  StatisticalDbms dbms(inst.storage.get());

  const Clock::time_point setup_start = Clock::now();
  LoadCensusView(dbms, census_, kView, MaintenancePolicy::kInvalidate);
  r.setup_s = MsSince(setup_start) / 1000.0;
  view_pages_ = inst.disk->page_count();

  CollectingTraceSink sink;
  if (traced) dbms.set_trace_sink(&sink);
  Counter* compressed =
      dbms.metrics().GetCounter("dbms.scan.compressed_domain");
  const std::map<std::string, double> before = ReadCounters(dbms, kView);

  std::vector<Answer> answers;
  answers.reserve(steps_.size() * 2);
  const QueryOptions exact;
  const Clock::time_point loop_start = Clock::now();
  for (const Step& s : steps_) {
    const uint64_t compressed_before = compressed->Get();
    ++r.outcomes.attempted;
    const Clock::time_point t0 = Clock::now();
    Status st;
    std::vector<QueryAnswer> got;
    switch (s.kind) {
      case StepKind::kSingle: {
        const QueryRequest& q = s.requests[0];
        Result<QueryAnswer> a = dbms.Query(kView, q.function, q.attribute,
                                           q.params, exact);
        st = a.status();
        if (a.ok()) got.push_back(std::move(*a));
        break;
      }
      case StepKind::kBatch: {
        Result<std::vector<QueryAnswer>> a =
            dbms.QueryMany(kView, s.requests, exact, kWorkers);
        st = a.status();
        if (a.ok()) got = std::move(*a);
        break;
      }
      case StepKind::kBivariate: {
        Result<QueryAnswer> a =
            dbms.QueryBivariate(kView, s.function, s.attr_a, s.attr_b, exact);
        st = a.status();
        if (a.ok()) got.push_back(std::move(*a));
        break;
      }
      case StepKind::kGroupCompare: {
        Result<QueryAnswer> a = dbms.QueryGroupCompare(
            kView, s.attr_a, s.attr_b, s.code_a, s.code_b, exact);
        st = a.status();
        if (a.ok()) got.push_back(std::move(*a));
        break;
      }
      case StepKind::kFiltered: {
        Result<QueryAnswer> a =
            dbms.QueryFiltered(kView, s.function, s.attr_a, s.filter);
        st = a.status();
        if (a.ok()) got.push_back(std::move(*a));
        break;
      }
    }
    const double ms = MsSince(t0);
    r.call_ms[s.kind == StepKind::kBatch ? "QueryMany" : "Query*"] += ms;
    if (!st.ok()) {
      r.outcomes.Fail(KeyOf(s, 0) + ": " + st.ToString());
      continue;
    }
    r.queries.Add(ms);
    const bool via_compressed = compressed->Get() != compressed_before;
    for (size_t i = 0; i < got.size(); ++i) {
      answers.push_back({KeyOf(s, i), s.kind, got[i].source, via_compressed,
                         std::move(got[i].result), &s, i});
    }
  }
  r.loop_s = MsSince(loop_start) / 1000.0;
  r.counts = CounterDelta(ReadCounters(dbms, kView), before);

  if (traced) {
    Ledger ledger;
    for (const QueryTrace& t : sink.Take()) ledger.Add(t);
    r.span_self_ms = ledger.self_ms();
    r.unattributed_query_ms =
        r.queries.Sum() - (ledger.total_ms() - ledger.unattributed_ms());
    dbms.set_trace_sink(nullptr);
  }
  r.correct = Check(answers, dbms, &r.outcomes);
  return r;
}

/// Every answer must repeat the first pass bit for bit; a re-ask must
/// equal the pass's own computed answer bit for bit; on the first pass,
/// computed univariate and filtered answers must match
/// FunctionRegistry::Compute over the column read back through
/// ReadColumn: bit for bit on the serial materialized route, within the
/// Chan-et-al. tolerance for merged partial states (QueryMany batches,
/// compressed-domain scans, filtered aggregates).
bool Explore::Check(const std::vector<Answer>& answers, StatisticalDbms& dbms,
                    Outcomes* outcomes) {
  const AuditOptions tol;
  bool ok = true;
  auto mismatch = [&](const std::string& what) {
    ok = false;
    outcomes->Fail("wrong answer: " + what);
  };
  std::map<std::string, SummaryResult> seen;
  std::map<std::string, std::vector<double>> columns;
  auto column = [&](const std::string& attr) -> const std::vector<double>& {
    auto it = columns.find(attr);
    if (it == columns.end()) {
      it = columns
               .emplace(attr, NumericCells(Must(dbms.ReadColumn(kView, attr),
                                                "read column " + attr)))
               .first;
    }
    return it->second;
  };
  const FunctionRegistry& registry = dbms.management_db().functions();
  const bool first_pass = reference_.empty();

  for (const Answer& a : answers) {
    if (auto it = seen.find(a.key); it != seen.end()) {
      if (a.kind != StepKind::kFiltered &&
          a.source != AnswerSource::kCacheHit) {
        mismatch(a.key + " re-ask was not served by the Summary Database");
      }
      if (!(it->second == a.result)) mismatch(a.key + " re-ask differs");
      continue;
    }
    seen.emplace(a.key, a.result);
    if (a.source != AnswerSource::kComputed) {
      mismatch(a.key + " first ask was not computed");
    }
    if (!first_pass) {
      auto ref = reference_.find(a.key);
      if (ref == reference_.end() || !(ref->second == a.result)) {
        mismatch(a.key + " differs from the first pass");
      }
      continue;
    }
    reference_[a.key] = a.result;
    if (a.kind == StepKind::kSingle || a.kind == StepKind::kBatch) {
      const QueryRequest& q = a.step->requests[a.index];
      Result<SummaryResult> want =
          registry.Compute(q.function, column(q.attribute), q.params);
      if (!want.ok()) {
        mismatch(a.key + " oracle failed: " + want.status().ToString());
        continue;
      }
      const bool bitwise = a.kind == StepKind::kSingle && !a.compressed_route;
      if (bitwise ? !(*want == a.result)
                  : !SummaryResultsApproxEqual(*want, a.result,
                                               tol.abs_tolerance,
                                               tol.rel_tolerance)) {
        mismatch(a.key + " != oracle " + want->ToString() + " (got " +
                 a.result.ToString() + ")");
      }
    } else if (a.kind == StepKind::kFiltered) {
      const FilterPredicate& f = a.step->filter;
      const std::vector<double>& all = column(a.step->attr_a);
      std::vector<double> kept;
      for (double x : all) {
        const bool keep =
            f.kind == FilterPredicate::Kind::kEqual
                ? x == Must(f.equal.ToDouble(), "filter value")
                : (x >= Must(f.lo.ToDouble(), "filter lo") &&
                   x <= Must(f.hi.ToDouble(), "filter hi"));
        if (keep) kept.push_back(x);
      }
      Result<SummaryResult> want = registry.Compute(a.step->function, kept, {});
      if (!want.ok() ||
          !SummaryResultsApproxEqual(*want, a.result, tol.abs_tolerance,
                                     tol.rel_tolerance)) {
        mismatch(a.key + " != filtered oracle");
      }
    }
  }
  return ok;
}

}  // namespace

std::unique_ptr<Workload> MakeExplore(uint64_t seed) {
  return std::make_unique<Explore>(seed);
}

}  // namespace statdb::analystbench
