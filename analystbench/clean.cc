// `clean`: one analyst, closed loop, durability on (WAL force-at-commit,
// the only flush policy), cleaning a view that fits in the disk pool
// (§3.1, §4.2-4.3). The full battery is cached on INCOME and
// HOURS_WORKED under kIncremental, so every update that touches them
// drives the maintainers, the delta buffer and the WAL; exact queries
// between updates force delta flushes. One Rollback, one FlushDeltas
// barrier and a derived-column regeneration follow, and the pass ends
// with a power cut on disk and WAL and a Recover.
//
// `mode` stays cached on INCOME on purpose: its incremental maintainer
// is the known slow case of the write path and must show in the update
// tail, not be sized away.

#include <algorithm>
#include <random>
#include <sstream>

#include "check/db_auditor.h"
#include "fault/fault.h"
#include "harness.h"

namespace statdb::analystbench {
namespace {

constexpr uint64_t kRows = 20000;
constexpr size_t kDiskFrames = 4096;
constexpr int kUpdates = 20;
constexpr int kQueryEvery = 3;  // exact queries after every 3rd update
const char* kView = "v";

const std::vector<std::string> kBattery = {
    "count", "sum",  "mean", "variance", "stddev",   "min",
    "max",   "median", "mode", "distinct", "histogram"};
const std::vector<std::string> kCachedAttrs = {"INCOME", "HOURS_WORKED"};
const std::vector<std::pair<std::string, std::string>> kProbes = {
    {"mean", "INCOME"}, {"median", "HOURS_WORKED"}, {"mode", "INCOME"}};

/// The seed picks which two-year age slice (and sex) each update touches; the
/// shape of the stream is fixed, so every seed changes about the same
/// number of cells per update (hundreds).
std::vector<UpdateSpec> MakeUpdates(std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> age(16, 65), sex(0, 1);
  std::vector<UpdateSpec> out;
  for (int k = 0; k < kUpdates; ++k) {
    UpdateSpec s;
    const int64_t a = age(*rng);
    const ExprPtr ages =
        And(Ge(Col("AGE"), Lit(a)), Le(Col("AGE"), Lit(a + 1)));
    switch (k % 5) {
      case 0:  // re-code incomes of one age slice (a unit correction)
        s.predicate = ages;
        s.column = "INCOME";
        s.value = Mul(Col("INCOME"), Lit(1.02));
        s.description = "rescale INCOME of one age";
        break;
      case 1:  // cap implausible working hours
        s.predicate = And(ages, Gt(Col("HOURS_WORKED"), Lit(40.0)));
        s.column = "HOURS_WORKED";
        s.value = Lit(40.0);
        s.description = "cap HOURS_WORKED";
        break;
      case 2:  // raise implausibly low working hours
        s.predicate = And(ages, Lt(Col("HOURS_WORKED"), Lit(20.0)));
        s.column = "HOURS_WORKED";
        s.value = Lit(20.0);
        s.description = "floor HOURS_WORKED";
        break;
      case 3:  // an attribute with nothing cached
        s.predicate = ages;
        s.column = "HOUSEHOLD_SIZE";
        s.value = Add(Col("HOUSEHOLD_SIZE"), Lit(int64_t{1}));
        s.description = "recount households";
        break;
      default:  // mark suspicious incomes missing (§3.1)
        s.predicate = And(ages, Eq(Col("SEX"), Lit(sex(*rng))));
        s.column = "INCOME";
        s.value = nullptr;
        s.description = "mark INCOME missing";
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

class Clean final : public Workload {
 public:
  explicit Clean(uint64_t seed)
      : census_(MakeCensus(kRows, seed, /*sorted=*/false)) {
    std::mt19937_64 rng(seed);
    updates_ = MakeUpdates(&rng);
  }

  std::string Inputs() const override {
    std::ostringstream os;
    os << "rows=" << kRows << " sorted_by_categories=no disk_pool_frames="
       << kDiskFrames << " view_pages=" << view_pages_ << " (x"
       << double(view_pages_) / double(kDiskFrames)
       << " the pool) policy=incremental durability=wal_force_at_commit"
       << " updates_per_pass=" << kUpdates << " cells_per_update~"
       << cells_per_update_ << " threads=1 closed_loop";
    return os.str();
  }

  bool Deterministic() const override { return true; }

  PassResult RunPass(bool traced) override;

 private:
  Table census_;
  std::vector<UpdateSpec> updates_;
  uint64_t view_pages_ = 0;
  uint64_t cells_per_update_ = 0;
};

/// Times one public call into `r->call_ms[name]`; a failure counts.
template <typename F>
void Timed(PassResult* r, const char* name, F&& call) {
  ++r->outcomes.attempted;
  const Clock::time_point t0 = Clock::now();
  Status st = call();
  r->call_ms[name] += MsSince(t0);
  if (!st.ok()) r->outcomes.Fail(std::string(name) + ": " + st.ToString());
}

PassResult Clean::RunPass(bool traced) {
  PassResult r;
  Installation inst = MakeInstallation(kDiskFrames, /*faulty_devices=*/true);
  auto dbms = std::make_unique<StatisticalDbms>(inst.storage.get());

  const Clock::time_point setup_start = Clock::now();
  Must(dbms->EnableDurability("wal"), "enable durability");
  LoadCensusView(*dbms, census_, kView, MaintenancePolicy::kIncremental);
  r.setup_s = MsSince(setup_start) / 1000.0;
  view_pages_ = inst.disk->page_count();

  CollectingTraceSink sink;
  if (traced) dbms->set_trace_sink(&sink);
  const std::map<std::string, double> before = ReadCounters(*dbms, kView);

  auto query = [&](const std::string& fn, const std::string& attr,
                   SummaryResult* out) {
    ++r.outcomes.attempted;
    const Clock::time_point t0 = Clock::now();
    Result<QueryAnswer> a = dbms->Query(kView, fn, attr);
    const double ms = MsSince(t0);
    r.call_ms["Query"] += ms;
    if (!a.ok()) {
      r.outcomes.Fail(fn + "(" + attr + "): " + a.status().ToString());
      return;
    }
    r.queries.Add(ms);
    if (out != nullptr) *out = a->result;
  };

  const Clock::time_point loop_start = Clock::now();
  for (const std::string& attr : kCachedAttrs) {
    for (const std::string& fn : kBattery) query(fn, attr, nullptr);
  }
  Timed(&r, "AddDerivedColumn", [&] {
    return dbms->AddDerivedColumn(
        kView, DerivedColumnDef::ZScores("INCOME_Z", "INCOME"));
  });
  for (size_t k = 0; k < updates_.size(); ++k) {
    ++r.outcomes.attempted;
    const Clock::time_point t0 = Clock::now();
    Result<uint64_t> changed = dbms->Update(kView, updates_[k]);
    const double ms = MsSince(t0);
    r.call_ms["Update"] += ms;
    if (!changed.ok()) {
      r.outcomes.Fail("update " + std::to_string(k) + ": " +
                      changed.status().ToString());
    } else {
      r.updates.Add(ms);
      r.updates_by_column[updates_[k].column].Add(ms);
    }
    if ((k + 1) % kQueryEvery == 0) {
      for (const auto& [fn, attr] : kProbes) query(fn, attr, nullptr);
    }
  }
  const uint64_t version =
      Must(dbms->GetView(kView), "get view")->version();
  Timed(&r, "Rollback",
        [&] { return dbms->Rollback(kView, version >= 2 ? version - 2 : 0); });
  Timed(&r, "FlushDeltas", [&] { return dbms->FlushDeltas(kView); });
  Timed(&r, "RegenerateDerivedColumn",
        [&] { return dbms->RegenerateDerivedColumn(kView, "INCOME_Z"); });
  // The confirmatory look at the cleaned data: every cached answer.
  std::map<std::string, SummaryResult> pre_crash;
  for (const std::string& attr : kCachedAttrs) {
    for (const std::string& fn : kBattery) {
      query(fn, attr, &pre_crash[fn + "(" + attr + ")"]);
    }
  }
  r.counts = CounterDelta(ReadCounters(*dbms, kView), before);
  cells_per_update_ =
      uint64_t(r.counts["relational.cells_changed"]) / kUpdates;

  Ledger ledger;
  if (traced) {
    for (const QueryTrace& t : sink.Take()) ledger.Add(t);
  }

  // Power cut on disk and WAL, then a new process recovers from the
  // platters alone.
  auto* disk = static_cast<FaultInjectingDevice*>(inst.disk);
  auto* wal = static_cast<FaultInjectingDevice*>(inst.wal);
  disk->CutPower();
  wal->CutPower();
  dbms.reset();
  disk->ClearFaults();
  wal->ClearFaults();
  auto recovered = std::make_unique<StatisticalDbms>(inst.storage.get());
  Must(recovered->EnableDurability("wal"), "re-enable durability");
  CollectingTraceSink recover_sink;
  if (traced) recovered->set_trace_sink(&recover_sink);
  const Clock::time_point rec_start = Clock::now();
  Timed(&r, "Recover", [&] { return recovered->Recover(); });
  r.recover_s = MsSince(rec_start) / 1000.0;
  r.loop_s = MsSince(loop_start) / 1000.0;
  recovered->set_trace_sink(nullptr);

  const std::map<std::string, double> after_recover =
      ReadCounters(*recovered, kView);
  for (const char* key :
       {"recovery.records_replayed", "recovery.pages_replayed"}) {
    r.counts[key] = after_recover.at(key);
  }

  if (traced) {
    const double query_spans = ledger.total_ms() - ledger.unattributed_ms();
    for (const QueryTrace& t : recover_sink.Take()) ledger.Add(t);
    r.span_self_ms = ledger.self_ms();
    r.unattributed_query_ms = r.queries.Sum() - query_spans;
  }

  // Checks: every cached answer comes back from the recovered Summary
  // Database bit for bit, and fsck passes.
  for (const auto& [key, want] : pre_crash) {
    const std::string fn = key.substr(0, key.find('('));
    const std::string attr =
        key.substr(key.find('(') + 1, key.size() - key.find('(') - 2);
    Result<QueryAnswer> got = recovered->Query(kView, fn, attr);
    if (!got.ok() || got->source != AnswerSource::kCacheHit ||
        !(got->result == want)) {
      r.correct = false;
      r.outcomes.Fail("after recovery " + key + " is not its pre-crash value");
    }
  }
  std::string report;
  if (Status fsck = FsckDatabase(recovered.get(), &report); !fsck.ok()) {
    r.correct = false;
    r.outcomes.Fail("fsck after recovery: " + fsck.ToString());
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeClean(uint64_t seed) {
  return std::make_unique<Clean>(seed);
}

}  // namespace statdb::analystbench
