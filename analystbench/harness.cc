#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include <sys/resource.h>

#include "common/rng.h"
#include "fault/fault.h"
#include "relational/datagen.h"

namespace statdb::analystbench {

double Samples::Sum() const {
  double s = 0;
  for (double x : v_) s += x;
  return s;
}

double Samples::Max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = p / 100.0 * double(s.size() - 1);
  const size_t lo = size_t(std::floor(rank));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (rank - double(lo)) * (s[hi] - s[lo]);
}

double Samples::TailPercentileFor(size_t n) {
  if (n < 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / double(n));
}

void Outcomes::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void Outcomes::Merge(const Outcomes& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const std::string& e : o.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

namespace {

struct Interval {
  double begin;
  double end;
};

/// Length of the union of `parts`, each clipped to [lo, hi].
double UnionLength(std::vector<Interval> parts, double lo, double hi) {
  for (Interval& p : parts) {
    p.begin = std::max(p.begin, lo);
    p.end = std::min(p.end, hi);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0;
  double cur_b = 0, cur_e = 0;
  bool open = false;
  for (const Interval& p : parts) {
    if (p.end <= p.begin) continue;
    if (!open || p.begin > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = p.begin;
      cur_e = p.end;
      open = true;
    } else {
      cur_e = std::max(cur_e, p.end);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

}  // namespace

void Ledger::Add(const QueryTrace& trace) {
  const size_t n = trace.size();
  // A span's parent is the shortest other span enclosing it; spans with
  // identical intervals nest by emission order.
  std::vector<int> parent(n, -1);
  for (size_t j = 0; j < n; ++j) {
    const TraceSpan& b = trace.span(j);
    const double bs = b.start_ms, be = b.start_ms + b.wall_ms;
    double best = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      const TraceSpan& a = trace.span(i);
      const double as = a.start_ms, ae = a.start_ms + a.wall_ms;
      const bool encloses = as <= bs && be <= ae;
      const bool same = as == bs && ae == be;
      if (!encloses || (same && i > j)) continue;
      if (parent[j] < 0 || a.wall_ms < best) {
        parent[j] = int(i);
        best = a.wall_ms;
      }
    }
  }
  std::vector<std::vector<Interval>> children(n);
  std::vector<Interval> top;
  for (size_t j = 0; j < n; ++j) {
    const TraceSpan& s = trace.span(j);
    Interval iv{s.start_ms, s.start_ms + s.wall_ms};
    if (parent[j] < 0) {
      top.push_back(iv);
    } else {
      children[size_t(parent[j])].push_back(iv);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const TraceSpan& s = trace.span(i);
    const double self = s.wall_ms - UnionLength(children[i], s.start_ms,
                                                s.start_ms + s.wall_ms);
    self_ms_[SpanKindName(s.kind)] += std::max(0.0, self);
  }
  const double covered = UnionLength(top, 0, trace.total_ms());
  unattributed_ms_ += std::max(0.0, trace.total_ms() - covered);
  total_ms_ += trace.total_ms();
}

Installation MakeInstallation(size_t disk_frames, bool faulty_devices) {
  Installation inst;
  inst.storage = std::make_unique<StorageManager>();
  Must(inst.storage->AddDevice("tape", DeviceCostModel::Tape(), 1024)
           .status(),
       "add tape");
  if (faulty_devices) {
    inst.disk = Must(inst.storage->AdoptDevice(
                         "disk",
                         std::make_unique<FaultInjectingDevice>(
                             "disk", DeviceCostModel::Disk()),
                         disk_frames),
                     "adopt disk");
    inst.wal = Must(inst.storage->AdoptDevice(
                        "wal",
                        std::make_unique<FaultInjectingDevice>(
                            "wal", DeviceCostModel::Disk()),
                        8),
                    "adopt wal");
  } else {
    inst.disk = Must(
        inst.storage->AddDevice("disk", DeviceCostModel::Disk(), disk_frames),
        "add disk");
    inst.wal =
        Must(inst.storage->AddDevice("wal", DeviceCostModel::Disk(), 8),
             "add wal");
  }
  return inst;
}

void LoadCensusView(StatisticalDbms& dbms, const Table& census,
                    const std::string& view, MaintenancePolicy policy) {
  Must(dbms.LoadRawDataSet("census", census, "synthetic census"),
       "load census");
  ViewDefinition def;
  def.source = "census";
  Must(dbms.CreateView(view, def, policy).status(), "create view");
}

Table MakeCensus(uint64_t rows, uint64_t seed, bool sorted) {
  CensusOptions opts;
  opts.rows = rows;
  opts.sorted_by_categories = sorted;
  Rng rng(seed);
  return Must(GenerateCensusMicrodata(opts, &rng), "generate census");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::map<std::string, double> ReadCounters(StatisticalDbms& dbms,
                                           const std::string& view) {
  std::map<std::string, double> c;
  MetricsRegistry& reg = dbms.metrics();
  auto counter = [&](const char* key, const char* name) {
    c[key] = double(reg.GetCounter(name)->Get());
  };
  counter("core.answers_computed", "dbms.answers.computed");
  counter("core.answers_cache_hit", "dbms.answers.cache_hit");
  counter("core.answers_error", "dbms.answers.error");
  counter("simd.compressed_scans", "dbms.scan.compressed_domain");
  counter("simd.materialized_scans", "dbms.scan.materialized");
  counter("exec.pool_tasks", "exec.pool.tasks_executed");
  counter("delta.buffered", "dbms.delta.buffered");
  counter("delta.flushed", "dbms.delta.flushed");
  counter("delta.policy_switches", "dbms.delta.policy_switches");
  counter("recovery.records_replayed", "dbms.recovery.records_replayed");
  counter("recovery.pages_replayed", "dbms.recovery.pages_replayed");
  // Wall time, so not an exact count (see kInexactCounters).
  c["exec.pool_task_ms"] = reg.GetGauge("exec.pool.task_ms_total")->Get();

  if (Result<SummaryDatabase*> sdb = dbms.GetSummaryDb(view); sdb.ok()) {
    const SummaryDbStats s = (*sdb)->stats();
    c["summary.lookups"] = double(s.lookups);
    c["summary.hits"] = double(s.hits);
    c["summary.served"] = double(s.hits + s.served_stale);
    c["summary.inserts"] = double(s.inserts);
    c["summary.invalidated"] = double(s.invalidated);
  }
  if (Result<const ViewTrafficStats*> t = dbms.GetTrafficStats(view);
      t.ok()) {
    c["core.updates"] = double((*t)->updates);
    c["relational.cells_changed"] = double((*t)->cells_changed);
    c["rules.maintainer_applies"] = double((*t)->maintainer_applies);
    c["rules.maintainer_rebuilds"] = double((*t)->maintainer_rebuilds);
    c["rules.eager_recomputes"] = double((*t)->eager_recomputes);
  }
  StorageManager* sm = dbms.storage();
  if (Result<SimulatedDevice*> disk = sm->GetDevice(dbms.disk_device_name());
      disk.ok()) {
    const IoStats& io = (*disk)->stats();
    c["storage.disk_block_reads"] = double(io.block_reads);
    c["storage.disk_block_writes"] = double(io.block_writes);
    c["storage.disk_simulated_ms"] = io.simulated_ms;
  }
  if (Result<BufferPool*> pool = sm->GetPool(dbms.disk_device_name());
      pool.ok()) {
    const BufferPoolStats bp = (*pool)->stats();
    c["storage.pool_hits"] = double(bp.hits);
    c["storage.pool_misses"] = double(bp.misses);
    c["storage.pool_evictions"] = double(bp.evictions);
  }
  if (RedoLog* wal = dbms.redo_log(); wal != nullptr) {
    const WalStats ws = wal->stats();
    c["wal.commits"] = double(ws.records_appended);
    c["wal.bytes_appended"] = double(ws.bytes_appended);
    c["wal.simulated_ms"] = wal->device()->stats().simulated_ms;
  }
  return c;
}

std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before) {
  std::map<std::string, double> d;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    d[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

std::vector<double> NumericCells(const std::vector<Value>& cells) {
  std::vector<double> out;
  out.reserve(cells.size());
  for (const Value& v : cells) {
    if (v.is_null()) continue;
    Result<double> d = v.ToDouble();
    if (d.ok()) out.push_back(*d);
  }
  return out;
}

void Die(const std::string& what, const Status& s) {
  std::cerr << "analyst_bench: " << what << ": " << s.ToString() << "\n";
  std::exit(2);
}

}  // namespace statdb::analystbench
