#ifndef STATDB_ANALYSTBENCH_HARNESS_H_
#define STATDB_ANALYSTBENCH_HARNESS_H_

// Shared plumbing of the analyst-loop benchmark: latency samples, the
// span ledger, counter snapshots, the installations the workloads run
// on, and the Workload interface main.cc drives.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/dbms.h"
#include "obs/trace.h"
#include "relational/table.h"
#include "storage/storage_manager.h"

namespace statdb::analystbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Latency samples of one operation kind, in ms.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  double Sum() const;
  double Max() const;
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  /// The highest percentile with at least 10 of `n` samples beyond it,
  /// 100 * (1 - 10 / n); the median when fewer than 20 samples exist.
  static double TailPercentileFor(size_t n);

 private:
  std::vector<double> v_;
};

/// Operation outcome counts of one pass.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions, printed to stderr.
  std::vector<std::string> errors;
  void Fail(const std::string& what);
  void Merge(const Outcomes& o);
};

/// Everything one pass of a workload measured.
struct PassResult {
  double setup_s = 0;
  double loop_s = 0;
  Samples queries;
  Samples updates;
  /// The same update samples split by the column each update wrote.
  std::map<std::string, Samples> updates_by_column;
  double recover_s = 0;
  Outcomes outcomes;
  bool correct = true;
  /// Exact counts (deterministic for a fixed seed in single-threaded
  /// workloads), e.g. "storage.disk_block_reads". Doubles so simulated
  /// device milliseconds fit beside integer counts.
  std::map<std::string, double> counts;
  /// Per-layer numbers a workload measures itself (session waits,
  /// generator lateness), keyed by metric name.
  std::map<std::string, double> layer;
  /// Wall time of each kind of public call the pass timed from outside,
  /// summed over the pass ("Update", "Session::Open", ...).
  std::map<std::string, double> call_ms;
  /// Span-kind self time (ms) summed over the pass's traces; empty when
  /// the pass ran untraced.
  std::map<std::string, double> span_self_ms;
  /// Query wall time not covered by any span of its trace.
  double unattributed_query_ms = 0;
};

/// Accumulates QueryTrace spans into self time per span kind.
class Ledger {
 public:
  void Add(const QueryTrace& trace);
  const std::map<std::string, double>& self_ms() const { return self_ms_; }
  /// Sum over traces of total_ms minus the union of top-level spans.
  double unattributed_ms() const { return unattributed_ms_; }
  double total_ms() const { return total_ms_; }

 private:
  std::map<std::string, double> self_ms_;
  double unattributed_ms_ = 0;
  double total_ms_ = 0;
};

/// A tape + disk installation whose disk pool has `disk_frames` frames.
/// With `faulty_devices` the disk and a "wal" device are fault-injecting
/// devices (power cuts); otherwise a plain "wal" device is added.
struct Installation {
  std::unique_ptr<StorageManager> storage;
  SimulatedDevice* disk = nullptr;
  SimulatedDevice* wal = nullptr;
};
Installation MakeInstallation(size_t disk_frames, bool faulty_devices);

/// Every exported counter the ledger uses, read from the DBMS registry,
/// the view's SummaryDbStats / ViewTrafficStats, the disk's IoStats and
/// BufferPoolStats and the WAL's WalStats and IoStats.
std::map<std::string, double> ReadCounters(StatisticalDbms& dbms,
                                           const std::string& view);

/// Counters of ReadCounters that measure wall time, so never repeat.
inline bool IsInexactCounter(const std::string& key) {
  return key == "exec.pool_task_ms";
}

/// after - before, key by key (keys missing from `before` count as 0).
std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before);

/// Loads `census` onto tape as "census" and materializes all of it as
/// the concrete view `view` under `policy` — the paper's set-up step.
void LoadCensusView(StatisticalDbms& dbms, const Table& census,
                    const std::string& view, MaintenancePolicy policy);

/// The synthetic census for `seed`.
Table MakeCensus(uint64_t rows, uint64_t seed, bool sorted);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Converts a column read through the public API into the numeric
/// vector the statistics consume (nulls skipped, as the engine does).
std::vector<double> NumericCells(const std::vector<Value>& cells);

/// Aborts the benchmark on an error that makes the run meaningless
/// (set-up failure); prints the status to stderr and exits with 2.
void Die(const std::string& what, const Status& s);
template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}
inline void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

/// One workload: generates its inputs once from the seed, then runs
/// identical passes (fresh installation, set-up, loop, checks) on them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Input properties (rows, sortedness, pool sizing, update shape,
  /// threads, offered rate), printed with the report.
  virtual std::string Inputs() const = 0;
  /// True when every exact count must repeat bit for bit across passes.
  virtual bool Deterministic() const = 0;
  /// `traced` attaches a CollectingTraceSink and fills span_self_ms and
  /// unattributed_query_ms.
  virtual PassResult RunPass(bool traced) = 0;
};

std::unique_ptr<Workload> MakeExplore(uint64_t seed);
std::unique_ptr<Workload> MakeClean(uint64_t seed);
std::unique_ptr<Workload> MakeMultiAnalyst(uint64_t seed);

}  // namespace statdb::analystbench

#endif  // STATDB_ANALYSTBENCH_HARNESS_H_
