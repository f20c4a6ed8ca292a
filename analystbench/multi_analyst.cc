// `multi_analyst`: one writer thread runs a fixed stream of predicate
// updates on INCOME back to back while two reader threads, open loop at
// a fixed offered rate for as long as the writer runs, each open a
// session, run a few battery queries and close it.
// Durability is on and the view fits in the disk pool, so the work is
// the session layer (admission, snapshot routing, retired pre-images,
// epoch grace) and the writer's mutation bracket. loop_s is the time
// until the writer's stream and the last read are done.
//
// Each read is timed from its due time, Open included, so a stall that
// delays later reads is charged to them. The writer records only the
// commit seq each of its updates published, so nothing runs between its
// updates. Each reader answer must equal FunctionRegistry::Compute over
// the INCOME column as of the reader's pinned seq, taken from a serial
// replay of the same update stream made when the inputs are built.

#include <atomic>
#include <random>
#include <sstream>
#include <thread>

#include "harness.h"
#include "session/session.h"

namespace statdb::analystbench {
namespace {

constexpr uint64_t kRows = 20000;
constexpr size_t kDiskFrames = 4096;
constexpr int kUpdates = 96;
constexpr int kReaders = 2;
constexpr double kReadsPerSecond = 25;  // offered, per reader
const char* kView = "v";
const std::vector<std::string> kReaderBattery = {"mean", "variance", "min",
                                                 "max"};

/// The reader battery's answers over INCOME after each prefix of
/// `updates` (index 0: before any), from a serial run without sessions.
std::vector<std::vector<SummaryResult>> SerialAnswers(
    const Table& census, const std::vector<UpdateSpec>& updates) {
  Installation inst = MakeInstallation(kDiskFrames, /*faulty_devices=*/false);
  StatisticalDbms dbms(inst.storage.get());
  LoadCensusView(dbms, census, kView, MaintenancePolicy::kInvalidate);
  const FunctionRegistry& registry = dbms.management_db().functions();
  std::vector<std::vector<SummaryResult>> out;
  for (size_t k = 0; k <= updates.size(); ++k) {
    if (k > 0) Must(dbms.Update(kView, updates[k - 1]).status(), "replay");
    const std::vector<double> col = NumericCells(
        Must(dbms.ReadColumn(kView, "INCOME"), "read INCOME"));
    std::vector<SummaryResult> answers;
    for (const std::string& fn : kReaderBattery) {
      answers.push_back(Must(registry.Compute(fn, col, {}), "oracle " + fn));
    }
    out.push_back(std::move(answers));
  }
  return out;
}

struct ReadRecord {
  uint64_t pinned_seq = 0;
  std::vector<SummaryResult> answers;  // parallel to kReaderBattery
};

class MultiAnalyst final : public Workload {
 public:
  explicit MultiAnalyst(uint64_t seed)
      : census_(MakeCensus(kRows, seed, /*sorted=*/false)) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> age(16, 65);
    for (int k = 0; k < kUpdates; ++k) {
      UpdateSpec s;
      const int64_t a = age(rng);
      s.predicate = And(Ge(Col("AGE"), Lit(a)), Le(Col("AGE"), Lit(a + 1)));
      s.column = "INCOME";
      s.value = Mul(Col("INCOME"), Lit(k % 2 == 0 ? 1.01 : 0.995));
      s.description = "rescale INCOME of two ages";
      updates_.push_back(std::move(s));
    }
    expected_ = SerialAnswers(census_, updates_);
  }

  std::string Inputs() const override {
    std::ostringstream os;
    os << "rows=" << kRows << " sorted_by_categories=no disk_pool_frames="
       << kDiskFrames << " view_pages=" << view_pages_ << " (x"
       << double(view_pages_) / double(kDiskFrames)
       << " the pool) policy=invalidate durability=wal_force_at_commit"
       << " updates_per_pass=" << kUpdates << " back_to_back cells_per_update~"
       << cells_per_update_ << " threads=1 writer + " << kReaders
       << " readers offered_rate=" << kReadsPerSecond
       << "/s per reader (open loop while the writer runs, "
       << kReaderBattery.size() << " queries per session)";
    return os.str();
  }

  bool Deterministic() const override { return false; }

  PassResult RunPass(bool traced) override;

 private:
  Table census_;
  std::vector<UpdateSpec> updates_;
  std::vector<std::vector<SummaryResult>> expected_;
  uint64_t view_pages_ = 0;
  uint64_t cells_per_update_ = 0;
};

PassResult MultiAnalyst::RunPass(bool traced) {
  PassResult r;
  Installation inst = MakeInstallation(kDiskFrames, /*faulty_devices=*/false);
  StatisticalDbms dbms(inst.storage.get());

  const Clock::time_point setup_start = Clock::now();
  Must(dbms.EnableDurability("wal"), "enable durability");
  LoadCensusView(dbms, census_, kView, MaintenancePolicy::kInvalidate);
  session::SessionConfig config;
  config.max_sessions = kReaders + 1;
  config.policy = session::SessionConfig::OverflowPolicy::kQueue;
  config.queue_timeout_ms = 60000;
  session::SessionManager* mgr =
      Must(dbms.EnableSessions(config), "enable sessions");
  r.setup_s = MsSince(setup_start) / 1000.0;
  view_pages_ = inst.disk->page_count();

  CollectingTraceSink sink;
  if (traced) dbms.set_trace_sink(&sink);
  const std::map<std::string, double> before = ReadCounters(dbms, kView);
  const uint64_t mutations_before = mgr->stats().mutations;

  // The writer's record: published_seq[k] is the commit seq as of which
  // the first k updates are visible.
  std::vector<uint64_t> published_seq = {mgr->current_seq()};
  published_seq.reserve(updates_.size() + 1);

  Samples update_ms;
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> retired_max{0};
  auto note_retired = [&] {
    size_t seen = mgr->RetiredSnapshots();
    size_t cur = retired_max.load();
    while (seen > cur && !retired_max.compare_exchange_weak(cur, seen)) {
    }
  };
  Outcomes writer_outcomes;
  std::vector<Samples> open_ms(kReaders), query_ms(kReaders),
      read_ms(kReaders), late_ms(kReaders);
  std::vector<Outcomes> reader_outcomes(kReaders);
  std::vector<std::vector<ReadRecord>> records(kReaders);
  // The loop ends when the writer's stream and the last read are done; a
  // reader asleep until its next due time when the writer finishes does
  // not extend it.
  Clock::time_point writer_end;
  std::vector<Clock::time_point> last_read_end(kReaders);

  const Clock::time_point loop_start = Clock::now();
  std::thread writer([&] {
    for (const UpdateSpec& spec : updates_) {
      ++writer_outcomes.attempted;
      const Clock::time_point t0 = Clock::now();
      Result<uint64_t> changed = dbms.Update(kView, spec);
      const double ms = MsSince(t0);
      if (!changed.ok()) {
        writer_outcomes.Fail("update: " + changed.status().ToString());
        continue;
      }
      update_ms.Add(ms);
      published_seq.push_back(mgr->current_seq());
    }
    writer_end = Clock::now();
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int id = 0; id < kReaders; ++id) {
    readers.emplace_back([&, id] {
      const std::string label = "reader" + std::to_string(id);
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kReadsPerSecond));
      // Stagger the readers by half a period so they do not arrive in
      // lock step.
      Clock::time_point due = loop_start + period * id / kReaders;
      for (;; due += period) {
        std::this_thread::sleep_until(due);
        // Reads fall due while the writer's stream runs; the ones due
        // before it ended are still issued, late, after a stall.
        if (writer_done.load() && due >= writer_end) break;
        const Clock::time_point start = Clock::now();
        late_ms[id].Add(
            std::chrono::duration<double, std::milli>(start - due).count());
        ++reader_outcomes[id].attempted;
        Result<session::Session*> s = mgr->Open(label);
        open_ms[id].Add(MsSince(start));
        if (!s.ok()) {
          reader_outcomes[id].Fail("open: " + s.status().ToString());
          continue;
        }
        ReadRecord rec;
        rec.pinned_seq = (*s)->pinned_seq();
        bool ok = true;
        for (const std::string& fn : kReaderBattery) {
          const Clock::time_point q0 = Clock::now();
          Result<QueryAnswer> a = (*s)->Query(kView, fn, "INCOME");
          query_ms[id].Add(MsSince(q0));
          if (!a.ok()) {
            reader_outcomes[id].Fail(fn + ": " + a.status().ToString());
            ok = false;
            break;
          }
          rec.answers.push_back(a->result);
        }
        note_retired();
        if (Status st = (*s)->Close(); !st.ok()) {
          reader_outcomes[id].Fail("close: " + st.ToString());
          ok = false;
        }
        if (!ok) continue;
        last_read_end[id] = Clock::now();
        read_ms[id].Add(
            std::chrono::duration<double, std::milli>(last_read_end[id] - due)
                .count());
        records[id].push_back(std::move(rec));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  Clock::time_point loop_end = writer_end;
  for (const Clock::time_point& t : last_read_end) {
    loop_end = std::max(loop_end, t);
  }
  r.loop_s = std::chrono::duration<double>(loop_end - loop_start).count();
  if (traced) dbms.set_trace_sink(nullptr);

  r.counts = CounterDelta(ReadCounters(dbms, kView), before);
  r.counts["session.cache_hits"] =
      double(dbms.metrics().GetCounter("sessions.cache_hits")->Get());
  cells_per_update_ =
      uint64_t(r.counts["relational.cells_changed"]) / kUpdates;
  r.updates = update_ms;
  r.updates_by_column["INCOME"] = update_ms;
  r.outcomes = writer_outcomes;
  Samples opens, queries, lates;
  for (int id = 0; id < kReaders; ++id) {
    r.queries.Append(read_ms[id]);
    opens.Append(open_ms[id]);
    queries.Append(query_ms[id]);
    lates.Append(late_ms[id]);
    r.outcomes.Merge(reader_outcomes[id]);
  }
  r.layer["session.open_wait_p50_ms"] = opens.Median();
  r.layer["session.open_wait_max_ms"] = opens.Max();
  r.layer["session.query_ms"] = queries.Median();
  r.layer["session.cache_hits"] = r.counts["session.cache_hits"];
  r.layer["session.retired_snapshots_max"] = double(retired_max.load());
  r.layer["session.writer_mutations"] =
      double(mgr->stats().mutations - mutations_before);
  r.layer["gen.late_ms"] = lates.Max();
  r.call_ms["Update"] = update_ms.Sum();
  r.call_ms["Session::Open"] = opens.Sum();
  r.call_ms["Session::Query"] = queries.Sum();

  if (traced) {
    Ledger ledger;
    for (const QueryTrace& t : sink.Take()) ledger.Add(t);
    r.span_self_ms = ledger.self_ms();
  }

  // Every reader answer against the serial replay at its pinned seq.
  std::map<uint64_t, size_t> prefix_of;
  for (size_t k = 0; k < published_seq.size(); ++k) {
    prefix_of[published_seq[k]] = k;
  }
  for (int id = 0; id < kReaders; ++id) {
    for (const ReadRecord& rec : records[id]) {
      auto it = prefix_of.find(rec.pinned_seq);
      if (it == prefix_of.end()) {
        r.correct = false;
        r.outcomes.Fail("no writer record for seq " +
                        std::to_string(rec.pinned_seq));
        continue;
      }
      for (size_t f = 0; f < kReaderBattery.size(); ++f) {
        if (!(expected_[it->second][f] == rec.answers[f])) {
          r.correct = false;
          r.outcomes.Fail("reader " + kReaderBattery[f] + " at seq " +
                          std::to_string(rec.pinned_seq) +
                          " differs from the serial replay");
        }
      }
    }
  }
  mgr->CloseAll();
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeMultiAnalyst(uint64_t seed) {
  return std::make_unique<MultiAnalyst>(seed);
}

}  // namespace statdb::analystbench
