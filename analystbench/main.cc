// Analyst-loop benchmark: the command-line entry point.
//
//   analyst_bench --workload explore|clean|multi_analyst --seed N
//                 --seconds S --trace 0|1
//
// Runs identical passes of one workload (fresh installation, set-up,
// loop, answer checks) until S seconds have gone by, then prints every
// end-to-end metric (medians over untraced passes), every per-layer
// metric with the end-to-end metric it explains, the per-layer ledger of
// the traced passes (--trace 1 alternates untraced and traced passes),
// and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metrics are the end-to-end set with --trace 0 and the per-layer
// set with --trace 1. Exits 1 when any answer check failed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace statdb::analystbench {
namespace {

constexpr int kMinPasses = 3;

/// An end-to-end metric: reported with tracing off.
struct E2eDef {
  const char* name;
  const char* unit;
};
const E2eDef kEndToEnd[] = {
    {"setup_s", "s"},       {"loop_s", "s"},
    {"query_p50_ms", "ms"}, {"query_tail_ms", "ms"},
    {"queries_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

/// A per-layer metric and the end-to-end metric it should move.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* explains;
};
const LayerDef kLayers[] = {
    {"storage.disk_block_reads", "count", "query_p50_ms, loop_s on explore"},
    {"storage.disk_simulated_ms", "ms", "query_p50_ms, loop_s on explore"},
    {"storage.pool_hit_rate", "ratio", "query_p50_ms, loop_s on explore"},
    {"storage.pool_evictions", "count", "query_p50_ms, loop_s on explore"},
    {"storage.disk_block_writes", "count", "update_p50_ms on clean"},
    {"exec.scan_ms", "ms", "query_p50_ms on explore"},
    {"exec.pool_tasks", "count", "query_p50_ms on explore"},
    {"exec.pool_task_ms", "ms", "query_p50_ms on explore"},
    {"simd.compressed_scans", "count", "query_p50_ms on explore"},
    {"simd.materialized_scans", "count", "query_p50_ms on explore"},
    {"simd.compressed_scan_ms", "ms", "query_p50_ms on explore"},
    {"stats.compute_ms", "ms", "query_tail_ms on explore"},
    {"summary.hit_rate", "ratio",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"summary.served_rate", "ratio",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"summary.inserts", "count",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"summary.invalidated", "count",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"summary.probe_ms", "ms",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"summary.insert_ms", "ms",
     "queries_per_s on explore, query_p50_ms on clean"},
    {"core.answers_computed", "count", "query_p50_ms on explore"},
    {"core.answers_cache_hit", "count", "query_p50_ms on explore"},
    {"core.unattributed_ms", "ms", "query_p50_ms on explore"},
    {"relational.cells_changed_per_update", "cells",
     "update_p50_ms on clean"},
    {"delta.buffered", "count", "update_p50_ms, query_p50_ms on clean"},
    {"delta.flushed", "count", "update_p50_ms, query_p50_ms on clean"},
    {"delta.policy_switches", "count",
     "update_p50_ms, query_p50_ms on clean"},
    {"delta.flush_ms", "ms", "update_p50_ms, query_p50_ms on clean"},
    {"rules.maintainer_applies", "count", "update_tail_ms on clean"},
    {"rules.maintainer_rebuilds", "count", "update_tail_ms on clean"},
    {"rules.eager_recomputes", "count", "update_tail_ms on clean"},
    {"wal.commits", "count",
     "update_p50_ms on clean, updates_per_s on multi_analyst"},
    {"wal.bytes_appended", "bytes",
     "update_p50_ms on clean, updates_per_s on multi_analyst"},
    {"wal.bytes_per_cell", "bytes",
     "update_p50_ms on clean, updates_per_s on multi_analyst"},
    {"wal.simulated_ms", "ms",
     "update_p50_ms on clean, updates_per_s on multi_analyst"},
    {"recovery.records_replayed", "count", "recover_s on clean"},
    {"recovery.pages_replayed", "count", "recover_s on clean"},
    {"recovery.wal_scan_ms", "ms", "recover_s on clean"},
    {"recovery.redo_ms", "ms", "recover_s on clean"},
    {"recovery.manifest_ms", "ms", "recover_s on clean"},
    {"session.open_wait_p50_ms", "ms",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"session.open_wait_max_ms", "ms",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"session.query_ms", "ms",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"session.cache_hits", "count",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"session.retired_snapshots_max", "count",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"session.writer_mutations", "count",
     "query_tail_ms, updates_per_s on multi_analyst"},
    {"gen.late_ms", "ms", "query_tail_ms on multi_analyst"},
    {"obs.trace_overhead_pct", "%", "no end-to-end metric (should be ~0)"},
    // Per-call timings of the mutation and recovery entry points, timed
    // from outside. They are zero on read-only explore, so they cannot
    // carry a relative bound; loop_s carries the write path there.
    {"update_p50_ms", "ms", "loop_s on clean and multi_analyst"},
    {"update_tail_ms", "ms", "loop_s on clean and multi_analyst"},
    {"updates_per_s", "1/s", "loop_s on clean and multi_analyst"},
    {"recover_s", "s", "loop_s on clean"},
    {"failed_frac", "ratio", "every latency percentile"},
};

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Median();
}

/// Counter `key` of a pass (0 when the workload never touched it).
double Count(const PassResult& p, const std::string& key) {
  auto it = p.counts.find(key);
  return it == p.counts.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer values one pass measured from counters and outside timing.
std::map<std::string, double> CounterValues(const PassResult& p) {
  std::map<std::string, double> m;
  for (const char* key :
       {"storage.disk_block_reads", "storage.disk_simulated_ms",
        "storage.pool_evictions", "storage.disk_block_writes",
        "exec.pool_tasks", "exec.pool_task_ms", "simd.compressed_scans",
        "simd.materialized_scans", "summary.inserts", "summary.invalidated",
        "core.answers_computed", "core.answers_cache_hit", "delta.buffered",
        "delta.flushed", "delta.policy_switches",
        "rules.maintainer_applies", "rules.maintainer_rebuilds",
        "rules.eager_recomputes", "wal.commits", "wal.bytes_appended",
        "wal.simulated_ms", "recovery.records_replayed",
        "recovery.pages_replayed"}) {
    m[key] = Count(p, key);
  }
  m["storage.pool_hit_rate"] =
      Ratio(Count(p, "storage.pool_hits"),
            Count(p, "storage.pool_hits") + Count(p, "storage.pool_misses"));
  m["summary.hit_rate"] =
      Ratio(Count(p, "summary.hits"), Count(p, "summary.lookups"));
  m["summary.served_rate"] =
      Ratio(Count(p, "summary.served"), Count(p, "summary.lookups"));
  const double cells = Count(p, "relational.cells_changed");
  m["relational.cells_changed_per_update"] =
      Ratio(cells, Count(p, "core.updates"));
  m["wal.bytes_per_cell"] = Ratio(Count(p, "wal.bytes_appended"), cells);
  auto flush = p.call_ms.find("FlushDeltas");
  m["delta.flush_ms"] = flush == p.call_ms.end() ? 0.0 : flush->second;
  for (const auto& [name, value] : p.layer) m[name] = value;
  return m;
}

/// Per-layer values a traced pass measured from its spans.
std::map<std::string, double> SpanValues(const PassResult& p) {
  auto self = [&](const char* kind) {
    auto it = p.span_self_ms.find(kind);
    return it == p.span_self_ms.end() ? 0.0 : it->second;
  };
  return {
      {"exec.scan_ms", self("scan") + self("scan_chunk")},
      {"simd.compressed_scan_ms", self("compressed_scan")},
      {"stats.compute_ms", self("compute")},
      {"summary.probe_ms", self("cache_probe")},
      {"summary.insert_ms", self("summary_insert")},
      {"core.unattributed_ms", p.unattributed_query_ms},
      {"recovery.wal_scan_ms", self("wal_scan")},
      {"recovery.redo_ms", self("redo_replay")},
      {"recovery.manifest_ms", self("manifest_apply")},
  };
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const std::string& workload, uint64_t seed, double seconds,
        bool trace) {
  std::unique_ptr<Workload> w;
  if (workload == "explore") {
    w = MakeExplore(seed);
  } else if (workload == "clean") {
    w = MakeClean(seed);
  } else if (workload == "multi_analyst") {
    w = MakeMultiAnalyst(seed);
  } else {
    std::cerr << "unknown workload: " << workload << "\n";
    return 2;
  }

  // Passes: untraced only, or alternating untraced / traced.
  std::vector<PassResult> plain, traced;
  const Clock::time_point start = Clock::now();
  while (true) {
    const bool enough =
        MsSince(start) / 1000.0 >= seconds && int(plain.size()) >= kMinPasses &&
        (!trace || int(traced.size()) >= kMinPasses);
    if (enough) break;
    const bool do_trace = trace && traced.size() < plain.size();
    (do_trace ? traced : plain).push_back(w->RunPass(do_trace));
  }

  bool correct = true;
  Outcomes total;
  std::vector<const PassResult*> all;
  for (const PassResult& p : plain) all.push_back(&p);
  for (const PassResult& p : traced) all.push_back(&p);
  for (const PassResult* p : all) {
    correct = correct && p->correct && p->outcomes.failed == 0;
    total.Merge(p->outcomes);
  }
  for (const std::string& e : total.errors) {
    std::cerr << "FAILED: " << e << "\n";
  }

  std::printf("analyst_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), (unsigned long long)seed, seconds, trace);
  std::printf("inputs: %s\n", w->Inputs().c_str());
  std::printf("passes: %zu untraced, %zu traced\n", plain.size(),
              traced.size());

  // Exact counts must repeat bit for bit across every pass (traced ones
  // too: tracing must not change what the engine does).
  if (w->Deterministic()) {
    int differing = 0;
    for (const PassResult* p : all) {
      for (const auto& [key, value] : p->counts) {
        if (IsInexactCounter(key)) continue;
        const double want = Count(*all.front(), key);
        if (value != want) {
          ++differing;
          std::printf("COUNT DIFFERS: %s = %s, first pass %s\n", key.c_str(),
                      Num(value).c_str(), Num(want).c_str());
        }
      }
    }
    std::printf("exact counts: %zu counters x %zu passes, %d differ\n",
                all.front()->counts.size(), all.size(), differing);
    for (const auto& [key, value] : all.front()->counts) {
      if (!IsInexactCounter(key)) {
        std::printf("  %s=%s\n", key.c_str(), Num(value).c_str());
      }
    }
    if (differing > 0) correct = false;
  }

  // --- end-to-end: untraced passes only ---
  // Per-pass totals are medians over passes. Latency percentiles pool
  // every untraced pass's samples, and each failed operation joins them
  // as an infinitely slow sample; the tail is the highest pooled
  // percentile with at least 10 samples beyond it.
  std::map<std::string, double> e2e;
  std::vector<double> setup, loop, qps, ups, rec;
  Samples queries, updates;
  std::map<std::string, Samples> updates_by_column;
  size_t pass_queries = SIZE_MAX, pass_updates = SIZE_MAX;
  for (const PassResult& p : plain) {
    pass_queries = std::min(pass_queries, p.queries.size());
    pass_updates = std::min(pass_updates, p.updates.size());
    setup.push_back(p.setup_s);
    loop.push_back(p.loop_s);
    qps.push_back(Ratio(double(p.queries.size()), p.loop_s));
    ups.push_back(Ratio(double(p.updates.size()), p.loop_s));
    rec.push_back(p.recover_s);
    queries.Append(p.queries);
    updates.Append(p.updates);
    for (uint64_t i = 0; i < p.outcomes.failed; ++i) {
      queries.Add(std::numeric_limits<double>::infinity());
      updates.Add(std::numeric_limits<double>::infinity());
    }
    for (const auto& [col, samples] : p.updates_by_column) {
      updates_by_column[col].Append(samples);
    }
  }
  const double q_pct = Samples::TailPercentileFor(queries.size());
  const double u_pct = Samples::TailPercentileFor(updates.size());
  e2e["setup_s"] = Median(setup);
  e2e["loop_s"] = Median(loop);
  e2e["query_p50_ms"] = queries.Median();
  e2e["query_tail_ms"] = queries.Percentile(q_pct);
  e2e["queries_per_s"] = Median(qps);
  e2e["peak_rss_mb"] = PeakRssMb();
  const double failed_frac =
      Ratio(double(total.failed), double(total.attempted));

  std::printf("\n-- end-to-end (tracing off, %zu passes) --\n", plain.size());
  auto series = [](const char* name, const char* unit,
                   const std::vector<double>& v) {
    std::printf("%-34s %14.6f %-4s (median; min %.6f, max %.6f)\n", name,
                Median(v), unit, *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()));
  };
  series("setup_s", "s", setup);
  series("loop_s", "s", loop);
  std::printf("%-34s %14.6f ms   (%zu samples)\n", "query_p50_ms",
              e2e["query_p50_ms"], queries.size());
  std::printf("%-34s %14.6f ms   (p%.2f: 10 of %zu samples beyond it; "
              "%zu per pass)\n",
              "query_tail_ms", e2e["query_tail_ms"], q_pct, queries.size(),
              pass_queries);
  series("queries_per_s", "1/s", qps);
  std::printf("%-34s %14.6f ms   (%zu samples)\n", "update_p50_ms",
              updates.Median(), updates.size());
  std::printf("%-34s %14.6f ms   (p%.2f: 10 of %zu samples beyond it; "
              "%zu per pass)\n",
              "update_tail_ms", updates.Percentile(u_pct), u_pct,
              updates.size(), pass_updates);
  series("updates_per_s", "1/s", ups);
  for (const auto& [col, s] : updates_by_column) {
    std::printf("  update_ms[%s]%*s p50 %.3f max %.3f (%zu samples)\n",
                col.c_str(), int(20 - std::min<size_t>(col.size(), 20)), "",
                s.Median(), s.Max(), s.size());
  }
  series("recover_s", "s", rec);
  std::printf("%-34s %14.6f MB\n", "peak_rss_mb", e2e["peak_rss_mb"]);
  std::printf("%-34s %14.6f      (%llu failed of %llu attempted)\n",
              "failed_frac", failed_frac, (unsigned long long)total.failed,
              (unsigned long long)total.attempted);

  // --- per-layer: counters from untraced passes, spans from traced ---
  std::map<std::string, std::vector<double>> runs;
  for (const PassResult& p : plain) {
    for (const auto& [k, v] : CounterValues(p)) runs[k].push_back(v);
  }
  for (const PassResult& p : traced) {
    for (const auto& [k, v] : SpanValues(p)) runs[k].push_back(v);
  }
  std::map<std::string, double> layer;
  for (const auto& [k, v] : runs) layer[k] = Median(v);
  layer["update_p50_ms"] = updates.Median();
  layer["update_tail_ms"] = updates.Percentile(u_pct);
  layer["updates_per_s"] = Median(ups);
  layer["recover_s"] = Median(rec);
  layer["failed_frac"] = failed_frac;
  if (!traced.empty()) {
    std::vector<double> tloop;
    for (const PassResult& p : traced) tloop.push_back(p.loop_s);
    layer["obs.trace_overhead_pct"] =
        (Median(tloop) / e2e["loop_s"] - 1.0) * 100.0;
  }

  std::printf("\n-- per-layer (median per pass; span metrics from %zu traced "
              "passes) --\n",
              traced.size());
  const std::map<std::string, double> span_keys = SpanValues(PassResult{});
  for (const LayerDef& d : kLayers) {
    if (layer.count(d.name) == 0 && traced.empty() &&
        (span_keys.count(d.name) != 0 ||
         std::strcmp(d.name, "obs.trace_overhead_pct") == 0)) {
      std::printf("%-34s %14s %-6s -> %s\n", d.name, "(trace 1)", d.unit,
                  d.explains);
      continue;
    }
    // A layer this workload never reaches reads 0.
    std::printf("%-34s %14.6f %-6s -> %s\n", d.name, layer[d.name], d.unit,
                d.explains);
  }

  if (!traced.empty()) {
    // The ledger: where one traced pass's loop time went.
    std::map<std::string, std::vector<double>> self, calls;
    std::vector<double> unattributed, remainder, tloop;
    for (const PassResult& p : traced) {
      for (const auto& [k, v] : p.span_self_ms) self[k].push_back(v);
      double timed = 0;
      for (const auto& [k, v] : p.call_ms) {
        calls[k].push_back(v);
        timed += v;
      }
      unattributed.push_back(p.unattributed_query_ms);
      remainder.push_back(p.loop_s * 1000.0 - timed);
      tloop.push_back(p.loop_s * 1000.0);
    }
    const double loop_ms = Median(tloop);
    std::printf("\n-- ledger (traced pass, median of %zu; loop %.3f ms) --\n",
                traced.size(), loop_ms);
    std::printf("span self time:\n");
    for (const auto& [k, v] : self) {
      std::printf("  %-32s %12.3f ms %6.2f%%\n", k.c_str(), Median(v),
                  100.0 * Median(v) / loop_ms);
    }
    std::printf("  %-32s %12.3f ms %6.2f%%\n",
                "unattributed (query wall - spans)", Median(unattributed),
                100.0 * Median(unattributed) / loop_ms);
    std::printf("timed public calls (wall, spans included):\n");
    for (const auto& [k, v] : calls) {
      std::printf("  %-32s %12.3f ms %6.2f%%\n", k.c_str(), Median(v),
                  100.0 * Median(v) / loop_ms);
    }
    if (w->Deterministic()) {
      std::printf("  %-32s %12.3f ms %6.2f%%\n", "loop - timed calls",
                  Median(remainder), 100.0 * Median(remainder) / loop_ms);
    } else {
      std::printf("  (calls run on several threads, so they overlap and do "
                  "not add up to the loop)\n");
    }
  }

  // --- the contract line ---
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(total.attempted, 1)
     << ", \"failed\": " << total.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double v, const char* unit) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << Num(v)
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (!trace) {
    for (const E2eDef& d : kEndToEnd) emit(d.name, e2e[d.name], d.unit);
  } else {
    for (const LayerDef& d : kLayers) emit(d.name, layer[d.name], d.unit);
  }
  js << "}}";
  std::cout << "\n" << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace statdb::analystbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return 2;
    }
  }
  if (workload.empty() || !(seconds > 0)) {
    std::cerr << "usage: analyst_bench --workload explore|clean|multi_analyst"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  return statdb::analystbench::Run(workload, seed, seconds, trace);
}
