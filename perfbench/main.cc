// The repo benchmark's workload runner: one process runs one workload.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --scratch <dir> --out-dir <dir> [--git-sha <sha>]
//
// Set-up (data generation, colf writes, registration, cache build, one
// untimed warm-up round) runs kSetupReps times and its median is reported
// as setup_s; the last instance then runs a closed loop of `clients`
// threads for `seconds`, every answer checked against the workload's
// oracle. With --trace 1 the run instead times each layer (see README.md).
// The last line of stdout is the result object; the full record (run
// stamp, per-query latencies) goes to --out-dir.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

#include "perfbench/harness.h"
#include "sql/parser.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ssql {
namespace perfbench {
namespace {

// A fixed count, so that the memory earlier set-ups leave behind (and so
// peak_rss_mb) does not depend on how fast the host ran them.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string out_dir;
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--scratch") args.scratch = value;
    else if (key == "--out-dir") args.out_dir = value;
    else if (key == "--git-sha") args.git_sha = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (args.workload.empty() || args.scratch.empty() || args.out_dir.empty() ||
      args.seconds <= 0) {
    throw std::runtime_error(
        "usage: perfbench_runner --workload W --seed N --seconds S --trace 0|1 "
        "--scratch DIR --out-dir DIR [--git-sha SHA]");
  }
  return args;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / v.size());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

/// Wall and process CPU time at one instant of a phase.
struct Mark {
  int64_t wall_ns = 0;
  double cpu_s = 0;
};

Mark MarkNow() { return Mark{NowNs(), CpuSeconds()}; }

/// The closed loop's query sequence: round r is a permutation of the
/// kinds drawn from (seed, r), so every run of a seed sends the same
/// sequence. Once the deadline has passed and at least `min_queries` have
/// been sent no new round starts, so a phase runs whole rounds and every
/// kind weighs the same in it.
class QuerySequence {
 public:
  QuerySequence(uint64_t seed, size_t kinds, int64_t deadline_ns, uint64_t min_queries)
      : seed_(seed), kinds_(kinds), deadline_ns_(deadline_ns), min_queries_(min_queries) {}

  /// Next (query index, kind), or false when the phase is over.
  bool Take(uint64_t* index, size_t* kind) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ % kinds_ == 0) {
      if (next_ > 0 && next_ >= min_queries_ && NowNs() >= deadline_ns_) return false;
      round_starts_.push_back(MarkNow());
      perm_.resize(kinds_);
      for (size_t k = 0; k < kinds_; ++k) perm_[k] = k;
      std::mt19937_64 rng(seed_ * 1000003 + next_ / kinds_);
      std::shuffle(perm_.begin(), perm_.end(), rng);
    }
    *index = next_;
    *kind = perm_[next_ % kinds_];
    ++next_;
    return true;
  }

  /// When each round started; call once the clients have stopped.
  const std::vector<Mark>& round_starts() const { return round_starts_; }

 private:
  std::mutex mu_;
  const uint64_t seed_;
  const size_t kinds_;
  const int64_t deadline_ns_;
  const uint64_t min_queries_;
  uint64_t next_ = 0;
  std::vector<size_t> perm_;
  std::vector<Mark> round_starts_;
};

/// Per-query layer measurements of the traced run.
struct LayerSample {
  double parse_us = 0, analyze_us = 0, optimize_us = 0, plan_us = 0;
  double admission_us = 0, execute_ms = 0;
  int64_t rule_invocations = 0, rule_effective = 0;
  int64_t counters[kNumProfileCounters] = {};
  int64_t journal_events = 0;
};

struct QueryResult {
  uint64_t index = 0;  // position in the phase's query sequence
  size_t kind = 0;
  double ms = 0;  // client-observed latency
  bool threw = false;
  bool wrong = false;
  LayerSample layers;  // traced phase only
};

struct Phase {
  std::vector<QueryResult> results;  // in sequence order
  std::vector<Mark> rounds;          // round starts, then the phase end
};

// query_ms_p90 needs this many queries in the timed phase, so that at least
// ten lie beyond it; a phase whose deadline passes earlier runs on to the end
// of the round that reaches it.
constexpr uint64_t kMinTimedQueries = 100;

// Throughput and CPU per query are taken per window of whole rounds and
// reported as the median over kWindows windows, so a burst of host noise
// in one window does not move them.
constexpr size_t kWindows = 5;

struct WindowRates {
  std::vector<double> queries_per_s;
  std::vector<double> cpu_ms_per_query;
};

WindowRates Windows(const Phase& phase, size_t kinds) {
  WindowRates out;
  const size_t rounds = phase.rounds.size() - 1;
  const size_t windows = std::min(kWindows, rounds);
  for (size_t w = 0; w < windows; ++w) {
    const size_t first = rounds * w / windows, last = rounds * (w + 1) / windows;
    const Mark& start = phase.rounds[first];
    const Mark& end = phase.rounds[last];
    size_t completed = 0, correct = 0;
    for (const QueryResult& r : phase.results) {
      if (r.index < first * kinds || r.index >= last * kinds || r.threw) continue;
      ++completed;
      correct += !r.wrong;
    }
    out.queries_per_s.push_back(correct / ((end.wall_ns - start.wall_ns) / 1e9));
    out.cpu_ms_per_query.push_back((end.cpu_s - start.cpu_s) * 1e3 /
                                   std::max<size_t>(completed, 1));
  }
  return out;
}

class Runner {
 public:
  Runner(Workload& wl, uint64_t seed) : wl_(wl), seed_(seed) {}

  /// Runs one query through the user path (`Sql(text).Collect()`),
  /// checking its answer.
  QueryResult RunPlain(size_t kind) {
    const QueryKind& q = wl_.kinds()[kind];
    QueryResult r;
    r.kind = kind;
    const int64_t start = NowNs();
    try {
      std::vector<Row> rows = wl_.ctx().Sql(q.sql).Collect();
      r.ms = (NowNs() - start) / 1e6;
      Check(q, rows, &r);
    } catch (const std::exception& e) {
      r.threw = true;
      Report(q, std::string("threw: ") + e.what());
    }
    return r;
  }

  /// Runs one query phase by phase, each under its own span: parse,
  /// analyze, optimize and plan as separate probes, then Execute of the
  /// analyzed plan (which optimizes and plans again internally) under a
  /// lock, so the profile read afterwards is this query's own.
  QueryResult RunTraced(size_t kind, SpanLog* spans, uint64_t query_id) {
    const QueryKind& q = wl_.kinds()[kind];
    SqlContext& ctx = wl_.ctx();
    QueryResult r;
    r.kind = kind;
    LayerSample& s = r.layers;
    try {
      ScopedSpan root(spans, "query", 0, query_id);
      PlanPtr parsed;
      {
        ScopedSpan span(spans, "sql.parse", root.id(), query_id);
        parsed = ParseSql(q.sql).plan;
        s.parse_us = span.End() / 1e3;
      }
      PlanPtr analyzed;
      {
        ScopedSpan span(spans, "catalyst.analyze", root.id(), query_id);
        analyzed = ctx.Analyze(parsed);
        s.analyze_us = span.End() / 1e3;
      }
      PlanPtr optimized;
      {
        Metrics unused;
        QueryProfile rules(&unused);
        ScopedSpan span(spans, "catalyst.optimize", root.id(), query_id);
        optimized = ctx.Optimize(analyzed, nullptr, &rules);
        s.optimize_us = span.End() / 1e3;
        for (const auto& [name, stat] : rules.rule_stats()) {
          s.rule_invocations += stat.invocations;
          s.rule_effective += stat.effective;
        }
      }
      {
        ScopedSpan span(spans, "catalyst.plan", root.id(), query_id);
        ctx.PlanPhysical(optimized);
        s.plan_us = span.End() / 1e3;
      }
      std::vector<Row> rows;
      {
        std::lock_guard<std::mutex> lock(execute_mu_);
        const uint64_t events_before = ctx.exec().journal().appended();
        ScopedSpan span(spans, "api.execute", root.id(), query_id);
        const int64_t call_ns = NowNs();
        int64_t admitted_ns = call_ns;
        QueryOptions options;
        options.on_start = [&admitted_ns](QueryContext&) { admitted_ns = NowNs(); };
        rows = ctx.Execute(analyzed, options).Collect();
        s.execute_ms = span.End() / 1e6;
        s.admission_us = (admitted_ns - call_ns) / 1e3;
        const QueryProfile& profile = ctx.last_profile();
        for (int c = 0; c < kNumProfileCounters; ++c) {
          s.counters[c] = profile.Total(static_cast<ProfileCounter>(c));
        }
        s.journal_events =
            static_cast<int64_t>(ctx.exec().journal().appended() - events_before);
      }
      r.ms = root.End() / 1e6;
      Check(q, rows, &r);
    } catch (const std::exception& e) {
      r.threw = true;
      Report(q, std::string("threw: ") + e.what());
    }
    return r;
  }

  /// Closed loop: `clients` threads send queries in the seeded order
  /// for `seconds` and at least `min_queries`, finishing the round in
  /// flight at the deadline.
  Phase RunPhase(double seconds, SpanLog* spans, uint64_t min_queries) {
    Phase phase;
    std::mutex results_mu;
    QuerySequence sequence(seed_, wl_.kinds().size(),
                           NowNs() + static_cast<int64_t>(seconds * 1e9), min_queries);
    auto client = [&] {
      std::vector<QueryResult> mine;
      uint64_t i = 0;
      size_t kind = 0;
      while (sequence.Take(&i, &kind)) {
        mine.push_back(spans != nullptr ? RunTraced(kind, spans, i + 1)
                                        : RunPlain(kind));
        mine.back().index = i;
      }
      std::lock_guard<std::mutex> lock(results_mu);
      for (auto& r : mine) phase.results.push_back(std::move(r));
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < wl_.clients(); ++c) threads.emplace_back(client);
    client();
    for (auto& t : threads) t.join();
    std::sort(phase.results.begin(), phase.results.end(),
              [](const QueryResult& a, const QueryResult& b) { return a.index < b.index; });
    phase.rounds = sequence.round_starts();
    phase.rounds.push_back(MarkNow());
    return phase;
  }

  void Report(const QueryKind& q, const std::string& why) {
    std::lock_guard<std::mutex> lock(report_mu_);
    std::cerr << "perfbench: query failed (seed " << seed_ << ", query "
              << q.name << "): " << why << "\n  " << q.sql << "\n";
  }

 private:
  void Check(const QueryKind& q, const std::vector<Row>& rows, QueryResult* r) {
    std::string why = CompareDigests(q.expected, DigestOf(rows, q.ordered));
    if (!why.empty()) {
      r->wrong = true;
      Report(q, why);
    }
  }

  Workload& wl_;
  uint64_t seed_;
  std::mutex execute_mu_;
  std::mutex report_mu_;
};

/// Per-kind median latency of completed queries, by kind index; 0 for a
/// kind that completed no query.
std::vector<double> KindMedians(const Phase& phase, size_t kinds) {
  std::vector<std::vector<double>> by_kind(kinds);
  for (const QueryResult& r : phase.results) {
    if (!r.threw) by_kind[r.kind].push_back(r.ms);
  }
  std::vector<double> medians;
  for (auto& v : by_kind) medians.push_back(Median(v));
  return medians;
}

/// Every completed query's latency in sequence order, as [kind, ms] pairs.
std::string LatenciesJson(const Phase& phase, const Workload& wl) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const QueryResult& r : phase.results) {
    if (r.threw) continue;
    out << (first ? "" : ", ") << "[\"" << wl.kinds()[r.kind].name << "\", " << r.ms << "]";
    first = false;
  }
  out << "]";
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string StampJson(const Args& args, const Workload& wl) {
  const EngineConfig& c = wl.config();
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
      << ", \"git_sha\": \"" << args.git_sha << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"clients\": " << wl.clients()
      << ", \"config\": {\"num_threads\": " << c.num_threads
      << ", \"default_parallelism\": " << c.default_parallelism
      << ", \"batch_size\": " << c.batch_size
      << ", \"vectorized_enabled\": " << (c.vectorized_enabled ? "true" : "false")
      << ", \"query_memory_limit_bytes\": " << c.query_memory_limit_bytes
      << ", \"broadcast_threshold_bytes\": " << c.broadcast_threshold_bytes << "}}";
  return out.str();
}

int Run(const Args& args) {
  // ---- set-up, repeated; the last instance runs the timed phase ----------
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  std::vector<QueryKind> oracle;
  std::vector<int64_t> warmup_spill_files;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    wl.reset();  // the previous instance's tables go before the next set-up
    int64_t start = NowNs();
    std::unique_ptr<WorkloadData> data = GenerateWorkload(args.workload, args.seed);
    if (data == nullptr) throw std::runtime_error("unknown workload " + args.workload);
    wl = data->SetUp(args.scratch);
    double setup_ns = NowNs() - start;
    if (oracle.empty()) oracle = data->Oracle();  // untimed, once per run
    wl->SetKinds(oracle);

    // Warm-up: every kind once, spill files recorded for the layer guard.
    // A failing query is reported here and counted in the timed phase.
    start = NowNs();
    Runner warm(*wl, args.seed);
    warmup_spill_files.clear();
    for (size_t k = 0; k < wl->kinds().size(); ++k) {
      warm.RunPlain(k);
      warmup_spill_files.push_back(
          wl->ctx().last_profile().Total(ProfileCounter::kSpillFiles));
    }
    setup_ns += NowNs() - start;
    setup_s.push_back(setup_ns / 1e9);
  }
  wl->CheckLayer(warmup_spill_files);

  Runner runner(*wl, args.seed);
  std::vector<Metric> metrics;
  Phase phase, plain;
  std::unique_ptr<SpanLog> spans;
  const size_t kinds = wl->kinds().size();
  if (!args.trace) {
    phase = runner.RunPhase(args.seconds, nullptr, kMinTimedQueries);
  } else {
    // Half the time untraced, half traced: the ratio of the two is the
    // tracing overhead.
    plain = runner.RunPhase(args.seconds / 2, nullptr, 0);
    spans = std::make_unique<SpanLog>();
    phase = runner.RunPhase(args.seconds / 2, spans.get(), 0);
  }

  size_t attempted = 0, threw = 0, wrong = 0;
  std::vector<double> latencies;
  for (const Phase* p : {&plain, &phase}) {
    for (const QueryResult& r : p->results) {
      ++attempted;
      threw += r.threw;
      wrong += r.wrong;
      if (p == &phase && !r.threw) latencies.push_back(r.ms);
    }
  }
  const size_t failed = threw + wrong;
  std::vector<double> kind_medians = KindMedians(phase, kinds);
  for (size_t k = 0; k < kinds; ++k) {
    if (kind_medians[k] <= 0) {
      throw std::runtime_error("query " + wl->kinds()[k].name +
                               " never completed in the timed phase");
    }
  }

  if (!args.trace) {
    WindowRates rates = Windows(phase, kinds);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"queries_per_s", Median(rates.queries_per_s), "1/s"},
        {"query_ms_p50", Quantile(latencies, 0.5), "ms"},
        {"query_ms_p90", Quantile(latencies, 0.9), "ms"},
        {"query_ms_geomean", GeoMean(kind_medians), "ms"},
        {"cpu_ms_per_query", Median(rates.cpu_ms_per_query), "ms"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    std::vector<double> parse, analyze, optimize, plan, admission, execute, self;
    double rule_inv = 0, rule_eff = 0, catalyst_us = 0, query_us = 0, journal = 0;
    double counters[kNumProfileCounters] = {};
    double peak_reserved = 0;
    size_t n = 0;
    for (const QueryResult& r : phase.results) {
      if (r.threw) continue;
      const LayerSample& s = r.layers;
      ++n;
      parse.push_back(s.parse_us);
      analyze.push_back(s.analyze_us);
      optimize.push_back(s.optimize_us);
      plan.push_back(s.plan_us);
      admission.push_back(s.admission_us);
      execute.push_back(s.execute_ms);
      self.push_back(s.execute_ms - (s.optimize_us + s.plan_us) / 1e3);
      rule_inv += s.rule_invocations;
      rule_eff += s.rule_effective;
      catalyst_us += s.parse_us + s.analyze_us + s.optimize_us + s.plan_us;
      query_us += s.parse_us + s.analyze_us + s.execute_ms * 1e3;
      journal += s.journal_events;
      for (int c = 0; c < kNumProfileCounters; ++c) counters[c] += s.counters[c];
      peak_reserved = std::max<double>(
          peak_reserved,
          s.counters[static_cast<int>(ProfileCounter::kPeakReservedBytes)]);
    }
    auto per_query = [&](ProfileCounter c) {
      return counters[static_cast<int>(c)] / std::max<size_t>(n, 1);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double scanned = counters[static_cast<int>(ProfileCounter::kRowsScanned)];
    const double returned = counters[static_cast<int>(ProfileCounter::kRowsReturned)];
    ProbeResults probes = wl->Probe(spans.get(), static_cast<int64_t>(
                                                     per_query(ProfileCounter::kSpillBytes)));
    auto probe = [](double v) { return v < 0 ? 0.0 : v; };
    const double overhead =
        100.0 * (GeoMean(kind_medians) / GeoMean(KindMedians(plain, kinds)) - 1.0);
    metrics = {
        {"sql.parse_us", Median(parse), "us"},
        {"catalyst.analyze_us", Median(analyze), "us"},
        {"catalyst.optimize_us", Median(optimize), "us"},
        {"catalyst.rule_hit_ratio", ratio(rule_eff, rule_inv), "ratio"},
        {"catalyst.plan_us", Median(plan), "us"},
        {"catalyst.share_pct", 100 * ratio(catalyst_us, query_us), "%"},
        {"engine.admission_wait_us", Median(admission), "us"},
        {"api.execute_ms", Median(execute), "ms"},
        {"exec.self_ms", Median(self), "ms"},
        {"exec.shuffle_rows_per_query", per_query(ProfileCounter::kShuffleRows), "rows"},
        {"exec.broadcast_rows_per_query", per_query(ProfileCounter::kBroadcastRows), "rows"},
        {"exec.build_rows_per_query", per_query(ProfileCounter::kBuildRows), "rows"},
        {"datasources.colf_scan_ms", probe(probes.colf_scan_ms), "ms"},
        {"datasources.rows_scanned_per_query", per_query(ProfileCounter::kRowsScanned), "rows"},
        {"datasources.pushdown_ratio", ratio(returned, scanned), "ratio"},
        {"columnar.cache_build_ms", wl->cache_build_ms(), "ms"},
        {"columnar.cache_mb", wl->ctx().cache_manager().TotalMemoryBytes() / 1048576.0, "MiB"},
        {"columnar.cache_scan_ms", probe(probes.cache_scan_ms), "ms"},
        {"codegen.eval_ns_per_row", probe(probes.codegen_ns_per_row), "ns/row"},
        {"engine.spill_bytes_per_query", per_query(ProfileCounter::kSpillBytes), "bytes"},
        {"engine.spill_files_per_query", per_query(ProfileCounter::kSpillFiles), "files"},
        {"engine.peak_reserved_mb", peak_reserved / 1048576.0, "MiB"},
        {"engine.retry_ratio",
         ratio(counters[static_cast<int>(ProfileCounter::kRetries)],
               counters[static_cast<int>(ProfileCounter::kAttempts)]),
         "ratio"},
        {"util.spill_roundtrip_mb_s", probe(probes.spill_roundtrip_mb_s), "MB/s"},
        {"util.journal_events_per_query", journal / std::max<size_t>(n, 1), "events"},
        {"bench.trace_overhead_pct", overhead, "%"},
    };
  }

  // ---- the record, then the result line ------------------------------------
  const std::string stamp = StampJson(args, *wl);
  std::ostringstream kinds_json;
  kinds_json << "{";
  for (size_t k = 0; k < kinds; ++k) {
    kinds_json << (k ? ", " : "") << "\"" << wl->kinds()[k].name
               << "\": " << kind_medians[k];
  }
  kinds_json << "}";
  const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  {
    std::ofstream record(base + ".json");
    record << "{\"stamp\": " << stamp << ", \"queries\": " << attempted
           << ", \"threw\": " << threw << ", \"wrong\": " << wrong
           << ", \"kind_median_ms\": " << kinds_json.str()
           << ", \"latencies_ms\": " << LatenciesJson(phase, *wl)
           << ", \"metrics\": " << MetricsJson(metrics) << "}\n";
  }
  if (spans != nullptr) {
    std::ofstream(base + "-spans.json") << spans->ToJson();
  }
  std::cout << "stamp " << stamp << "\n";
  std::cout << "kind_median_ms " << kinds_json.str() << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ssql

int main(int argc, char** argv) {
  try {
    return ssql::perfbench::Run(ssql::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
