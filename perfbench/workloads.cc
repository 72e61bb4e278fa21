// The four workloads of the repo benchmark. Each one generates its inputs
// from the run's seed, sets them up in a fresh SqlContext, answers every
// query natively for the oracle, guards that it still runs the layer it
// was chosen for, and probes that layer in the traced run. Why each
// workload exists is written in README.md and BENCHMARK.json.

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "bench/workloads.h"
#include "catalyst/codegen/compiled_expression.h"
#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "columnar/row_batch.h"
#include "perfbench/harness.h"
#include "util/spill_file.h"

#ifdef __linux__
#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <unistd.h>
#endif

namespace ssql {
namespace perfbench {
namespace {

constexpr int kProbeReps = 3;

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

/// Runs `fn` kProbeReps times under one span each and returns the median
/// duration in milliseconds.
template <typename Fn>
double TimeProbe(SpanLog* spans, const std::string& name, Fn&& fn) {
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(spans, name);
    fn();
    ms.push_back(span.End() / 1e6);
  }
  return Median(ms);
}

/// Creates the spill root and marks it a top-level directory
/// (FS_TOPDIR_FL, as `chattr +T` does). The engine spills into a new
/// directory per query under this root. ext4 puts a new directory in its
/// parent's block group and its files with it, and without a journal it
/// skips inodes freed in the last ~30 s, so with every per-query directory
/// in one group each spill file create scanned the inodes just freed, and
/// runs measured the filesystem's recent history. Under a top-level
/// directory ext4 spreads the per-query directories over block groups (see
/// README.md). Best effort: where the flag is unsupported the run goes on.
void PrepareSpillRoot(const std::string& dir) {
  std::filesystem::create_directories(dir);
#if defined(__linux__) && defined(FS_IOC_GETFLAGS) && defined(FS_TOPDIR_FL)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  int flags = 0;
  if (::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0 && !(flags & FS_TOPDIR_FL)) {
    flags |= FS_TOPDIR_FL;
    ::ioctl(fd, FS_IOC_SETFLAGS, &flags);
  }
  ::close(fd);
#endif
}

/// The Fig 8 engine configuration with spill files and diagnostics bundles
/// kept inside the run's scratch directory.
EngineConfig ScratchConfig(const std::string& scratch) {
  EngineConfig config = bench::SparkSqlConfig();
  config.spill_dir = scratch + "/spill";
  config.diag_dir = scratch + "/diag";
  PrepareSpillRoot(config.spill_dir);
  return config;
}

int32_t Days(const char* date) {
  DateValue d;
  if (!ParseDate(date, &d)) throw std::runtime_error("bad date literal");
  return d.days;
}

std::string Explain(SqlContext& ctx, const std::string& sql) {
  return ctx.Sql("EXPLAIN " + sql).Collect().at(0).GetString(0);
}

/// Operator lines of the physical plan section of an EXPLAIN.
std::vector<std::string> PhysicalOperatorLines(const std::string& explain) {
  std::vector<std::string> lines;
  size_t pos = explain.find("== Physical Plan ==");
  if (pos == std::string::npos) pos = 0;
  std::string line;
  for (size_t i = explain.find('\n', pos) + 1; i <= explain.size(); ++i) {
    if (i == explain.size() || explain[i] == '\n') {
      if (line.find_first_not_of(" \t") != std::string::npos) {
        lines.push_back(line);
      }
      line.clear();
    } else {
      line += explain[i];
    }
  }
  return lines;
}

// ---- AMPLab tables: amplab_colf and cached_columnar ------------------------

// Figure 8's scale and configuration (bench/bench_fig8_amplab.cc).
constexpr size_t kRankings = 60000;
constexpr size_t kUserVisits = 200000;
constexpr uint64_t kFig8BroadcastThreshold = 4ull * 1024 * 1024;

std::string Q1(int cutoff) {
  return "SELECT pageURL, pageRank FROM rankings WHERE pageRank > " +
         std::to_string(cutoff);
}
std::string Q2(int prefix) {
  return "SELECT substr(sourceIP, 1, " + std::to_string(prefix) +
         "), sum(adRevenue) FROM uservisits GROUP BY substr(sourceIP, 1, " +
         std::to_string(prefix) + ")";
}
std::string Q3(const std::string& until) {
  return "SELECT sourceIP, sum(adRevenue) AS totalRevenue, avg(pageRank) AS "
         "avgPageRank FROM rankings JOIN uservisits ON pageURL = destURL "
         "WHERE visitDate BETWEEN '1980-01-01' AND '" +
         until + "' GROUP BY sourceIP ORDER BY totalRevenue DESC LIMIT 1";
}

const std::pair<const char*, int> kQ1[] = {{"q1a", 9500}, {"q1b", 5000}, {"q1c", 100}};
const std::pair<const char*, int> kQ2[] = {{"q2a", 4}, {"q2b", 8}, {"q2c", 12}};
const std::pair<const char*, const char*> kQ3[] = {
    {"q3a", "1980-04-01"}, {"q3b", "1983-01-01"}, {"q3c", "2010-01-01"}};

class AmplabWorkload : public Workload {
 public:
  AmplabWorkload(const bench::RankingsData& rankings,
                 const bench::UserVisitsData& visits,
                 const std::string& scratch, bool cached)
      : scratch_(scratch), cached_(cached) {
    EngineConfig config = ScratchConfig(scratch);
    config.broadcast_threshold_bytes = kFig8BroadcastThreshold;
    ctx_ = std::make_unique<SqlContext>(config);
    bench::SetupAmplabTables(*ctx_, rankings, visits, scratch);
    if (cached_) {
      const int64_t start = NowNs();
      for (const char* table : {"rankings", "uservisits"}) {
        cached_frames_.push_back(ctx_->Table(table).Cache());
      }
      cache_build_ms_ = MsSince(start);
    }
  }

  void CheckLayer(const std::vector<int64_t>&) override {
    for (const QueryKind& kind : kinds_) {
      std::vector<std::string> ops =
          PhysicalOperatorLines(Explain(*ctx_, kind.sql));
      for (const std::string& op : ops) {
        const bool batched = op.find("[batched]") != std::string::npos;
        // Exchanges and final aggregates have no batched form at this
        // commit; every operator below them must run batched.
        const bool row_only = op.find("Exchange") != std::string::npos ||
                              op.find("Coalesce") != std::string::npos ||
                              op.find("HashAggregate(Final)") != std::string::npos;
        if (cached_ && !batched && !row_only) {
          throw std::runtime_error("layer guard: " + kind.name +
                                   " has an operator not stamped [batched]: " + op);
        }
        if (!cached_ && batched) {
          throw std::runtime_error("layer guard: " + kind.name +
                                   " runs batched over colf: " + op);
        }
      }
    }
  }

  ProbeResults Probe(SpanLog* spans, int64_t) override {
    ProbeResults out;
    if (!cached_) {
      // Full scan of each colf relation through its public scan interface.
      std::vector<std::shared_ptr<ColfRelation>> relations;
      for (const char* file : {"/rankings.colf", "/uservisits.colf"}) {
        relations.push_back(ColfRelation::Open({{"path", scratch_ + file}}));
      }
      out.colf_scan_ms = TimeProbe(spans, "datasources.colf_scan", [&] {
        for (const auto& rel : relations) {
          std::vector<int> columns(rel->schema()->num_fields());
          for (size_t i = 0; i < columns.size(); ++i) columns[i] = static_cast<int>(i);
          QueryContextPtr query = ctx_->exec().BeginQuery();
          size_t rows = rel->ScanFiltered(*query, columns, {}).size();
          query->Finish("ok");
          if (rows == 0) throw std::runtime_error("colf probe scanned no rows");
        }
      });
      return out;
    }
    // Cached tables: batched decode of every column, then the workload's
    // predicates compiled to register programs over the decoded batches.
    std::vector<std::shared_ptr<const CachedTable>> tables;
    for (const DataFrame& df : cached_frames_) {
      tables.push_back(ctx_->cache_manager().Get(df.plan()->TreeString()));
      if (tables.back() == nullptr) throw std::runtime_error("cache entry missing");
    }
    const size_t batch_size = ctx_->config().batch_size;
    auto scan_all = [&](const CachedTable& table) {
      std::vector<int> columns(table.schema()->num_fields());
      for (size_t i = 0; i < columns.size(); ++i) columns[i] = static_cast<int>(i);
      return table.ScanBatches(columns, batch_size, &ctx_->exec());
    };
    out.cache_scan_ms = TimeProbe(spans, "columnar.cache_scan", [&] {
      for (const auto& table : tables) {
        if (scan_all(*table).TotalRows() != table->num_rows()) {
          throw std::runtime_error("cache probe lost rows");
        }
      }
    });

    // The expressions the columnar queries evaluate outside the scan's
    // pushed filters, bound to rankings(pageURL, pageRank, avgDuration)
    // and uservisits(sourceIP, destURL, visitDate, adRevenue).
    auto lit_f64 = [](double v) { return Literal::Make(Value(v), DataType::Double()); };
    ExprPtr rank = BoundReference::Make(1, DataType::Int32(), false);
    ExprPtr duration = BoundReference::Make(2, DataType::Int32(), false);
    ExprPtr revenue = BoundReference::Make(3, DataType::Double(), false);
    struct Program {
      size_t table;
      ExprPtr expr;
    };
    const std::vector<Program> programs = {
        {0, Add::Make(rank, duration)},
        {1, GreaterThan::Make(Multiply::Make(revenue, lit_f64(2.0)), lit_f64(500.0))},
        {1, Multiply::Make(revenue, lit_f64(0.5))},
    };
    std::vector<BatchDataset> decoded;
    for (const auto& table : tables) decoded.push_back(scan_all(*table));
    std::vector<double> ns_per_row;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      ScopedSpan span(spans, "codegen.eval");
      size_t rows = 0;
      for (const Program& p : programs) {
        auto compiled = CompiledExpression::Compile(p.expr);
        auto evaluator = compiled->NewVectorEvaluator();
        for (const auto& part : decoded[p.table].partitions()) {
          for (const auto& batch : part->batches) {
            ColumnVector out_col(compiled->result_type());
            out_col.Reserve(batch->ActiveRows());
            evaluator.EvaluateColumn(*batch, &out_col);
            rows += out_col.size();
          }
        }
      }
      ns_per_row.push_back(static_cast<double>(span.End()) / rows);
    }
    out.codegen_ns_per_row = Median(ns_per_row);
    return out;
  }

 private:
  std::string scratch_;
  bool cached_;
  std::vector<DataFrame> cached_frames_;
};

class AmplabData : public WorkloadData {
 public:
  AmplabData(uint64_t seed, bool cached)
      : rankings_(bench::GenerateRankings(kRankings, seed)),
        visits_(bench::GenerateUserVisits(kUserVisits, kRankings, seed + 1)),
        cached_(cached) {}

  std::unique_ptr<Workload> SetUp(const std::string& scratch) override {
    return std::make_unique<AmplabWorkload>(rankings_, visits_, scratch, cached_);
  }

  std::vector<QueryKind> Oracle() override {
    std::map<std::string, Answer> answers = AnswerQueries();
    std::vector<QueryKind> kinds = Queries();
    for (QueryKind& k : kinds) k.expected = DigestOf(answers.at(k.name), k.ordered);
    return kinds;
  }

 private:
  std::map<std::string, Answer> AnswerQueries() const {
    std::map<std::string, Answer> answers;
    const auto& r = rankings_;
    const auto& v = visits_;
    for (const auto& [name, cutoff] : kQ1) {
      Answer& a = answers[name];
      for (size_t i = 0; i < r.page_rank.size(); ++i) {
        if (r.page_rank[i] > cutoff) {
          a.push_back({Cell::String(r.page_url[i]), Cell::Int(r.page_rank[i])});
        }
      }
    }
    if (cached_) {
      AnswerColumnarQueries(&answers);
      return answers;
    }
    for (const auto& [name, prefix] : kQ2) {
      std::unordered_map<std::string, double> agg;
      for (size_t i = 0; i < v.source_ip.size(); ++i) {
        agg[v.source_ip[i].substr(0, prefix)] += v.ad_revenue[i];
      }
      Answer& a = answers[name];
      for (const auto& [key, sum] : agg) a.push_back({Cell::String(key), Cell::Double(sum)});
    }
    std::unordered_map<std::string, int32_t> rank_of;
    for (size_t i = 0; i < r.page_url.size(); ++i) rank_of.emplace(r.page_url[i], r.page_rank[i]);
    for (const auto& [name, until] : kQ3) {
      const int32_t lo = Days("1980-01-01"), hi = Days(until);
      struct Acc {
        double revenue = 0;
        int64_t rank_sum = 0;
        int64_t count = 0;
      };
      std::unordered_map<std::string, Acc> by_ip;
      for (size_t i = 0; i < v.dest_url.size(); ++i) {
        if (v.visit_date_days[i] < lo || v.visit_date_days[i] > hi) continue;
        auto it = rank_of.find(v.dest_url[i]);
        if (it == rank_of.end()) continue;
        Acc& acc = by_ip[v.source_ip[i]];
        acc.revenue += v.ad_revenue[i];
        acc.rank_sum += it->second;
        acc.count += 1;
      }
      const std::pair<const std::string, Acc>* best = nullptr;
      for (const auto& entry : by_ip) {
        if (best == nullptr || entry.second.revenue > best->second.revenue) best = &entry;
      }
      Answer& a = answers[name];
      if (best != nullptr) {
        a.push_back({Cell::String(best->first), Cell::Double(best->second.revenue),
                     Cell::Double(static_cast<double>(best->second.rank_sum) /
                                  best->second.count)});
      }
    }
    return answers;
  }

  // Scan→filter→aggregate over int, double and date columns, batched at
  // every node below the exchange over the columnar cache.
  static std::vector<QueryKind> ColumnarQueries() {
    return {
        {"dates", "SELECT count(*), sum(adRevenue) FROM uservisits WHERE "
                  "visitDate BETWEEN '1995-01-01' AND '1999-12-31'"},
        {"int_groups", "SELECT avgDuration, count(*), sum(pageRank + avgDuration) "
                       "FROM rankings WHERE pageRank > 100 GROUP BY avgDuration"},
        {"revenue_band", "SELECT count(*), sum(adRevenue * 0.5), min(adRevenue), "
                         "max(adRevenue) FROM uservisits WHERE adRevenue * 2.0 > "
                         "500.0 AND adRevenue < 750.0"},
        {"date_groups", "SELECT visitDate, count(*) FROM uservisits WHERE "
                        "adRevenue < 10.0 GROUP BY visitDate"},
    };
  }

  void AnswerColumnarQueries(std::map<std::string, Answer>* out) const {
    std::map<std::string, Answer>& answers = *out;
    const auto& r = rankings_;
    const auto& v = visits_;
    {
      const int32_t lo = Days("1995-01-01"), hi = Days("1999-12-31");
      int64_t count = 0;
      double sum = 0;
      for (size_t i = 0; i < v.visit_date_days.size(); ++i) {
        if (v.visit_date_days[i] >= lo && v.visit_date_days[i] <= hi) {
          ++count;
          sum += v.ad_revenue[i];
        }
      }
      answers["dates"] = {{Cell::Int(count), Cell::Double(sum)}};
    }
    {
      std::map<int32_t, std::pair<int64_t, int64_t>> groups;
      for (size_t i = 0; i < r.page_rank.size(); ++i) {
        if (r.page_rank[i] > 100) {
          auto& g = groups[r.avg_duration[i]];
          g.first += 1;
          g.second += r.page_rank[i] + r.avg_duration[i];
        }
      }
      Answer& a = answers["int_groups"];
      for (const auto& [key, g] : groups) {
        a.push_back({Cell::Int(key), Cell::Int(g.first), Cell::Int(g.second)});
      }
    }
    {
      int64_t count = 0;
      double sum = 0, lo = 0, hi = 0;
      for (double x : v.ad_revenue) {
        if (x * 2.0 > 500.0 && x < 750.0) {
          lo = count == 0 ? x : std::min(lo, x);
          hi = count == 0 ? x : std::max(hi, x);
          ++count;
          sum += x * 0.5;
        }
      }
      answers["revenue_band"] = {
          {Cell::Int(count), Cell::Double(sum), Cell::Double(lo), Cell::Double(hi)}};
    }
    {
      std::map<int32_t, int64_t> groups;
      for (size_t i = 0; i < v.ad_revenue.size(); ++i) {
        if (v.ad_revenue[i] < 10.0) groups[v.visit_date_days[i]] += 1;
      }
      Answer& a = answers["date_groups"];
      for (const auto& [day, count] : groups) a.push_back({Cell::Int(day), Cell::Int(count)});
    }
  }

  std::vector<QueryKind> Queries() const {
    std::vector<QueryKind> kinds;
    for (const auto& [name, cutoff] : kQ1) kinds.push_back({name, Q1(cutoff)});
    if (cached_) {
      for (QueryKind& k : ColumnarQueries()) kinds.push_back(std::move(k));
      return kinds;
    }
    for (const auto& [name, prefix] : kQ2) kinds.push_back({name, Q2(prefix)});
    for (const auto& [name, until] : kQ3) kinds.push_back({name, Q3(until)});
    return kinds;
  }

  bench::RankingsData rankings_;
  bench::UserVisitsData visits_;
  bool cached_;
};

// ---- spill_pressure ---------------------------------------------------------

constexpr size_t kSpillFactRows = 100000;
constexpr int kSpillKeys = 5000;
// Small enough that every query spills (CheckLayer enforces it) and the
// join's build side takes the Grace path; at 1 MiB the planner broadcasts
// the dimension instead. At 448 and 512 KiB the join fails: the broadcast
// threshold is capped at the budget but the dimension's size estimate is
// below its actual ~880 KB build. At 256 KiB the sort made
// ~650 spill files per query and every latency spread was 2-3x wider.
constexpr int64_t kSpillMemoryLimit = 384 * 1024;

std::string SpillKey(int i) { return "key_" + std::to_string(i); }

class SpillWorkload : public Workload {
 public:
  SpillWorkload(const std::vector<int>& keys, const std::vector<int32_t>& values,
                const std::string& scratch)
      : scratch_(scratch) {
    EngineConfig config = ScratchConfig(scratch);
    config.query_memory_limit_bytes = kSpillMemoryLimit;
    ctx_ = std::make_unique<SqlContext>(config);
    auto fact = StructType::Make({Field("k", DataType::String(), false),
                                  Field("v", DataType::Int32(), false)});
    std::vector<Row> rows;
    rows.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      rows.push_back(Row({Value(SpillKey(keys[i])), Value(values[i])}));
    }
    probe_rows_ = std::vector<Row>(rows.begin(), rows.begin() + 4096);
    ctx_->CreateDataFrame(fact, std::move(rows)).RegisterTempTable("t");
    auto dim = StructType::Make({Field("k", DataType::String(), false),
                                 Field("w", DataType::Int32(), false)});
    std::vector<Row> dim_rows;
    dim_rows.reserve(kSpillKeys);
    for (int i = 0; i < kSpillKeys; ++i) dim_rows.push_back(Row({Value(SpillKey(i)), Value(i)}));
    ctx_->CreateDataFrame(dim, std::move(dim_rows)).RegisterTempTable("dim");
  }

  void CheckLayer(const std::vector<int64_t>& spill_files) override {
    for (size_t i = 0; i < kinds_.size(); ++i) {
      if (spill_files[i] <= 0) {
        throw std::runtime_error("layer guard: " + kinds_[i].name +
                                 " did not spill under the memory limit");
      }
    }
  }

  ProbeResults Probe(SpanLog* spans, int64_t spill_bytes_per_query) override {
    // One query's spill volume through the util layer's spill file: CRC
    // framed writes, then a sequential read-back.
    const int64_t volume = std::max<int64_t>(spill_bytes_per_query, 1 << 20);
    std::vector<double> mb_s;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      ScopedSpan span(spans, "util.spill_roundtrip");
      SpillFile file(scratch_ + "/probe", "probe");
      int64_t written = 0;
      for (size_t i = 0; written < volume; i = (i + 1) % probe_rows_.size()) {
        written += file.Append(probe_rows_[i]);
      }
      file.FinishWrites();
      SpillFile::Reader reader(file);
      Row row;
      size_t read = 0;
      while (reader.Next(&row)) ++read;
      if (read != file.row_count()) throw std::runtime_error("spill probe lost rows");
      mb_s.push_back(written / 1e6 / (span.End() / 1e9));
    }
    ProbeResults out;
    out.spill_roundtrip_mb_s = Median(mb_s);
    return out;
  }

 private:
  std::string scratch_;
  std::vector<Row> probe_rows_;
};

class SpillData : public WorkloadData {
 public:
  explicit SpillData(uint64_t seed) {
    std::mt19937_64 rng(seed);
    keys_.reserve(kSpillFactRows);
    values_.reserve(kSpillFactRows);
    for (size_t i = 0; i < kSpillFactRows; ++i) {
      keys_.push_back(static_cast<int>(rng() % kSpillKeys));
      values_.push_back(static_cast<int32_t>(rng() % 1000));
    }
  }

  std::unique_ptr<Workload> SetUp(const std::string& scratch) override {
    return std::make_unique<SpillWorkload>(keys_, values_, scratch);
  }

  std::vector<QueryKind> Oracle() override {
    std::vector<QueryKind> kinds = Queries();
    // join_agg_sort: dim.w == key id, so grouping by w groups by key.
    std::vector<int64_t> sum(kSpillKeys, 0), count(kSpillKeys, 0);
    for (size_t i = 0; i < keys_.size(); ++i) {
      sum[keys_[i]] += values_[i];
      count[keys_[i]] += 1;
    }
    std::vector<int> order;
    for (int k = 0; k < kSpillKeys; ++k) {
      if (count[k] > 0) order.push_back(k);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return sum[a] != sum[b] ? sum[a] > sum[b] : a < b;
    });
    Answer join;
    for (int k : order) join.push_back({Cell::Int(k), Cell::Int(sum[k]), Cell::Int(count[k])});
    Answer group;
    for (int k : order) {
      group.push_back({Cell::String(SpillKey(k)), Cell::Int(sum[k]), Cell::Int(count[k])});
    }
    std::vector<std::pair<int32_t, std::string>> sorted;
    sorted.reserve(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) sorted.emplace_back(values_[i], SpillKey(keys_[i]));
    std::sort(sorted.begin(), sorted.end());
    Answer sort;
    sort.reserve(sorted.size());
    for (auto& [v, k] : sorted) sort.push_back({Cell::String(std::move(k)), Cell::Int(v)});
    const Answer* answers[] = {&join, &group, &sort};
    for (size_t i = 0; i < kinds.size(); ++i) {
      kinds[i].expected = DigestOf(*answers[i], kinds[i].ordered);
    }
    return kinds;
  }

 private:
  static std::vector<QueryKind> Queries() {
    return {
        {"join_agg_sort",
         "SELECT dim.w AS w, sum(t.v) AS s, count(*) AS c FROM t JOIN dim ON "
         "t.k = dim.k GROUP BY dim.w ORDER BY s DESC, w",
         true},
        {"group_by", "SELECT k, sum(v), count(*) FROM t GROUP BY k"},
        {"order_by", "SELECT k, v FROM t ORDER BY v, k", true},
    };
  }

  std::vector<int> keys_;
  std::vector<int32_t> values_;
};

// ---- short_queries -----------------------------------------------------------

constexpr int kShortRows = 2000;
constexpr int kShortGroups = 16;
const int kNestedDepths[] = {4, 6, 8};

/// bench_optimizer's nested query shape: each level adds a filter and an
/// arithmetic projection.
std::string NestedQuery(int depth) {
  std::string sql = "SELECT a, b, c FROM n WHERE a > 0";
  for (int i = 0; i < depth; ++i) {
    sql = "SELECT a + 1 AS a, b, c FROM (" + sql + ") s" + std::to_string(i) +
          " WHERE b > " + std::to_string(i) + " AND c LIKE 'prefix%'";
  }
  return sql;
}

struct ShortTables {
  // s(id, grp, parent, val, name)
  std::vector<int32_t> grp, parent;
  std::vector<double> val;
  std::vector<std::string> name;
  // n(a, b, c)
  std::vector<int32_t> a, b;
  std::vector<std::string> c;
};

class ShortWorkload : public Workload {
 public:
  ShortWorkload(const ShortTables& d, const std::string& scratch) {
    ctx_ = std::make_unique<SqlContext>(ScratchConfig(scratch));
    auto s = StructType::Make({Field("id", DataType::Int32(), false),
                               Field("grp", DataType::Int32(), false),
                               Field("parent", DataType::Int32(), false),
                               Field("val", DataType::Double(), false),
                               Field("name", DataType::String(), false)});
    std::vector<Row> rows;
    for (int i = 0; i < kShortRows; ++i) {
      rows.push_back(Row({Value(int32_t{i}), Value(d.grp[i]), Value(d.parent[i]),
                          Value(d.val[i]), Value(d.name[i])}));
    }
    ctx_->CreateDataFrame(s, std::move(rows)).RegisterTempTable("s");
    auto n = StructType::Make({Field("a", DataType::Int32(), false),
                               Field("b", DataType::Int32(), false),
                               Field("c", DataType::String(), false)});
    std::vector<Row> nrows;
    for (int i = 0; i < kShortRows; ++i) {
      nrows.push_back(Row({Value(d.a[i]), Value(d.b[i]), Value(d.c[i])}));
    }
    ctx_->CreateDataFrame(n, std::move(nrows)).RegisterTempTable("n");
  }

  int clients() const override { return 2; }
  void CheckLayer(const std::vector<int64_t>&) override {}
  ProbeResults Probe(SpanLog*, int64_t) override { return {}; }
};

class ShortData : public WorkloadData {
 public:
  explicit ShortData(uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kShortRows; ++i) {
      d_.grp.push_back(static_cast<int32_t>(rng() % kShortGroups));
      d_.parent.push_back(static_cast<int32_t>(rng() % kShortRows));
      d_.val.push_back(static_cast<double>(rng() % 100000) / 7.0);
      d_.name.push_back("name" + std::to_string(rng() % 100000));
      d_.a.push_back(static_cast<int32_t>(rng() % 200) - 20);
      d_.b.push_back(static_cast<int32_t>(rng() % 20));
      const uint64_t suffix = rng() % 1000;
      d_.c.push_back((rng() % 4 == 0 ? "other" : "prefix") + std::to_string(suffix));
    }
    point_id_ = static_cast<int>(rng() % kShortRows);
  }

  std::unique_ptr<Workload> SetUp(const std::string& scratch) override {
    return std::make_unique<ShortWorkload>(d_, scratch);
  }

  std::vector<QueryKind> Oracle() override {
    std::vector<QueryKind> kinds = Queries();
    std::map<std::string, Answer> answers;
    answers["point"] = {{Cell::Int(point_id_), Cell::String(d_.name[point_id_]),
                         Cell::Double(d_.val[point_id_])}};
    std::map<int32_t, std::pair<int64_t, double>> groups;
    for (int i = 0; i < kShortRows; ++i) {
      groups[d_.grp[i]].first += 1;
      groups[d_.grp[i]].second += d_.val[i];
    }
    for (const auto& [g, agg] : groups) {
      answers["group_by"].push_back({Cell::Int(g), Cell::Int(agg.first), Cell::Double(agg.second)});
    }
    Answer& join = answers["self_join"];
    for (int j = 0; j < kShortRows; ++j) {
      if (d_.grp[d_.parent[j]] == 3) {
        join.push_back({Cell::Int(d_.parent[j]), Cell::Int(j), Cell::Double(d_.val[j])});
      }
    }
    for (int depth : kNestedDepths) {
      Answer& a = answers["nested" + std::to_string(depth)];
      for (int i = 0; i < kShortRows; ++i) {
        if (d_.a[i] <= 0) continue;
        if (d_.b[i] <= depth - 1 || d_.c[i].rfind("prefix", 0) != 0) continue;
        a.push_back({Cell::Int(d_.a[i] + depth), Cell::Int(d_.b[i]), Cell::String(d_.c[i])});
      }
    }
    for (QueryKind& k : kinds) k.expected = DigestOf(answers.at(k.name), k.ordered);
    return kinds;
  }

 private:
  std::vector<QueryKind> Queries() const {
    std::vector<QueryKind> kinds = {
        {"point", "SELECT id, name, val FROM s WHERE id = " + std::to_string(point_id_)},
        {"group_by", "SELECT grp, count(*), sum(val) FROM s GROUP BY grp"},
        {"self_join", "SELECT a.id, b.id, b.val FROM s a JOIN s b ON a.id = b.parent "
                      "WHERE a.grp = 3"},
    };
    for (int depth : kNestedDepths) {
      kinds.push_back({"nested" + std::to_string(depth), NestedQuery(depth)});
    }
    return kinds;
  }

  ShortTables d_;
  int point_id_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadData> GenerateWorkload(const std::string& name, uint64_t seed) {
  if (name == "amplab_colf" || name == "cached_columnar") {
    return std::make_unique<AmplabData>(seed, name == "cached_columnar");
  }
  if (name == "spill_pressure") return std::make_unique<SpillData>(seed);
  if (name == "short_queries") return std::make_unique<ShortData>(seed);
  return nullptr;
}

}  // namespace perfbench
}  // namespace ssql
