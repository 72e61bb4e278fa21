#ifndef SSQL_PERFBENCH_HARNESS_H_
#define SSQL_PERFBENCH_HARNESS_H_

// Shared pieces of the repo benchmark: the engine-independent answer
// digest the oracle and the timed queries are compared by, the span
// recorder of the traced run, and the Workload interface each of the four
// workloads implements (see workloads.cc and README.md).

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/sql_context.h"

namespace ssql {
namespace perfbench {

// ---- answers ---------------------------------------------------------------

/// One result cell in a form both the oracle (native loops over the
/// generated vectors) and the engine's boxed Values reduce to: integers,
/// dates and booleans as int64, doubles, strings, and NULL.
struct Cell {
  enum Kind : uint8_t { kNull, kInt, kDouble, kString };
  Kind kind = kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;

  static Cell Int(int64_t v) { return Cell{kInt, v, 0, {}}; }
  static Cell Double(double v) { return Cell{kDouble, 0, v, {}}; }
  static Cell String(std::string v) { return Cell{kString, 0, 0, std::move(v)}; }
};
using Answer = std::vector<std::vector<Cell>>;

/// Converts an engine result row; throws std::runtime_error on a type the
/// digest does not cover.
std::vector<Cell> CellsOf(const Row& row);

/// Row count plus a checksum of a result. Non-double cells hash exactly;
/// doubles are summed per column, plainly and weighted by a hash of the
/// row's exact cells (which binds each value to its key), and compared
/// with a relative tolerance, because the engine adds partial sums in an
/// order that depends on partitioning. `ordered` mixes each row's position
/// into the hash, for queries whose ORDER BY fixes the row order.
struct Digest {
  size_t rows = 0;
  uint64_t exact = 0;
  std::vector<double> sum;
  std::vector<double> weighted;
  std::vector<double> magnitude;
};
Digest DigestOf(const Answer& answer, bool ordered);
Digest DigestOf(const std::vector<Row>& rows, bool ordered);
/// Empty when `got` matches `want`, else a one-line description.
std::string CompareDigests(const Digest& want, const Digest& got);

/// The q-quantile of `v` by linear interpolation between order
/// statistics; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The traced run's span log: name, start, end, parent span and the
/// benchmark's query id, kept in memory and written out as JSON at the end
/// of the run. Thread-safe; spans are recorded per layer call, never per
/// row.
class SpanLog {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    uint64_t query = 0;   // 0 = not part of a query (setup, probes)
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  uint32_t Begin(const std::string& name, uint32_t parent, uint64_t query);
  /// Closes span `id`; returns its duration in nanoseconds.
  int64_t End(uint32_t id);
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id - 1 indexes this vector
};

/// RAII span: a no-op when the log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint32_t parent = 0,
             uint64_t query = 0)
      : log_(log), start_ns_(NowNs()) {
    if (log_ != nullptr) id_ = log_->Begin(name, parent, query);
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  /// Closes the span once; returns its duration in nanoseconds.
  int64_t End() {
    if (done_) return elapsed_ns_;
    done_ = true;
    elapsed_ns_ = log_ != nullptr ? log_->End(id_) : NowNs() - start_ns_;
    return elapsed_ns_;
  }

 private:
  SpanLog* log_;
  int64_t start_ns_;
  uint32_t id_ = 0;
  bool done_ = false;
  int64_t elapsed_ns_ = 0;
};

// ---- workloads -------------------------------------------------------------

/// One query of a workload, with the answer its oracle computed.
struct QueryKind {
  QueryKind(std::string name_in, std::string sql_in, bool ordered_in = false)
      : name(std::move(name_in)), sql(std::move(sql_in)), ordered(ordered_in) {}

  std::string name;
  std::string sql;
  bool ordered = false;  // ORDER BY fixes the full row order
  Digest expected;
};

/// Per-layer numbers measured by a workload's probes in the traced run.
/// Negative = the layer is not on this workload's path (reported as 0).
struct ProbeResults {
  double colf_scan_ms = -1;
  double cache_scan_ms = -1;
  double codegen_ns_per_row = -1;
  double spill_roundtrip_mb_s = -1;
};

/// A workload: its tables live in one SqlContext built by the constructor
/// of the subclass (the timed part of set-up), and its layer guard proves
/// it still runs the layer it was chosen for.
class Workload {
 public:
  virtual ~Workload() = default;

  SqlContext& ctx() { return *ctx_; }
  const EngineConfig& config() const { return ctx_->config(); }
  const std::vector<QueryKind>& kinds() const { return kinds_; }
  /// Installs the query kinds with their oracle answers.
  void SetKinds(std::vector<QueryKind> kinds) { kinds_ = std::move(kinds); }
  virtual int clients() const { return 1; }
  /// Milliseconds spent building the columnar cache in set-up (0 if none).
  double cache_build_ms() const { return cache_build_ms_; }

  /// Throws std::runtime_error naming the query whose plan or profile
  /// shows the workload no longer exercises its layer. `spill_files` holds
  /// the per-kind spill file counts of the warm-up round.
  virtual void CheckLayer(const std::vector<int64_t>& spill_files) = 0;

  /// Traced-run probes of the layers this workload exercises.
  virtual ProbeResults Probe(SpanLog* spans, int64_t spill_bytes_per_query) = 0;

 protected:
  std::unique_ptr<SqlContext> ctx_;
  std::vector<QueryKind> kinds_;
  double cache_build_ms_ = 0;
};

/// Generated inputs of a workload: the source of one set-up instance and
/// of the oracle's answers.
class WorkloadData {
 public:
  virtual ~WorkloadData() = default;
  /// Builds one fully set-up instance (tables registered, cache built);
  /// its kinds are installed by the caller with SetKinds(Oracle()).
  virtual std::unique_ptr<Workload> SetUp(const std::string& scratch) = 0;
  /// The query kinds with the answers native loops over the generated
  /// inputs give, computed without the engine.
  virtual std::vector<QueryKind> Oracle() = 0;
};

/// Generates the named workload's inputs from `seed`; null for an unknown
/// name. Generation time belongs to set-up, so callers time this too.
std::unique_ptr<WorkloadData> GenerateWorkload(const std::string& name,
                                               uint64_t seed);

}  // namespace perfbench
}  // namespace ssql

#endif  // SSQL_PERFBENCH_HARNESS_H_
