#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace ssql {
namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

template <typename RowT, typename CellsFn>
Digest DigestRows(const std::vector<RowT>& rows, bool ordered, CellsFn cells_of) {
  Digest d;
  d.rows = rows.size();
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Cell>& cells = cells_of(rows[r]);
    if (d.sum.size() < cells.size()) {
      d.sum.resize(cells.size(), 0);
      d.weighted.resize(cells.size(), 0);
      d.magnitude.resize(cells.size(), 0);
    }
    uint64_t h = Mix(cells.size());
    for (const Cell& c : cells) {
      uint64_t v = 0;
      switch (c.kind) {
        case Cell::kNull: v = 0x6e756c6cull; break;
        case Cell::kInt: v = Mix(static_cast<uint64_t>(c.i)); break;
        case Cell::kDouble: v = 0x646f75626c65ull; break;  // value checked below
        case Cell::kString: v = HashBytes(c.s); break;
      }
      h = Mix(h ^ (v + c.kind));
    }
    const double weight = static_cast<double>(h >> 11) * 0x1.0p-53;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].kind != Cell::kDouble) continue;
      d.sum[i] += cells[i].d;
      d.weighted[i] += weight * cells[i].d;
      d.magnitude[i] += std::fabs(cells[i].d);
    }
    d.exact += ordered ? Mix(h + r) : h;
  }
  return d;
}

}  // namespace

std::vector<Cell> CellsOf(const Row& row) {
  std::vector<Cell> cells;
  cells.reserve(row.size());
  for (const Value& v : row.values()) {
    if (v.is_null()) {
      cells.push_back(Cell{});
      continue;
    }
    switch (v.type_id()) {
      case TypeId::kBoolean: cells.push_back(Cell::Int(v.bool_value())); break;
      case TypeId::kInt32: cells.push_back(Cell::Int(v.i32())); break;
      case TypeId::kInt64: cells.push_back(Cell::Int(v.i64())); break;
      case TypeId::kDate: cells.push_back(Cell::Int(v.date().days)); break;
      case TypeId::kDouble: cells.push_back(Cell::Double(v.f64())); break;
      case TypeId::kString: cells.push_back(Cell::String(v.str())); break;
      default:
        throw std::runtime_error("result cell of unsupported type: " +
                                 v.ToString());
    }
  }
  return cells;
}

Digest DigestOf(const Answer& answer, bool ordered) {
  return DigestRows(answer, ordered,
                    [](const std::vector<Cell>& cells) -> const std::vector<Cell>& {
                      return cells;
                    });
}

Digest DigestOf(const std::vector<Row>& rows, bool ordered) {
  std::vector<Cell> scratch;
  return DigestRows(rows, ordered, [&scratch](const Row& row) -> const std::vector<Cell>& {
    scratch = CellsOf(row);
    return scratch;
  });
}

std::string CompareDigests(const Digest& want, const Digest& got) {
  std::ostringstream why;
  if (want.rows != got.rows) {
    why << "row count " << got.rows << ", expected " << want.rows;
    return why.str();
  }
  if (want.exact != got.exact) return "checksum of exact cells differs";
  if (want.sum.size() != got.sum.size()) return "column count differs";
  for (size_t i = 0; i < want.sum.size(); ++i) {
    // Partial sums are added in a partition-dependent order; 1e-9 of the
    // column's total magnitude absorbs that and nothing a wrong row makes.
    const double tol = 1e-9 * (want.magnitude[i] + 1.0);
    if (std::fabs(want.sum[i] - got.sum[i]) > tol ||
        std::fabs(want.weighted[i] - got.weighted[i]) > tol) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "double column %zu: sum %.17g, expected %.17g", i,
                    got.sum[i], want.sum[i]);
      return buf;
    }
  }
  return "";
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

uint32_t SpanLog::Begin(const std::string& name, uint32_t parent,
                        uint64_t query) {
  Span span;
  span.parent = parent;
  span.query = query;
  span.name = name;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanLog::End(uint32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_ns = now;
  return now - span.start_ns;
}

std::string SpanLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"query\":" << s.query
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - base
        << ",\"end_ns\":" << s.end_ns - base << "}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace perfbench
}  // namespace ssql
