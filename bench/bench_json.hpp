#pragma once

// Machine-readable bench output shared by every harness (the CI bench-smoke
// job collects these as BENCH_*.json artifacts and feeds the micro-bench
// files through tools/bench_gate.py for regression gating). Split out of
// bench_util.hpp so the micro benches can emit JSON without linking the
// full training stack.

#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rna::benchutil {

/// One labelled row of numeric results.
struct BenchRow {
  std::string label;
  std::map<std::string, double> values;
};

/// Writes `{"bench": <name>, <field>: "<text>"..., "rows": [{"label": ...,
/// <key>: <value>...}]}`; `fields` are top-level strings describing the run.
inline void WriteBenchJson(
    const std::string& path, const std::string& bench,
    const std::vector<BenchRow>& rows,
    const std::map<std::string, std::string>& fields = {}) {
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot open " + path);
  // Round-trip precision: absolute gates (e.g. exact wire-byte ceilings)
  // compare against these values, so default 6-digit formatting would
  // round a conforming 14680064 up past a 14680064.0 ceiling.
  out.precision(17);
  out << "{\"bench\":\"" << bench << '"';
  for (const auto& [key, text] : fields) {
    out << ",\"" << key << "\":\"" << text << '"';
  }
  out << ",\"rows\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << (r ? ",\n" : "\n") << "{\"label\":\"" << rows[r].label << '"';
    for (const auto& [key, value] : rows[r].values) {
      out << ",\"" << key << "\":" << value;
    }
    out << "}";
  }
  out << "\n]}\n";
  if (!out.good()) throw std::runtime_error("failed writing " + path);
}

}  // namespace rna::benchutil
