#include "tuner/results_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/expect.hpp"

namespace ddmc::tuner {

namespace {
// The column schema grew from 11 to 13 columns when PR 1 added the
// channel_block/unroll tuner axes, which made stale files fail with an
// unhelpful "unexpected header" message. Since v2 the CSV leads with an
// explicit schema line so version/column mismatches are diagnosed clearly.
// v3 replaced the six per-kernel-axis columns with one engine-native
// config cell ("name=value;…"), so a row can persist any engine's axes;
// v2 files still load, their kernel-axis columns migrating into the
// config cell. v4 appended the `pruned` flag; v3 rows load unpruned.
constexpr const char* kSchemaPrefix = "# ddmc-tuner-results ";

/// Every schema this build reads; the first is the one it writes.
struct Schema {
  int version;
  std::size_t columns;
  const char* header;
};
constexpr Schema kSchemas[] = {
    {4, 9, "device,observation,dms,config,gflops,seconds,snr,evaluated,pruned"},
    {3, 8, "device,observation,dms,config,gflops,seconds,snr,evaluated"},
    {2, 13,
     "device,observation,dms,wi_time,wi_dm,elem_time,elem_dm,channel_block,"
     "unroll,gflops,seconds,snr,evaluated"},
};
constexpr const Schema& kCurrent = kSchemas[0];

const Schema* find_schema(int version) {
  for (const Schema& schema : kSchemas) {
    if (schema.version == version) return &schema;
  }
  return nullptr;
}

/// Built from kCurrent so save and load can never disagree about what the
/// schema line says.
const std::string& schema_line() {
  static const std::string line = std::string(kSchemaPrefix) + "v" +
                                  std::to_string(kCurrent.version) +
                                  " cols=" + std::to_string(kCurrent.columns);
  return line;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

double parse_double(const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    DDMC_REQUIRE(pos == s.size(), "malformed numeric field: " + s);
    return v;
  } catch (const std::exception&) {
    throw invalid_argument("malformed numeric field: " + s);
  }
}

std::size_t parse_size(const std::string& s) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    DDMC_REQUIRE(pos == s.size(), "malformed integer field: " + s);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw invalid_argument("malformed integer field: " + s);
  }
}

/// Shared tail of a v2 and a v3 row: everything after the config cell(s).
void parse_row_tail(ResultRow& r, const std::vector<std::string>& cells,
                    std::size_t first) {
  r.gflops = parse_double(cells[first]);
  r.seconds = parse_double(cells[first + 1]);
  r.snr = parse_double(cells[first + 2]);
  r.evaluated = parse_size(cells[first + 3]);
}

/// A v3 or v4 row: one config cell; v4 appends the pruned flag.
ResultRow parse_config_row(const std::vector<std::string>& cells,
                           const std::string& line) {
  ResultRow r;
  r.device = cells[0];
  r.observation = cells[1];
  r.dms = parse_size(cells[2]);
  const auto config = engine::EngineConfig::decode(cells[3]);
  DDMC_REQUIRE(config.has_value(),
               "malformed config field '" + cells[3] + "': " + line);
  r.config = *config;
  parse_row_tail(r, cells, 4);
  if (cells.size() > 8) {
    DDMC_REQUIRE(cells[8] == "0" || cells[8] == "1",
                 "malformed pruned field '" + cells[8] + "': " + line);
    r.pruned = cells[8] == "1";
  }
  return r;
}

/// A v2 row's six kernel-axis columns become the kernel axes of an
/// EngineConfig; encode_kernel_config omits neutral values, so a legacy
/// untuned (1×1) row migrates to the *empty* config — valid for every
/// engine, not just the tiled ones.
ResultRow parse_v2_row(const std::vector<std::string>& cells) {
  ResultRow r;
  r.device = cells[0];
  r.observation = cells[1];
  r.dms = parse_size(cells[2]);
  dedisp::KernelConfig kc;
  kc.wi_time = parse_size(cells[3]);
  kc.wi_dm = parse_size(cells[4]);
  kc.elem_time = parse_size(cells[5]);
  kc.elem_dm = parse_size(cells[6]);
  kc.channel_block = parse_size(cells[7]);
  kc.unroll = parse_size(cells[8]);
  r.config = engine::encode_kernel_config(kc);
  parse_row_tail(r, cells, 9);
  return r;
}
}  // namespace

void save_results(std::ostream& os, const std::vector<ResultRow>& rows) {
  // max_digits10: doubles survive save→load bitwise, so a reloaded sweep
  // (or TuningCache file) compares exactly equal to the one that wrote it.
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << schema_line() << "\n" << kCurrent.header << "\n";
  for (const ResultRow& r : rows) {
    os << r.device << ',' << r.observation << ',' << r.dms << ','
       << r.config.encode() << ',' << r.gflops << ',' << r.seconds << ','
       << r.snr << ',' << r.evaluated << ',' << (r.pruned ? 1 : 0) << "\n";
  }
  os.precision(old_precision);
}

std::vector<ResultRow> load_results(std::istream& is) {
  std::string line;
  DDMC_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "empty results stream");
  DDMC_REQUIRE(
      line.rfind(kSchemaPrefix, 0) == 0,
      "results file has no schema line (expected '" + schema_line() +
          "' as the first line, got '" + line +
          "'); the file was written by a pre-v2 build — re-run the sweep");
  const Schema* schema = nullptr;
  {
    std::istringstream tag(line.substr(std::string(kSchemaPrefix).size()));
    char v = '\0';
    int version = 0;
    tag >> v >> version;
    std::string cols_field;
    tag >> cols_field;
    std::size_t cols = 0;
    if (cols_field.rfind("cols=", 0) == 0) {
      cols = parse_size(cols_field.substr(5));
    }
    schema = v == 'v' ? find_schema(version) : nullptr;
    DDMC_REQUIRE(schema != nullptr,
                 "results schema version mismatch: file says '" + line +
                     "', this build reads v" +
                     std::to_string(kCurrent.version) +
                     " (and migrates v2 and v3) — re-run the sweep to "
                     "regenerate");
    DDMC_REQUIRE(cols == schema->columns,
                 "results schema has " + std::to_string(cols) +
                     " columns, this build expects " +
                     std::to_string(schema->columns) + " for v" +
                     std::to_string(version) + " ('" + line + "')");
  }
  DDMC_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "results stream ends after the schema line");
  const std::size_t header_cols = split_csv(line).size();
  DDMC_REQUIRE(line == schema->header,
               "unexpected results header (" +
                   std::to_string(header_cols) + " columns, expected " +
                   std::to_string(schema->columns) + "): " + line);
  const bool legacy = schema->version == 2;
  std::vector<ResultRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    DDMC_REQUIRE(cells.size() == schema->columns,
                 "results row has " + std::to_string(cells.size()) +
                     " columns, expected " +
                     std::to_string(schema->columns) + ": " + line);
    rows.push_back(legacy ? parse_v2_row(cells)
                          : parse_config_row(cells, line));
  }
  return rows;
}

}  // namespace ddmc::tuner
