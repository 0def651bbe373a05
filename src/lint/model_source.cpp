#include "lint/model_source.h"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "spire/model_bin_v3.h"
#include "spire/model_io.h"
#include "util/hash.h"

namespace spire::lint {

namespace {

// Mirrors model_io's allocation bound: a lint run over an adversarial file
// must not balloon memory either.
constexpr std::size_t kMaxRegionCorners = 65'536;

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Parses a double leniently: accepts "inf", "-inf", and "nan" (they are
/// exactly what some rules exist to detect). Returns nullopt only for
/// tokens that are not number-shaped at all.
std::optional<double> parse_value(const std::string& token) {
  if (token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-inf") return -std::numeric_limits<double>::infinity();
  if (token == "nan" || token == "-nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_count(const std::string& token) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), n);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return n;
}

struct LineReader {
  explicit LineReader(std::istream& stream) : in(stream) {}

  std::istream& in;
  std::size_t line_no = 0;
  std::string line;

  bool next() {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return true;
    }
    return false;
  }
};

}  // namespace

RawModel parse_raw_model(std::istream& in) {
  RawModel model;
  LineReader reader(in);
  const auto issue = [&model](std::size_t line, std::string message) {
    model.issues.push_back({line, std::move(message)});
  };

  if (!reader.next()) {
    issue(0, "empty file");
    return model;
  }
  model.header = reader.line;
  model.header_line = reader.line_no;
  // "spire-model vN" — parsed leniently; the format-version rule judges N.
  {
    std::istringstream hs(model.header);
    std::string word, ver;
    if (hs >> word >> ver && word == "spire-model" && ver.size() >= 2 &&
        ver[0] == 'v') {
      if (const auto n = parse_count(ver.substr(1));
          n && *n <= std::numeric_limits<int>::max()) {
        std::string rest;
        if (!(hs >> rest)) model.version = static_cast<int>(*n);
      }
    }
  }

  while (reader.next()) {
    // --- metric line ----------------------------------------------------
    auto tokens = tokenize(reader.line);
    if (tokens.empty() || tokens[0] != "metric") {
      issue(reader.line_no,
            "expected a 'metric' line, got '" +
                (tokens.empty() ? std::string() : tokens[0]) + "'");
      // Resynchronization is hopeless without the block structure: stop.
      return model;
    }
    RawMetricModel metric;
    metric.line = reader.line_no;
    if (tokens.size() < 2) {
      issue(reader.line_no, "metric line without a name");
      return model;
    }
    metric.name = tokens[1];
    metric.event = counters::event_by_name(metric.name);

    // trained_on=N and apex=I P, tolerated in glued or split form.
    std::size_t next_token = 2;
    if (next_token < tokens.size() &&
        tokens[next_token].rfind("trained_on=", 0) == 0) {
      if (const auto n = parse_count(tokens[next_token].substr(11))) {
        metric.trained_on = *n;
        metric.trained_on_valid = true;
      } else {
        issue(reader.line_no,
              "bad trained_on count '" + tokens[next_token] + "'");
      }
      ++next_token;
    } else {
      issue(reader.line_no, "missing trained_on field");
    }

    std::vector<double> apex_values;
    for (; next_token < tokens.size(); ++next_token) {
      std::string token = tokens[next_token];
      if (token.rfind("apex=", 0) == 0) token = token.substr(5);
      if (token.empty()) continue;
      if (const auto v = parse_value(token)) {
        apex_values.push_back(*v);
      } else {
        issue(reader.line_no, "unparseable apex token '" + token + "'");
      }
    }
    if (apex_values.size() == 2) {
      metric.apex_x = apex_values[0];
      metric.apex_y = apex_values[1];
    } else {
      issue(reader.line_no, "expected apex intensity and throughput, got " +
                                std::to_string(apex_values.size()) +
                                " value(s)");
    }

    // --- left line ------------------------------------------------------
    if (!reader.next() || tokenize(reader.line).empty() ||
        tokenize(reader.line)[0] != "left") {
      issue(reader.line_no + 1, "missing left region for " + metric.name);
      model.metrics.push_back(std::move(metric));
      return model;
    }
    metric.left_line = reader.line_no;
    {
      const auto left_tokens = tokenize(reader.line);
      std::uint64_t declared = 0;
      if (left_tokens.size() < 2) {
        issue(reader.line_no, "left line without a knot count");
      } else if (const auto n = parse_count(left_tokens[1]);
                 n && *n <= kMaxRegionCorners) {
        declared = *n;
      } else {
        issue(reader.line_no, "bad left knot count '" + left_tokens[1] + "'");
      }
      std::size_t cursor = 2;
      metric.left_complete = true;
      for (std::uint64_t k = 0; k < declared; ++k) {
        if (cursor + 1 >= left_tokens.size()) {
          issue(reader.line_no, "left region truncated: knot " +
                                    std::to_string(k) + " of " +
                                    std::to_string(declared) + " missing");
          metric.left_complete = false;
          break;
        }
        const auto x = parse_value(left_tokens[cursor]);
        const auto y = parse_value(left_tokens[cursor + 1]);
        if (!x || !y) {
          issue(reader.line_no,
                "unparseable left knot '" + left_tokens[cursor] + " " +
                    left_tokens[cursor + 1] + "'");
          metric.left_complete = false;
          break;
        }
        metric.left_knots.push_back({*x, *y});
        cursor += 2;
      }
      if (metric.left_complete && cursor < left_tokens.size()) {
        issue(reader.line_no, "trailing garbage after left region: '" +
                                  left_tokens[cursor] + "'");
      }
    }

    // --- right line -----------------------------------------------------
    if (!reader.next() || tokenize(reader.line).empty() ||
        tokenize(reader.line)[0] != "right") {
      issue(reader.line_no + 1, "missing right region for " + metric.name);
      model.metrics.push_back(std::move(metric));
      return model;
    }
    metric.right_line = reader.line_no;
    {
      const auto right_tokens = tokenize(reader.line);
      std::uint64_t declared = 0;
      if (right_tokens.size() < 2) {
        issue(reader.line_no, "right line without a piece count");
      } else if (const auto n = parse_count(right_tokens[1]);
                 n && *n <= kMaxRegionCorners) {
        declared = *n;
      } else {
        issue(reader.line_no,
              "bad right piece count '" + right_tokens[1] + "'");
      }
      std::size_t cursor = 2;
      metric.right_complete = true;
      for (std::uint64_t k = 0; k < declared; ++k) {
        if (cursor + 3 >= right_tokens.size()) {
          issue(reader.line_no, "right region truncated: piece " +
                                    std::to_string(k) + " of " +
                                    std::to_string(declared) + " missing");
          metric.right_complete = false;
          break;
        }
        geom::LinearPiece piece;
        bool ok = true;
        const std::array<double*, 4> fields = {&piece.x0, &piece.y0,
                                               &piece.x1, &piece.y1};
        for (std::size_t f = 0; f < 4; ++f) {
          if (const auto v = parse_value(right_tokens[cursor + f])) {
            *fields[f] = *v;
          } else {
            issue(reader.line_no, "unparseable right piece value '" +
                                      right_tokens[cursor + f] + "'");
            ok = false;
          }
        }
        if (!ok) {
          metric.right_complete = false;
          break;
        }
        metric.right_pieces.push_back(piece);
        cursor += 4;
      }
      if (metric.right_complete && cursor < right_tokens.size()) {
        issue(reader.line_no, "trailing garbage after right region: '" +
                                  right_tokens[cursor] + "'");
      }
    }

    model.metrics.push_back(std::move(metric));
  }
  return model;
}

namespace {

std::uint32_t load_u32le(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::uint32_t(std::uint8_t(bytes[offset + i])) << (8 * i);
  }
  return v;
}

std::uint64_t load_u64le(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t(std::uint8_t(bytes[offset + i])) << (8 * i);
  }
  return v;
}

bool f64_matches(const std::string& bytes, std::size_t offset,
                 double expected) {
  return load_u64le(bytes, offset) == std::bit_cast<std::uint64_t>(expected);
}

double load_f64le(const std::string& bytes, std::size_t offset) {
  return std::bit_cast<double>(load_u64le(bytes, offset));
}

std::string fmt17(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Compares a validated flat region against the tables the strict model
/// flattens to (an independent re-walk of what the writer in
/// spire/model_io_bin.cpp emits). Returns "" on bit-exact agreement, else a
/// message naming the first divergent metric/table. A mismatch means the
/// artifact's serving tables answer differently than its own metric
/// sections — exactly the drift the writer's by-construction guarantee
/// exists to prevent.
std::string flat_tables_mismatch(const std::string& bytes,
                                 const model::v3::FlatLayout& layout,
                                 const model::Ensemble& ensemble) {
  using model::v3::Section;
  if (layout.metric_count != ensemble.rooflines().size()) {
    return "flat header declares " + std::to_string(layout.metric_count) +
           " metric(s) but the strict model has " +
           std::to_string(ensemble.rooflines().size());
  }
  const auto& ranges = layout.section(Section::kMetricRanges);
  const auto& names = layout.section(Section::kNameIndex);
  const auto& strings = layout.section(Section::kStrings);
  const auto& x0 = layout.section(Section::kX0);
  const auto& y0 = layout.section(Section::kY0);
  const auto& x1 = layout.section(Section::kX1);
  const auto& y1 = layout.section(Section::kY1);
  const auto& slopes = layout.section(Section::kSlopes);
  const auto& intercepts = layout.section(Section::kIntercepts);

  std::size_t piece = 0;  // shared-table cursor, advanced metric by metric
  std::size_t index = 0;  // metric index, ensemble (= file) order
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    const std::string_view expected_name = counters::event_name(metric);
    const std::uint32_t name_offset = load_u32le(bytes, names.offset + 8 * index);
    const std::uint32_t name_length =
        load_u32le(bytes, names.offset + 8 * index + 4);
    const std::string_view file_name(bytes.data() + strings.offset + name_offset,
                                     name_length);
    if (file_name != expected_name) {
      return "flat metric " + std::to_string(index) + " is named '" +
             std::string(file_name) + "' but the strict model has '" +
             std::string(expected_name) + "'";
    }

    // Replay the flatten walk: left pieces (when present), then right.
    const std::size_t left_begin = piece;
    std::vector<geom::LinearPiece> expected;
    double left_max = 0.0;
    if (roofline.left().has_value()) {
      const auto& pieces = roofline.left()->pieces();
      expected.insert(expected.end(), pieces.begin(), pieces.end());
      left_max = roofline.left()->domain_max();
    }
    const std::size_t left_end = left_begin + expected.size();
    {
      const auto& pieces = roofline.right().pieces();
      expected.insert(expected.end(), pieces.begin(), pieces.end());
    }
    const std::size_t right_end = left_begin + expected.size();

    const std::size_t range_at = ranges.offset + 24 * index;
    const std::array<std::pair<const char*, std::size_t>, 4> fields = {{
        {"left_begin", left_begin},
        {"left_end", left_end},
        {"right_begin", left_end},
        {"right_end", right_end},
    }};
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::uint32_t got = load_u32le(bytes, range_at + 4 * f);
      if (got != fields[f].second) {
        return "metric '" + std::string(expected_name) + "': flat range " +
               fields[f].first + "=" + std::to_string(got) +
               " but the strict model compiles to " +
               std::to_string(fields[f].second);
      }
    }
    if (!f64_matches(bytes, range_at + 16, left_max)) {
      return "metric '" + std::string(expected_name) + "': flat left_max=" +
             fmt17(load_f64le(bytes, range_at + 16)) +
             " but the strict model compiles to " + fmt17(left_max);
    }

    for (std::size_t k = 0; k < expected.size(); ++k, ++piece) {
      if (8 * piece + 8 > x0.bytes) {
        return "flat tables hold " + std::to_string(x0.bytes / 8) +
               " piece(s) but the strict model compiles to more";
      }
      const geom::LinearPiece& p = expected[k];
      const double slope = (!std::isfinite(p.x1) || p.x1 == p.x0)
                               ? 0.0
                               : (p.y1 - p.y0) / (p.x1 - p.x0);
      const double intercept =
          (!std::isfinite(p.x1) || p.x1 == p.x0) ? p.y0 : p.y0 - slope * p.x0;
      const std::array<std::pair<const char*, std::pair<std::size_t, double>>,
                       6>
          tables = {{
              {"x0", {x0.offset, p.x0}},
              {"y0", {y0.offset, p.y0}},
              {"x1", {x1.offset, p.x1}},
              {"y1", {y1.offset, p.y1}},
              {"slopes", {slopes.offset, slope}},
              {"intercepts", {intercepts.offset, intercept}},
          }};
      for (const auto& [table, where] : tables) {
        const std::size_t at = where.first + 8 * piece;
        if (!f64_matches(bytes, at, where.second)) {
          return "metric '" + std::string(expected_name) + "': flat " +
                 table + "[" + std::to_string(piece) + "]=" +
                 fmt17(load_f64le(bytes, at)) +
                 " but the strict model compiles to " + fmt17(where.second);
        }
      }
    }
    ++index;
  }
  if (8 * piece != x0.bytes) {
    return "flat tables hold " + std::to_string(x0.bytes / 8) +
           " piece(s) but the strict model compiles to " +
           std::to_string(piece);
  }
  return {};
}

/// Binary lint path. The metric sections and the flat region are validated
/// INDEPENDENTLY — a corrupt flat table must not suppress the sections'
/// findings and vice versa — so the sections go through the loader's own
/// section parser, which stops where the flat region begins, while the
/// flat region goes through the same check_flat_region the mmap reader
/// runs. A file under another binary magic (retired v2, a future version)
/// has no flat region to check; the section parser's magic check names it.
RawModel parse_raw_binary_model(const std::string& path) {
  RawModel raw;
  raw.binary = true;

  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  if (bytes.empty()) {
    raw.issues.push_back({0, "cannot read " + path});
    return raw;
  }

  std::optional<model::v3::FlatLayout> layout;
  if (bytes.starts_with(model::kModelBinMagicV3)) {
    try {
      layout = model::v3::check_flat_region(
          std::as_bytes(std::span(bytes.data(), bytes.size())), 0,
          util::crc32_init());
    } catch (const std::exception& e) {
      raw.flat_issues.push_back(e.what());
    }
  }

  std::optional<model::Ensemble> ensemble;
  try {
    std::istringstream sections(bytes, std::ios::binary);
    ensemble.emplace(model::read_model_bin_sections(sections).rooflines);
  } catch (const std::exception& e) {
    raw.binary_error = e.what();
  }

  if (ensemble.has_value()) {
    std::stringstream text;
    model::save_model(*ensemble, text);
    std::vector<std::string> flat_issues = std::move(raw.flat_issues);
    raw = parse_raw_model(text);
    raw.binary = true;
    raw.flat_issues = std::move(flat_issues);
    if (layout.has_value()) {
      raw.flat_mismatch = flat_tables_mismatch(bytes, *layout, *ensemble);
    }
  }
  return raw;
}

}  // namespace

RawModel parse_raw_model_file(const std::string& path) {
  if (model::is_binary_model_file(path)) return parse_raw_binary_model(path);
  std::ifstream in(path);
  if (!in) {
    RawModel model;
    model.issues.push_back({0, "cannot read " + path});
    return model;
  }
  return parse_raw_model(in);
}

}  // namespace spire::lint
