// Binary model format v3: the writer (metric sections + the flatten walk
// that defines the flat tables) and the stream loader (see model_io.h for
// the metric-section layout, model_bin_v3.h for the flat region).
//
// The loader treats every input as adversarial: the magic and version are
// checked first, each metric section's byte count is bounded by a hard cap
// BEFORE its buffer is allocated and then cross-checked against the table
// sizes the section itself declares, and every multi-byte value is
// assembled explicitly from little-endian bytes so artifacts are portable
// across hosts. Truncation at any byte and bit flips anywhere must produce
// a clean std::runtime_error ("model-bin: ..." / "model-v3: ..."), never a
// crash, hang, or oversized allocation — mirroring the text loader's
// hardening. The loader accumulates a streaming CRC over the metric
// sections so the flat region's whole-file CRC can be verified, and
// cross-checks the flat header's counts against the parsed sections: a
// file that stream-loads is also guaranteed mappable.
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "spire/model_bin_v3.h"
#include "spire/model_io.h"
#include "util/contract.h"
#include "util/hash.h"

namespace spire::model {

using counters::Event;
using geom::LinearPiece;
using geom::PiecewiseLinear;

namespace {

// Allocation bounds shared with the v3 flat-region validator: real fits
// have at most a few dozen corners per region; these are orders of
// magnitude above that.
constexpr std::size_t kMaxRegionCorners = v3::kMaxRegionCorners;
constexpr std::size_t kMaxMetricSections = v3::kMaxMetricSections;
constexpr std::size_t kMaxNameBytes = v3::kMaxNameBytes;

/// Fixed per-section overhead: name length, trained_on, apex pair, and the
/// two table counts (the u32 section size itself is not part of it).
constexpr std::size_t kSectionFixedBytes = 4 + 8 + 16 + 8;

/// Hard cap on one section's declared byte count, checked before any
/// allocation. Covers the largest section the bounds above allow.
constexpr std::size_t kMaxSectionBytes =
    kSectionFixedBytes + kMaxNameBytes + 16 * kMaxRegionCorners +
    32 * kMaxRegionCorners;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("model-bin: " + what);
}

// --- little-endian encoding ------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over one section buffer. Every
/// error message names the metric section and the absolute file offset of
/// the failing field.
struct SectionReader {
  const std::string& buf;
  std::size_t cursor = 0;
  std::size_t section_index;   // 0-based metric section
  std::size_t base_offset;     // file offset of the section payload

  [[noreturn]] void fail_here(const std::string& what) const {
    fail("metric section " + std::to_string(section_index) + " (at byte " +
         std::to_string(base_offset + cursor) + "): " + what);
  }

  void need(std::size_t bytes, const char* what) {
    if (buf.size() - cursor < bytes) {
      fail_here(std::string("section too short for ") + what);
    }
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[cursor + i]))
           << (8 * i);
    }
    cursor += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(buf[cursor + i]))
           << (8 * i);
    }
    cursor += 8;
    return v;
  }

  /// Reads a double. NaN and -inf are never valid in a model artifact;
  /// +inf only where `allow_inf` says so (apex intensity, final tail x1).
  double f64(const char* what, bool allow_inf = false) {
    const double v = std::bit_cast<double>(u64(what));
    if (std::isnan(v)) fail_here(std::string(what) + " is NaN");
    if (std::isinf(v) && (!allow_inf || v < 0)) {
      fail_here(std::string(what) + " must be finite, got " +
                (v > 0 ? "inf" : "-inf"));
    }
    return v;
  }
};

/// The metric sections: u32 count, then a u32 byte count + payload per
/// metric (everything between the magic line and the flat region).
void append_sections(std::string& out, const Ensemble& ensemble) {
  put_u32(out, static_cast<std::uint32_t>(ensemble.rooflines().size()));
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    const std::string_view name = counters::event_name(metric);
    std::string section;
    put_u32(section, static_cast<std::uint32_t>(name.size()));
    section.append(name);
    put_u64(section, roofline.training_sample_count());
    put_f64(section, roofline.apex_intensity());
    put_f64(section, roofline.apex_throughput());

    const auto* left = roofline.left().has_value() ? &*roofline.left() : nullptr;
    // Left knots: the shared corners of the continuous chain, exactly what
    // the text format writes.
    const std::uint32_t knots =
        left == nullptr ? 0u
                        : static_cast<std::uint32_t>(left->pieces().size() + 1);
    put_u32(section, knots);
    const auto& right = roofline.right().pieces();
    put_u32(section, static_cast<std::uint32_t>(right.size()));
    if (left != nullptr) {
      put_f64(section, left->pieces().front().x0);
      put_f64(section, left->pieces().front().y0);
      for (const LinearPiece& p : left->pieces()) {
        put_f64(section, p.x1);
        put_f64(section, p.y1);
      }
    }
    for (const LinearPiece& p : right) {
      put_f64(section, p.x0);
      put_f64(section, p.y0);
      put_f64(section, p.x1);
      put_f64(section, p.y1);
    }

    put_u32(out, static_cast<std::uint32_t>(section.size()));
    out.append(section);
  }
}

/// The flatten walk that defines the flat tables: every roofline's left
/// then right pieces, metrics in ascending event order, as shared
/// x0/y0/x1/y1 columns plus one MetricRange per metric. serve::CompiledModel
/// reads its tables out of these bytes, so there is no second flattening to
/// drift. (Lint re-flattens independently on purpose: that walk is the
/// check that a file's tables match its metric sections.)
void append_flat_tables(std::string& out, const Ensemble& ensemble) {
  std::size_t pieces = 0;
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    if (roofline.left().has_value()) pieces += roofline.left()->pieces().size();
    pieces += roofline.right().pieces().size();
  }
  std::vector<double> x0, y0, x1, y1;
  x0.reserve(pieces);
  y0.reserve(pieces);
  x1.reserve(pieces);
  y1.reserve(pieces);
  std::vector<std::string_view> names;
  std::vector<v3::MetricRange> ranges;
  names.reserve(ensemble.rooflines().size());
  ranges.reserve(ensemble.rooflines().size());

  const auto append_region = [&](const PiecewiseLinear& region) {
    for (const LinearPiece& p : region.pieces()) {
      x0.push_back(p.x0);
      y0.push_back(p.y0);
      x1.push_back(p.x1);
      y1.push_back(p.y1);
    }
  };

  // std::map iteration = ascending Event order, the same order
  // Ensemble::estimate materializes its per-metric tasks in.
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    v3::MetricRange range;
    range.left_begin = static_cast<std::uint32_t>(x0.size());
    if (roofline.left().has_value()) {
      append_region(*roofline.left());
      range.left_max = roofline.left()->domain_max();
    }
    range.left_end = static_cast<std::uint32_t>(x0.size());
    range.right_begin = range.left_end;
    append_region(roofline.right());
    range.right_end = static_cast<std::uint32_t>(x0.size());
    SPIRE_ASSERT(range.right_end > range.right_begin,
                 "model-v3: empty right region for metric ",
                 counters::event_name(metric));
    names.push_back(counters::event_name(metric));
    ranges.push_back(range);
  }
  v3::append_flat(out, {names, ranges, x0, y0, x1, y1});
}

}  // namespace

std::string model_bin_bytes(const Ensemble& ensemble) {
  std::string out(kModelBinMagicV3);
  append_sections(out, ensemble);
  append_flat_tables(out, ensemble);
  return out;
}

void save_model_bin(const Ensemble& ensemble, std::ostream& out) {
  const std::string bytes = model_bin_bytes(ensemble);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("write failed");
}

void save_model_bin_file(const Ensemble& ensemble, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write " + path);
  save_model_bin(ensemble, out);
}

ModelBinSections read_model_bin_sections(std::istream& in) {
  // --- magic + version ----------------------------------------------------
  std::string magic(kModelBinMagicV3.size(), '\0');
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  magic.resize(static_cast<std::size_t>(in.gcount()));
  if (magic != kModelBinMagicV3) {
    constexpr std::string_view kRetiredV2 = "spire-model-bin v2";
    const std::string line = magic.substr(0, magic.find('\n'));
    if (line == kRetiredV2) {
      fail(std::string(kRetiredV2) +
           " is retired; this build reads only v3. Convert the model to "
           "text v1 with a build that still reads v2 (spire_cli compile "
           "MODEL --text --out MODEL.txt), then compile that file");
    }
    if (line.rfind("spire-model-bin v", 0) == 0) {
      fail("unsupported binary model format version " + line.substr(16) +
           " (this build reads v" + std::to_string(kModelBinV3FormatVersion) +
           ")");
    }
    fail("bad magic (expected '" +
         std::string(kModelBinMagicV3.substr(0, kModelBinMagicV3.size() - 1)) +
         "')");
  }

  // The flat region's footer carries a whole-file CRC; accumulate the
  // stream CRC over every byte consumed so the validator can verify it.
  ModelBinSections out;
  out.crc = util::crc32_update(util::crc32_init(), magic);
  const auto read_u32 = [&in, &out](const char* what) {
    char raw[4];
    in.read(raw, 4);
    if (in.gcount() != 4) fail(std::string("truncated before ") + what);
    out.crc = util::crc32_update(out.crc, std::string_view(raw, 4));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(raw[i]))
           << (8 * i);
    }
    return v;
  };

  const std::uint32_t metric_count = read_u32("metric count");
  if (metric_count > kMaxMetricSections) {
    fail("metric count " + std::to_string(metric_count) +
         " exceeds the limit of " + std::to_string(kMaxMetricSections));
  }

  std::map<Event, MetricRoofline>& rooflines = out.rooflines;
  std::size_t offset = kModelBinMagicV3.size() + 4;
  for (std::uint32_t section_index = 0; section_index < metric_count;
       ++section_index) {
    const std::uint32_t section_bytes = read_u32("section byte count");
    offset += 4;
    // The single allocation gate: nothing bigger than the cap is ever
    // resized for, no matter what the file claims.
    if (section_bytes < kSectionFixedBytes || section_bytes > kMaxSectionBytes) {
      fail("metric section " + std::to_string(section_index) +
           " (at byte " + std::to_string(offset - 4) + "): byte count " +
           std::to_string(section_bytes) + " outside [" +
           std::to_string(kSectionFixedBytes) + ", " +
           std::to_string(kMaxSectionBytes) + "]");
    }
    std::string buf(section_bytes, '\0');
    in.read(buf.data(), static_cast<std::streamsize>(section_bytes));
    if (static_cast<std::size_t>(in.gcount()) != section_bytes) {
      fail("metric section " + std::to_string(section_index) +
           " truncated: declared " + std::to_string(section_bytes) +
           " bytes, got " + std::to_string(in.gcount()));
    }
    out.crc = util::crc32_update(out.crc, buf);

    SectionReader r{buf, 0, section_index, offset};
    const std::uint32_t name_len = r.u32("name length");
    if (name_len == 0 || name_len > kMaxNameBytes) {
      r.fail_here("name length " + std::to_string(name_len) +
                  " outside [1, " + std::to_string(kMaxNameBytes) + "]");
    }
    r.need(name_len, "metric name");
    const std::string name = buf.substr(r.cursor, name_len);
    r.cursor += name_len;
    const auto metric = counters::event_by_name(name);
    if (!metric) r.fail_here("unknown metric '" + name + "'");
    if (rooflines.contains(*metric)) {
      r.fail_here("duplicate metric '" + name + "'");
    }

    const std::uint64_t trained_on = r.u64("trained_on");
    const double apex_x = r.f64("apex intensity", /*allow_inf=*/true);
    const double apex_y = r.f64("apex throughput");
    const std::uint32_t left_count = r.u32("left knot count");
    const std::uint32_t right_count = r.u32("right piece count");
    if (left_count > kMaxRegionCorners) {
      r.fail_here("left knot count " + std::to_string(left_count) +
                  " exceeds the limit of " + std::to_string(kMaxRegionCorners));
    }
    if (right_count > kMaxRegionCorners) {
      r.fail_here("right piece count " + std::to_string(right_count) +
                  " exceeds the limit of " + std::to_string(kMaxRegionCorners));
    }
    // Cross-check: the declared byte count must be exactly what the tables
    // need — a mismatch means the counts and the payload disagree.
    const std::size_t expected = kSectionFixedBytes + name_len +
                                 16 * static_cast<std::size_t>(left_count) +
                                 32 * static_cast<std::size_t>(right_count);
    if (expected != section_bytes) {
      r.fail_here("section byte count " + std::to_string(section_bytes) +
                  " does not match its tables (expected " +
                  std::to_string(expected) + ")");
    }

    std::optional<PiecewiseLinear> left;
    if (left_count > 0) {
      std::vector<geom::Point> knots(left_count);
      for (auto& k : knots) {
        k.x = r.f64("left knot x");
        k.y = r.f64("left knot y");
      }
      try {
        left = PiecewiseLinear::from_knots(knots);
      } catch (const std::exception& e) {
        r.fail_here(std::string("invalid left region: ") + e.what());
      }
    }
    if (right_count == 0) r.fail_here("empty right region");
    std::vector<LinearPiece> pieces(right_count);
    for (std::uint32_t i = 0; i < right_count; ++i) {
      pieces[i].x0 = r.f64("right x0");
      pieces[i].y0 = r.f64("right y0");
      pieces[i].x1 = r.f64("right x1", /*allow_inf=*/i + 1 == right_count);
      pieces[i].y1 = r.f64("right y1");
    }
    try {
      rooflines.emplace(*metric,
                        MetricRoofline(std::move(left),
                                       PiecewiseLinear(std::move(pieces)),
                                       {apex_x, apex_y}, trained_on));
    } catch (const std::exception& e) {
      r.fail_here(std::string("invalid right region: ") + e.what());
    }
    offset += section_bytes;
    out.piece_count += (left_count > 0 ? left_count - 1 : 0) + right_count;
    out.name_bytes += name_len;
  }

  if (rooflines.empty()) fail("no metrics");
  out.end_offset = offset;
  return out;
}

Ensemble load_model_bin(std::istream& in) {
  ModelBinSections sections = read_model_bin_sections(in);
  const std::size_t metric_count = sections.rooflines.size();
  const std::size_t offset = sections.end_offset;

  // --- the flat region ------------------------------------------------------
  // The canonical writer's flat-region size is fully determined by the
  // sections just parsed, so the allocation is bounded by construction and
  // any size deviation is a structural error.
  const auto align_up = [](std::size_t n) {
    return (n + v3::kFlatAlignment - 1) & ~(v3::kFlatAlignment - 1);
  };
  const std::size_t expected_tail =
      (align_up(offset) - offset) + v3::kFlatHeaderBytes +
      v3::kSectionCount * v3::kSectionEntryBytes + 32 * metric_count +
      align_up(sections.name_bytes) + 48 * sections.piece_count +
      v3::kFooterBytes;
  std::string tail(expected_tail + 1, '\0');
  in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  tail.resize(static_cast<std::size_t>(in.gcount()));
  if (tail.size() > expected_tail) {
    throw std::runtime_error("model-v3: trailing garbage after the " +
                             std::to_string(expected_tail) +
                             "-byte flat region (at byte " +
                             std::to_string(offset + expected_tail) + ")");
  }
  if (tail.size() != expected_tail) {
    throw std::runtime_error(
        "model-v3: flat region has " + std::to_string(tail.size()) +
        " byte(s) after the " + std::to_string(metric_count) +
        " metric section(s), expected " + std::to_string(expected_tail) +
        " (at byte " + std::to_string(offset) + ")");
  }
  const v3::FlatLayout layout = v3::check_flat_region(
      std::as_bytes(std::span(tail.data(), tail.size())), offset,
      sections.crc);
  if (layout.metric_count != metric_count ||
      layout.piece_count != sections.piece_count) {
    throw std::runtime_error(
        "model-v3: flat header declares " +
        std::to_string(layout.metric_count) + " metric(s) / " +
        std::to_string(layout.piece_count) +
        " piece(s) but the metric sections hold " +
        std::to_string(metric_count) + " / " +
        std::to_string(sections.piece_count) + " (at byte " +
        std::to_string(layout.flat_offset + 8) + ")");
  }
  return Ensemble(std::move(sections.rooflines));
}

Ensemble load_model_bin_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model-bin: cannot read " + path);
  return load_model_bin(in);
}

bool is_binary_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  constexpr std::string_view kPrefix = "spire-model-bin v";
  std::string head(kPrefix.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  return static_cast<std::size_t>(in.gcount()) == kPrefix.size() &&
         head == kPrefix;
}

Ensemble load_model_any_file(const std::string& path) {
  return is_binary_model_file(path) ? load_model_bin_file(path)
                                    : load_model_file(path);
}

}  // namespace spire::model
