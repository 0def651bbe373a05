// v3 flat-region validation and serialization (see model_bin_v3.h for the
// wire layout). The validator is the gate in front of every zero-copy
// reader: nothing forms a pointer into an artifact until every byte count,
// alignment, CRC, and semantic invariant here has passed, and every
// failure names the section and absolute byte offset.
#include "spire/model_bin_v3.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "spire/model_io.h"
#include "util/contract.h"
#include "util/hash.h"

namespace spire::model::v3 {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("model-v3: " + what);
}

std::string at_byte(std::size_t offset) {
  return " (at byte " + std::to_string(offset) + ")";
}

std::size_t align_up(std::size_t n) {
  return (n + kFlatAlignment - 1) & ~(kFlatAlignment - 1);
}

/// Alignment-safe little-endian reads over the region buffer, addressed by
/// ABSOLUTE file offset. Bounds were established by the caller's layout
/// checks; these guard anyway so a checker bug can never over-read.
struct RegionReader {
  std::span<const std::byte> region;
  std::size_t base;  // absolute file offset of region[0]

  void need(std::size_t abs, std::size_t bytes, const char* what) const {
    if (abs < base || region.size() - (abs - base) < bytes ||
        abs - base > region.size()) {
      fail(std::string(what) + " out of bounds" + at_byte(abs));
    }
  }

  std::uint32_t u32(std::size_t abs, const char* what) const {
    need(abs, 4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(region[abs - base + i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64(std::size_t abs, const char* what) const {
    need(abs, 8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(region[abs - base + i]))
           << (8 * i);
    }
    return v;
  }

  double f64(std::size_t abs, const char* what) const {
    return std::bit_cast<double>(u64(abs, what));
  }
};

// --- little-endian encoding (writer side) ----------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::string_view section_name(Section section) {
  switch (section) {
    case Section::kMetricRanges: return "metric-ranges";
    case Section::kNameIndex: return "name-index";
    case Section::kStrings: return "strings";
    case Section::kX0: return "x0";
    case Section::kY0: return "y0";
    case Section::kX1: return "x1";
    case Section::kY1: return "y1";
    case Section::kSlopes: return "slopes";
    case Section::kIntercepts: return "intercepts";
  }
  return "unknown";
}

FlatLayout check_flat_region(std::span<const std::byte> region,
                             std::size_t region_base,
                             std::uint32_t crc_before_region, Verify verify) {
  const std::size_t total = region_base + region.size();
  constexpr std::size_t kTableBytes = kSectionCount * kSectionEntryBytes;
  if (region.size() < kFooterBytes + kFlatHeaderBytes + kTableBytes) {
    fail("flat region truncated: " + std::to_string(region.size()) +
         " byte(s) after the metric sections, need at least " +
         std::to_string(kFooterBytes + kFlatHeaderBytes + kTableBytes));
  }
  const RegionReader r{region, region_base};

  // --- footer (fixed position at EOF) --------------------------------------
  FlatLayout layout;
  const std::size_t footer_off = total - kFooterBytes;
  if (r.u64(footer_off + 24, "footer magic") != kFooterMagic) {
    fail("bad footer magic" + at_byte(footer_off + 24));
  }
  if (r.u32(footer_off + 20, "footer reserved") != 0) {
    fail("footer reserved field is not zero" + at_byte(footer_off + 20));
  }
  layout.flat_offset = r.u64(footer_off, "flat offset");
  layout.file_size = r.u64(footer_off + 8, "file size");
  const std::uint32_t stored_crc = r.u32(footer_off + 16, "file CRC");
  if (layout.file_size != total) {
    fail("footer declares " + std::to_string(layout.file_size) +
         " file byte(s) but the artifact has " + std::to_string(total) +
         at_byte(footer_off + 8));
  }

  // --- flat header ----------------------------------------------------------
  if (layout.flat_offset % kFlatAlignment != 0) {
    fail("flat header offset " + std::to_string(layout.flat_offset) +
         " is not 8-byte aligned" + at_byte(footer_off));
  }
  if (layout.flat_offset < region_base || layout.flat_offset < 24) {
    fail("flat header offset " + std::to_string(layout.flat_offset) +
         " precedes the metric sections" + at_byte(footer_off));
  }
  if (layout.flat_offset > footer_off ||
      footer_off - layout.flat_offset < kFlatHeaderBytes + kTableBytes) {
    fail("flat header/section table overruns the footer" +
         at_byte(layout.flat_offset));
  }
  if (r.u64(layout.flat_offset, "flat magic") != kFlatMagic) {
    fail("bad flat magic" + at_byte(layout.flat_offset));
  }
  layout.metric_count = r.u32(layout.flat_offset + 8, "flat metric count");
  layout.piece_count = r.u32(layout.flat_offset + 12, "flat piece count");
  const std::uint32_t section_count =
      r.u32(layout.flat_offset + 16, "flat section count");
  if (section_count != kSectionCount) {
    fail("flat section count " + std::to_string(section_count) +
         " (this build reads " + std::to_string(kSectionCount) + ")" +
         at_byte(layout.flat_offset + 16));
  }
  if (r.u32(layout.flat_offset + 20, "flat reserved") != 0) {
    fail("flat reserved field is not zero" + at_byte(layout.flat_offset + 20));
  }
  const std::size_t metric_count = layout.metric_count;
  const std::size_t piece_count = layout.piece_count;
  if (metric_count == 0 || metric_count > kMaxMetricSections) {
    fail("flat metric count " + std::to_string(metric_count) +
         " outside [1, " + std::to_string(kMaxMetricSections) + "]" +
         at_byte(layout.flat_offset + 8));
  }
  if (piece_count == 0 ||
      piece_count > metric_count * 2 * kMaxRegionCorners) {
    fail("flat piece count " + std::to_string(piece_count) +
         " outside [1, " + std::to_string(metric_count * 2 * kMaxRegionCorners) +
         "]" + at_byte(layout.flat_offset + 12));
  }

  // --- section table: kinds, sizes, alignment, contiguity, CRCs ------------
  std::size_t cursor =
      layout.flat_offset + kFlatHeaderBytes + kTableBytes;  // 8-aligned
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const std::size_t entry_off =
        layout.flat_offset + kFlatHeaderBytes + i * kSectionEntryBytes;
    const auto kind = static_cast<Section>(i);
    const std::string_view name = section_name(kind);
    const std::uint32_t declared_kind = r.u32(entry_off, "section kind");
    if (declared_kind != i) {
      fail("section table entry " + std::to_string(i) + " declares kind " +
           std::to_string(declared_kind) + ", expected " + std::string(name) +
           at_byte(entry_off));
    }
    SectionExtent extent;
    extent.crc = r.u32(entry_off + 4, "section CRC");
    extent.offset = r.u64(entry_off + 8, "section offset");
    extent.bytes = r.u64(entry_off + 16, "section byte count");
    if (extent.offset % kFlatAlignment != 0) {
      fail("section " + std::string(name) + " offset " +
           std::to_string(extent.offset) + " is not 8-byte aligned" +
           at_byte(entry_off + 8));
    }
    if (extent.offset != cursor) {
      fail("section " + std::string(name) + " at byte " +
           std::to_string(extent.offset) + ", expected " +
           std::to_string(cursor) + " (sections must be contiguous)" +
           at_byte(entry_off + 8));
    }
    std::size_t expected = 0;
    bool exact = true;
    switch (kind) {
      case Section::kMetricRanges: expected = sizeof(MetricRange) * metric_count; break;
      case Section::kNameIndex: expected = sizeof(NameRef) * metric_count; break;
      case Section::kStrings: exact = false; break;
      default: expected = sizeof(double) * piece_count; break;
    }
    if (exact && extent.bytes != expected) {
      fail("section " + std::string(name) + " has " +
           std::to_string(extent.bytes) + " byte(s), expected " +
           std::to_string(expected) + at_byte(entry_off + 16));
    }
    if (!exact && (extent.bytes < metric_count ||
                   extent.bytes > metric_count * kMaxNameBytes)) {
      fail("section strings has " + std::to_string(extent.bytes) +
           " byte(s) for " + std::to_string(metric_count) +
           " metric name(s)" + at_byte(entry_off + 16));
    }
    if (extent.bytes > footer_off || extent.offset > footer_off - extent.bytes) {
      fail("section " + std::string(name) + " overruns the footer" +
           at_byte(entry_off + 8));
    }
    if (verify == Verify::kFull) {
      const std::uint32_t crc = util::crc32(
          region.subspan(extent.offset - region_base, extent.bytes));
      if (crc != extent.crc) {
        fail("section " + std::string(name) + " CRC mismatch (stored " +
             std::to_string(extent.crc) + ", computed " + std::to_string(crc) +
             ")" + at_byte(extent.offset));
      }
    }
    layout.sections[i] = extent;
    cursor = align_up(extent.offset + extent.bytes);
  }
  if (cursor != footer_off) {
    fail("trailing garbage between the last section and the footer" +
         at_byte(cursor));
  }

  // --- semantic checks on the raw payloads ----------------------------------
  // Metric ranges must tile [0, piece_count) with a non-empty right region
  // each; the x1 column may hold +inf only at a right region's final piece.
  const SectionExtent& ranges = layout.section(Section::kMetricRanges);
  const SectionExtent& x0s = layout.section(Section::kX0);
  const SectionExtent& y0s = layout.section(Section::kY0);
  const SectionExtent& x1s = layout.section(Section::kX1);
  const SectionExtent& y1s = layout.section(Section::kY1);
  std::size_t prev_end = 0;
  for (std::size_t m = 0; m < metric_count; ++m) {
    const std::size_t off = ranges.offset + m * sizeof(MetricRange);
    const std::uint32_t lb = r.u32(off, "left begin");
    const std::uint32_t le = r.u32(off + 4, "left end");
    const std::uint32_t rb = r.u32(off + 8, "right begin");
    const std::uint32_t re = r.u32(off + 12, "right end");
    const double left_max = r.f64(off + 16, "left max");
    const std::string where =
        "metric range " + std::to_string(m) + at_byte(off);
    if (!(lb <= le && le == rb && rb < re && re <= piece_count)) {
      fail(where + ": piece indices [" + std::to_string(lb) + ", " +
           std::to_string(le) + ") / [" + std::to_string(rb) + ", " +
           std::to_string(re) + ") are not an ordered tile of " +
           std::to_string(piece_count) + " piece(s)");
    }
    if (lb != prev_end) {
      fail(where + ": begins at piece " + std::to_string(lb) +
           ", previous range ended at " + std::to_string(prev_end));
    }
    prev_end = re;
    if (std::isnan(left_max) || std::isinf(left_max)) {
      fail(where + ": left max is not finite");
    }
    if (lb == le && left_max != 0.0) {
      fail(where + ": left max must be 0 when the left region is absent");
    }
    if (verify == Verify::kFull) {
      for (std::uint32_t i = lb; i < re; ++i) {
        const double x0 = r.f64(x0s.offset + 8 * i, "x0");
        const double y0 = r.f64(y0s.offset + 8 * i, "y0");
        const double x1 = r.f64(x1s.offset + 8 * i, "x1");
        const double y1 = r.f64(y1s.offset + 8 * i, "y1");
        const auto piece_fail = [&](const char* column, std::size_t col_off) {
          fail("section " + std::string(column) + " piece " +
               std::to_string(i) + ": value is not finite" +
               at_byte(col_off + 8 * i));
        };
        if (!std::isfinite(x0)) piece_fail("x0", x0s.offset);
        if (!std::isfinite(y0)) piece_fail("y0", y0s.offset);
        if (!std::isfinite(y1)) piece_fail("y1", y1s.offset);
        if (std::isnan(x1) || (std::isinf(x1) && (x1 < 0 || i + 1 != re))) {
          fail("section x1 piece " + std::to_string(i) +
               ": only a right region's final piece may be +inf" +
               at_byte(x1s.offset + 8 * i));
        }
      }
    }
  }
  if (prev_end != piece_count) {
    fail("metric ranges cover " + std::to_string(prev_end) + " of " +
         std::to_string(piece_count) + " piece(s)");
  }

  // Derived tables must at least be numbers (they are CRC-protected like
  // everything else; the bit-identical evaluator never reads them).
  if (verify == Verify::kFull) {
    for (const Section s : {Section::kSlopes, Section::kIntercepts}) {
      const SectionExtent& extent = layout.section(s);
      for (std::size_t i = 0; i < piece_count; ++i) {
        if (std::isnan(r.f64(extent.offset + 8 * i, "derived value"))) {
          fail("section " + std::string(section_name(s)) + " piece " +
               std::to_string(i) + ": value is NaN" +
               at_byte(extent.offset + 8 * i));
        }
      }
    }
  }

  // Name index: contiguous (offset, length) records exactly covering the
  // strings section, each within the per-name cap.
  const SectionExtent& names = layout.section(Section::kNameIndex);
  const std::size_t strings_bytes = layout.section(Section::kStrings).bytes;
  std::size_t string_cursor = 0;
  for (std::size_t m = 0; m < metric_count; ++m) {
    const std::size_t off = names.offset + m * sizeof(NameRef);
    const std::uint32_t name_off = r.u32(off, "name offset");
    const std::uint32_t name_len = r.u32(off + 4, "name length");
    if (name_len == 0 || name_len > kMaxNameBytes) {
      fail("name " + std::to_string(m) + ": length " +
           std::to_string(name_len) + " outside [1, " +
           std::to_string(kMaxNameBytes) + "]" + at_byte(off + 4));
    }
    if (name_off != string_cursor ||
        strings_bytes - string_cursor < name_len) {
      fail("name " + std::to_string(m) +
           ": index is not a contiguous cover of the strings section" +
           at_byte(off));
    }
    string_cursor += name_len;
  }
  if (string_cursor != strings_bytes) {
    fail("strings section has " + std::to_string(strings_bytes) +
         " byte(s), the name index references " +
         std::to_string(string_cursor));
  }

  // --- whole-file CRC, last -------------------------------------------------
  // The catch-all for every byte the checks above do not pin down (padding,
  // header fields, the v2 body for stream callers). Checked after the
  // per-section CRCs so payload corruption reports the pinpoint section
  // diagnostic rather than this generic one. Skipped at kStructure: it is
  // the one check whose cost scales with table bytes, and readers of
  // immutable published objects already paid it at publish time.
  if (verify == Verify::kFull) {
    const std::uint32_t computed_crc = util::crc32_final(util::crc32_update(
        crc_before_region, region.first(region.size() - kFooterBytes)));
    if (computed_crc != stored_crc) {
      fail("whole-file CRC mismatch (stored " + std::to_string(stored_crc) +
           ", computed " + std::to_string(computed_crc) + ")" +
           at_byte(footer_off + 16));
    }
  }
  return layout;
}

FlatView map_flat(std::span<const std::byte> file, Verify verify) {
  if constexpr (std::endian::native != std::endian::little) {
    fail("zero-copy mapping requires a little-endian host; use the stream "
         "deserialize path");
  }
  if (file.size() < kModelBinMagicV3.size() ||
      std::memcmp(file.data(), kModelBinMagicV3.data(),
                  kModelBinMagicV3.size()) != 0) {
    fail("bad magic (expected '" +
         std::string(kModelBinMagicV3.substr(0, kModelBinMagicV3.size() - 1)) +
         "')");
  }
  if (reinterpret_cast<std::uintptr_t>(file.data()) % kFlatAlignment != 0) {
    fail("artifact storage is not 8-byte aligned (map the file)");
  }

  FlatView view;
  view.layout = check_flat_region(file, 0, util::crc32_init(), verify);
  const auto doubles = [&](Section s) {
    const SectionExtent& extent = view.layout.section(s);
    return std::span<const double>(
        reinterpret_cast<const double*>(file.data() + extent.offset),
        extent.bytes / sizeof(double));
  };
  const SectionExtent& ranges = view.layout.section(Section::kMetricRanges);
  view.ranges = std::span<const MetricRange>(
      reinterpret_cast<const MetricRange*>(file.data() + ranges.offset),
      view.layout.metric_count);
  const SectionExtent& names = view.layout.section(Section::kNameIndex);
  view.names = std::span<const NameRef>(
      reinterpret_cast<const NameRef*>(file.data() + names.offset),
      view.layout.metric_count);
  const SectionExtent& strings = view.layout.section(Section::kStrings);
  view.strings = std::string_view(
      reinterpret_cast<const char*>(file.data() + strings.offset),
      strings.bytes);
  view.x0 = doubles(Section::kX0);
  view.y0 = doubles(Section::kY0);
  view.x1 = doubles(Section::kX1);
  view.y1 = doubles(Section::kY1);
  view.slopes = doubles(Section::kSlopes);
  view.intercepts = doubles(Section::kIntercepts);
  return view;
}

void append_flat(std::string& out, const FlatTables& tables) {
  const std::size_t metric_count = tables.names.size();
  const std::size_t piece_count = tables.x0.size();
  SPIRE_ASSERT(tables.ranges.size() == metric_count,
               "append_flat: ranges/names size mismatch");
  SPIRE_ASSERT(tables.y0.size() == piece_count &&
                   tables.x1.size() == piece_count &&
                   tables.y1.size() == piece_count,
               "append_flat: segment table size mismatch");
  SPIRE_ASSERT(metric_count > 0 && piece_count > 0,
               "append_flat: empty model");

  // Derived fast-path tables; degenerate/infinite pieces flatten to the
  // piece's left endpoint, mirroring LinearPiece::at's early-outs.
  std::vector<double> slopes(piece_count), intercepts(piece_count);
  for (std::size_t i = 0; i < piece_count; ++i) {
    const double x0 = tables.x0[i], y0 = tables.y0[i];
    const double x1 = tables.x1[i], y1 = tables.y1[i];
    if (!std::isfinite(x1) || x1 == x0) {
      slopes[i] = 0.0;
      intercepts[i] = y0;
    } else {
      slopes[i] = (y1 - y0) / (x1 - x0);
      intercepts[i] = y0 - slopes[i] * x0;
    }
  }

  // --- payloads -------------------------------------------------------------
  std::array<std::string, kSectionCount> payloads;
  for (const MetricRange& range : tables.ranges) {
    std::string& p = payloads[static_cast<std::size_t>(Section::kMetricRanges)];
    put_u32(p, range.left_begin);
    put_u32(p, range.left_end);
    put_u32(p, range.right_begin);
    put_u32(p, range.right_end);
    put_f64(p, range.left_max);
  }
  {
    std::string& index = payloads[static_cast<std::size_t>(Section::kNameIndex)];
    std::string& strings = payloads[static_cast<std::size_t>(Section::kStrings)];
    for (const std::string_view name : tables.names) {
      SPIRE_ASSERT(!name.empty() && name.size() <= kMaxNameBytes,
                   "append_flat: bad metric name length ", name.size());
      put_u32(index, static_cast<std::uint32_t>(strings.size()));
      put_u32(index, static_cast<std::uint32_t>(name.size()));
      strings.append(name);
    }
  }
  const auto put_column = [&payloads](Section s, std::span<const double> v) {
    std::string& p = payloads[static_cast<std::size_t>(s)];
    for (const double d : v) put_f64(p, d);
  };
  put_column(Section::kX0, tables.x0);
  put_column(Section::kY0, tables.y0);
  put_column(Section::kX1, tables.x1);
  put_column(Section::kY1, tables.y1);
  put_column(Section::kSlopes, slopes);
  put_column(Section::kIntercepts, intercepts);

  // --- layout ---------------------------------------------------------------
  while (out.size() % kFlatAlignment != 0) out.push_back('\0');
  const std::size_t flat_offset = out.size();
  std::array<std::size_t, kSectionCount> offsets{};
  std::size_t cursor =
      flat_offset + kFlatHeaderBytes + kSectionCount * kSectionEntryBytes;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    offsets[i] = cursor;
    cursor = align_up(cursor + payloads[i].size());
  }
  const std::size_t file_size = cursor + kFooterBytes;
  out.reserve(file_size);

  // --- header + section table ----------------------------------------------
  put_u64(out, kFlatMagic);
  put_u32(out, static_cast<std::uint32_t>(metric_count));
  put_u32(out, static_cast<std::uint32_t>(piece_count));
  put_u32(out, kSectionCount);
  put_u32(out, 0);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    put_u32(out, i);
    put_u32(out, util::crc32(payloads[i]));
    put_u64(out, offsets[i]);
    put_u64(out, payloads[i].size());
  }
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    out.resize(offsets[i], '\0');  // zero pad up to the 8-aligned offset
    out.append(payloads[i]);
  }
  out.resize(cursor, '\0');

  // --- footer ---------------------------------------------------------------
  const std::uint32_t file_crc = util::crc32(out);
  put_u64(out, flat_offset);
  put_u64(out, file_size);
  put_u32(out, file_crc);
  put_u32(out, 0);
  put_u64(out, kFooterMagic);
  SPIRE_ASSERT(out.size() == file_size, "append_flat: layout arithmetic drift");
}

}  // namespace spire::model::v3
