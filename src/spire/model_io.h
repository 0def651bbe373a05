// Ensemble persistence. Two formats:
//
// Text v1 — line-oriented, diffable, hand-editable:
//
//   spire-model v1
//   metric <perf-event-name> trained_on=<n> apex=<I> <P>
//   left <k> x0 y0 x1 y1 ... (knots; "left 0" when absent)
//   right <k> x0 y0 x1 y1 ... (piece corners; x of the last corner may be
//                              "inf"; pieces may be discontinuous)
//
// Binary v3 — the one binary artifact: a one-pass stream load with no
// float parsing, and zero-copy mmap serving. Layout, all integers and
// IEEE-754 doubles little-endian fixed-width:
//
//   magic line  "spire-model-bin v3\n" (19 bytes, file(1)-friendly)
//   u32         metric section count
//   per metric section:
//     u32       section byte count (everything after this field; validated
//               against both a hard cap and the declared table sizes BEFORE
//               any allocation — a corrupt count can never balloon memory)
//     u32       metric name length, then the perf-style name bytes
//     u64       trained_on
//     f64 f64   apex intensity, apex throughput
//     u32 u32   left knot count, right piece count
//     f64 pairs left knots (x y)...
//     f64 quads right pieces (x0 y0 x1 y1)...
//   flat region the flattened serving tables, CRC-protected (see
//               spire/model_bin_v3.h for its layout)
//
// Conversion between text and binary is lossless in both directions: text
// values are written with max precision (shortest-17 round-trips every
// double) and binary values are the raw bit patterns.
//
// The writer and both readers of this format live in spire/: the stream
// loader below (any host) and v3::map_flat, which serve::CompiledModel
// runs over an owned buffer or an mmap of the file (little-endian hosts).
// load_model_bin validates the flat region too (section CRCs, whole-file
// CRC, structural and semantic checks) and cross-checks its counts against
// the parsed metric sections, so a file that stream-loads is also
// guaranteed mappable. Binary v2 (the metric sections alone, under a v2
// magic) is retired: the loader rejects it with a message that names text
// v1 as the way to carry such a model forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "spire/ensemble.h"

namespace spire::model {

/// Format version this build reads and writes. Bump when the on-disk shape
/// changes; load_model rejects other versions with a message naming both,
/// and the lint `format-version` rule flags them statically.
inline constexpr int kModelFormatVersion = 1;

/// Exact first line of a model file ("spire-model v1").
inline constexpr std::string_view kModelHeader = "spire-model v1";

void save_model(const Ensemble& ensemble, std::ostream& out);

/// Throws std::runtime_error on malformed input or unknown metric names.
/// Hardened against adversarial files: region sizes are bounded before any
/// allocation, values must be finite except the documented trailing "inf"
/// right corner, and every error message carries the 1-based line number.
Ensemble load_model(std::istream& in);

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_model_file(const Ensemble& ensemble, const std::string& path);
Ensemble load_model_file(const std::string& path);

/// Binary format version this build reads and writes.
inline constexpr int kModelBinV3FormatVersion = 3;

/// Exact leading bytes of a binary model file.
inline constexpr std::string_view kModelBinMagicV3 = "spire-model-bin v3\n";

/// The complete binary artifact for `ensemble`, as bytes. Deterministic:
/// the same ensemble always serializes to the same bytes (which is what
/// makes fnv1a64 content addressing in the registry meaningful). The flat
/// tables are defined by the one flatten walk in this writer: every
/// roofline's left then right pieces, metrics in ascending event order.
std::string model_bin_bytes(const Ensemble& ensemble);

void save_model_bin(const Ensemble& ensemble, std::ostream& out);
void save_model_bin_file(const Ensemble& ensemble, const std::string& path);

/// Throws std::runtime_error ("model-bin: ..." for the magic and the metric
/// sections, "model-v3: ..." for the flat region, with the metric section
/// or table and the byte offset) on malformed input. Hardened like the text
/// loader: every section byte count is bounded and cross-checked against
/// the declared table sizes before allocation, values must be finite except
/// the documented apex/tail infinities, and truncation at any byte is a
/// clean rejection, never a crash or over-allocation.
Ensemble load_model_bin(std::istream& in);
Ensemble load_model_bin_file(const std::string& path);

/// The magic line and metric sections of a binary model — everything
/// before the flat region — plus the totals the flat region must agree
/// with.
struct ModelBinSections {
  std::map<counters::Event, MetricRoofline> rooflines;  // never empty
  std::size_t piece_count = 0;  // left + right pieces over all metrics
  std::size_t name_bytes = 0;   // metric name bytes over all metrics
  std::size_t end_offset = 0;   // file offset one past the last section
  std::uint32_t crc = 0;        // streaming CRC state of bytes [0, end_offset)
};

/// The one metric-section parser: reads the magic line and the metric
/// sections from `in` and stops where the flat region begins, with the
/// same "model-bin: ..." diagnostics load_model_bin gives. load_model_bin
/// runs it before validating the flat region; lint runs it alone, so a
/// damaged flat region never hides the findings of an intact body.
ModelBinSections read_model_bin_sections(std::istream& in);

/// True when `path` starts with "spire-model-bin v" (any version): such a
/// file belongs to the binary loader, which reports version drift.
bool is_binary_model_file(const std::string& path);

/// Loads either format, sniffing the leading bytes of the file.
Ensemble load_model_any_file(const std::string& path);

}  // namespace spire::model
