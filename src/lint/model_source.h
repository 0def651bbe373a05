// Lenient, lossless parsing of serialized SPIRE model files for static
// analysis. Unlike model::load_model — which constructs real PiecewiseLinear
// objects and therefore MUST reject degenerate or non-finite geometry — this
// parser keeps whatever the file says, however broken, so the lint rules can
// point at the exact line that violates an invariant instead of the loader
// dying on the first one.
//
// Structural problems that prevent reading any further (a region line whose
// token stream ends early, a line that is neither metric/left/right) are
// recorded as ParseIssues; everything value-shaped parses into the raw model
// even when it is NaN, infinite, negative, or out of order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "counters/events.h"
#include "geom/piecewise_linear.h"
#include "geom/point.h"

namespace spire::lint {

/// A structural defect found while parsing (not an invariant violation —
/// those are the rules' jurisdiction). `line` is 1-based.
struct ParseIssue {
  std::size_t line = 0;
  std::string message;
};

/// One metric block ("metric" + "left" + "right" lines), exactly as written.
struct RawMetricModel {
  std::string name;                        // metric name token
  std::optional<counters::Event> event;    // nullopt when not in the catalog
  std::size_t line = 0;                    // "metric" line number
  std::uint64_t trained_on = 0;
  bool trained_on_valid = false;
  double apex_x = 0.0;
  double apex_y = 0.0;

  std::vector<geom::Point> left_knots;     // may be empty ("left 0")
  std::size_t left_line = 0;
  bool left_complete = false;              // all declared knots were present

  std::vector<geom::LinearPiece> right_pieces;
  std::size_t right_line = 0;
  bool right_complete = false;             // all declared pieces were present
};

/// A whole model file, raw.
struct RawModel {
  std::string header;                      // first non-empty line, verbatim
  int version = -1;                        // N from "spire-model vN"; -1 when
                                           // the header is not in that shape
  std::size_t header_line = 0;             // 0 when the file was empty
  std::vector<RawMetricModel> metrics;
  std::vector<ParseIssue> issues;

  /// True when the file was a binary artifact. Binary files have no
  /// lenient line structure, so they are linted through the loader's
  /// strict metric-section parser plus a lossless conversion to the text
  /// form: on success the fields above describe the converted text (line
  /// numbers refer to it), on failure `binary_error` carries the parser's
  /// message (with section and byte offset, or the retired-v2 and
  /// unsupported-version rejections) and everything else stays empty —
  /// the binary-load rule turns it into a finding.
  ///
  /// The flattened serving tables are linted INDEPENDENTLY of the metric
  /// sections so one corrupt region never hides the other's findings:
  /// `flat_issues` holds the flat validator's diagnostics (section + byte
  /// offset; the flat-structure rule), and `flat_mismatch` is non-empty
  /// when the flat tables validate but differ from the tables the strict
  /// model would compile to (the flat-mismatch rule — a drifted table
  /// serves different estimates than the ensemble).
  bool binary = false;
  std::string binary_error;
  std::vector<std::string> flat_issues;
  std::string flat_mismatch;

  bool structurally_sound() const { return issues.empty(); }
};

/// Never throws on malformed content; every problem lands in
/// RawModel::issues. (I/O errors on a broken stream still surface as an
/// issue, not an exception.)
RawModel parse_raw_model(std::istream& in);

/// File wrapper; an unreadable path becomes a single ParseIssue at line 0.
RawModel parse_raw_model_file(const std::string& path);

}  // namespace spire::lint
