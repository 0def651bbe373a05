// Binary model format v3 writer.
//
// The flat tables a v3 artifact appends are defined by the one flatten
// walk in this writer: every roofline's left then right pieces, metrics in
// ascending event order, laid out as shared x0/y0/x1/y1 columns plus one
// MetricRange per metric. serve::CompiledModel::compile serializes through
// here and then reads its tables out of the bytes, so a compiled model's
// tables ARE file tables — there is no second flattening to drift. (Lint
// re-flattens independently on purpose: that walk is the check that a
// file's tables match its body.) The v2-compatible prefix is produced by
// model::append_model_bin_body, byte-identical to a v2 file of the same
// ensemble, so v2-era readers' stream path keeps working.
//
// Readers: model::load_model_bin (stream deserialize, any host) and
// serve::CompiledModel (in place over an owned buffer or an mmap,
// little-endian hosts).
#pragma once

#include <string>

#include "spire/ensemble.h"

namespace spire::serve {

/// The complete v3 artifact for `ensemble`, as bytes. Deterministic: the
/// same ensemble always serializes to the same bytes (which is what makes
/// fnv1a64 content addressing in the registry meaningful).
std::string model_v3_bytes(const model::Ensemble& ensemble);

/// Writes the v3 artifact to `path`. Throws std::runtime_error on I/O
/// failure.
void save_model_v3_file(const model::Ensemble& ensemble,
                        const std::string& path);

}  // namespace spire::serve
