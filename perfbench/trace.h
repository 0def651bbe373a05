// In-memory span recorder for the traced run.
//
// A span is opened in the benchmark's own code around one call into a
// SPIRE module and records its name, start, end, parent (the innermost
// span open on the same thread) and the request it belongs to, so the
// rows of the serving ladder that carry the same profile share an id.
// The layer is the name's prefix up to the first '.' (`serve.kernel` is in
// `serve`). When tracing is off a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

void set_enabled(bool on);
bool enabled();

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Seconds each layer spent in its own spans, children excluded.
std::map<std::string, double> self_seconds();

std::uint64_t span_count();

/// Writes every recorded span as tab-separated rows
/// (id, parent, request, thread, name, start_ns, end_ns).
void write_tsv(const std::string& path);

}  // namespace perfbench::trace
