// The benchmark's own span recorder: with tracing on, every public layer call
// a workload makes is wrapped in a Span (name, start, end, parent, thread,
// pass). Spans stay in memory and are written out once, when the benchmark
// ends. With tracing off a Span records nothing — the untraced run measures
// the end-to-end metrics, the traced run gives the per-layer numbers.
//
// Naming: a layer span is named "<layer>.<call>" (minic., vm., trace.,
// analysis., ckpt., net.); a span without a dot ("pass", "app", "client") only
// organizes the tree. A span opened with Track::Yes is a coverage track: its
// untimed time is its duration minus the layer spans inside it on its thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int thread = 0;   // small per-thread id, 0 = first thread that recorded
  int pass = -1;    // pass index the span belongs to (-1 = outside passes)
  bool track = false;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  bool is_layer() const { return name.find('.') != std::string::npos; }
};

enum class Track { No, Yes };

class Tracer {
 public:
  Tracer(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Stamped on every span opened afterwards.
  void set_pass(int pass) { pass_ = pass; }

  /// Open a span; returns its id (-1 when disabled). parent < 0 means the
  /// calling thread's innermost open span.
  int open(std::string name, int parent, Track track);
  void close(int id);

  std::vector<SpanRecord> spans() const;

  /// {"workload": ..., "spans": [{id, name, workload, start_ns, end_ns,
  /// parent, thread, pass, track}, ...]}.
  std::string to_json() const;

 private:
  const bool enabled_;
  const std::string workload_;
  int pass_ = -1;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span. The explicit-parent form roots a span opened on a new thread
/// (e.g. a remote client) under a span of the spawning thread.
class Span {
 public:
  Span(Tracer& t, std::string name, Track track = Track::No, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_ = -1;
  int saved_current_ = -1;
};

/// Sum of the durations of spans named `name` in pass `pass`.
double span_seconds(const std::vector<SpanRecord>& spans, const std::string& name, int pass);

/// Coverage of one pass: the summed duration of its tracks, and the part of
/// it no layer span covers.
struct Coverage {
  double track_s = 0;
  double untimed_s = 0;
};
Coverage coverage(const std::vector<SpanRecord>& spans, int pass);

}  // namespace pipebench
