#include "spans.hpp"

#include <atomic>

#include "support/json.hpp"
#include "support/timer.hpp"

namespace pipebench {

namespace {

thread_local int tl_current = -1;

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

int Tracer::open(std::string name, int parent, Track track) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent >= 0 ? parent : tl_current;
  rec.thread = thread_id();
  rec.pass = pass_;
  rec.track = track == Track::Yes;
  rec.start_ns = ac::now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const std::uint64_t end = ac::now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::to_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out;
  ac::JsonWriter w(&out);
  w.begin_object().field("workload", std::string_view(workload_)).key("spans").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    w.begin_object()
        .field("id", static_cast<std::uint64_t>(i))
        .field("name", std::string_view(s.name))
        .field("workload", std::string_view(workload_))
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .field("parent", s.parent)
        .field("thread", s.thread)
        .field("pass", s.pass)
        .field("track", s.track)
        .end_object();
  }
  w.end_array().end_object();
  out += '\n';
  return out;
}

Span::Span(Tracer& t, std::string name, Track track, int parent) : tracer_(t) {
  if (!t.enabled()) return;
  id_ = t.open(std::move(name), parent, track);
  saved_current_ = tl_current;
  tl_current = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  tracer_.close(id_);
  tl_current = saved_current_;
}

double span_seconds(const std::vector<SpanRecord>& spans, const std::string& name, int pass) {
  double total = 0;
  for (const SpanRecord& s : spans) {
    if (s.pass == pass && s.name == name) total += s.seconds();
  }
  return total;
}

Coverage coverage(const std::vector<SpanRecord>& spans, int pass) {
  Coverage cov;
  std::vector<double> covered(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.pass != pass || !s.is_layer()) continue;
    // Credit the layer span to the nearest enclosing track on its own thread;
    // a layer span nested in another layer span is already counted.
    for (int p = s.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
      const SpanRecord& anc = spans[static_cast<std::size_t>(p)];
      if (anc.thread != s.thread) break;
      if (anc.is_layer()) break;
      if (anc.track) {
        covered[static_cast<std::size_t>(p)] += s.seconds();
        break;
      }
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass != pass || !spans[i].track) continue;
    cov.track_s += spans[i].seconds();
    cov.untimed_s += spans[i].seconds() - covered[i];
  }
  return cov;
}

}  // namespace pipebench
