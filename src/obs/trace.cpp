#include "obs/trace.hpp"

#include <algorithm>

#include "report/json.hpp"

namespace adc {
namespace obs {

SpanStore::SpanStore(std::uint64_t trace_id)
    : trace_id_(trace_id), epoch_(std::chrono::steady_clock::now()) {}

std::string SpanStore::trace_id_hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = trace_id_;
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t SpanStore::now_micros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t SpanStore::thread_index_locked() {
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == self) return static_cast<std::uint32_t>(i);
  threads_.push_back(self);
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

std::uint64_t SpanStore::begin(const std::string& name, const std::string& category,
                               std::uint64_t parent, SpanArgs args) {
  std::lock_guard<std::mutex> lk(mu_);
  SpanRecord rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.thread = thread_index_locked();
  rec.name = name;
  rec.category = category;
  rec.start_us = now_micros();
  rec.begin_args = args.size();
  rec.args = std::move(args);
  events_.push_back({Event::Kind::kBegin, rec.thread, spans_.size()});
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void SpanStore::end(std::uint64_t id, SpanArgs args) {
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& rec = spans_[id - 1];
  if (rec.closed()) return;
  rec.end_us = now_micros();
  for (auto& kv : args) rec.args.push_back(std::move(kv));
  events_.push_back({Event::Kind::kEnd, rec.thread, id - 1});
}

void SpanStore::counter(const std::string& name, std::int64_t value) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back({Event::Kind::kSample, thread_index_locked(), samples_.size()});
  samples_.push_back({'C', name, "counter", now_micros(), value, {}});
}

void SpanStore::instant(const std::string& name, const std::string& category,
                        SpanArgs args) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back({Event::Kind::kSample, thread_index_locked(), samples_.size()});
  samples_.push_back({'i', name, category, now_micros(), 0, std::move(args)});
}

std::vector<SpanRecord> SpanStore::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

namespace {

void write_args(JsonWriter& w, SpanArgs::const_iterator first,
                SpanArgs::const_iterator last) {
  if (first == last) return;
  w.key("args");
  w.begin_object();
  for (; first != last; ++first) w.kv(first->first, first->second);
  w.end_object();
}

}  // namespace

void SpanStore::write_timeline(std::ostream& os) const {
  std::vector<SpanRecord> spans;
  std::vector<Sample> samples;
  std::vector<Event> events;
  std::size_t n_threads = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans = spans_;
    samples = samples_;
    events = events_;
    n_threads = threads_.size();
  }
  const std::uint64_t now = now_micros();
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (std::uint32_t t = 0; t < n_threads; ++t) {
    auto header = [&](const std::string& name, const std::string& category, char ph,
                      std::uint64_t ts) {
      w.begin_object();
      w.kv("name", name);
      w.kv("cat", category.empty() ? "adc" : category);
      w.kv("ph", std::string(1, ph));
      w.kv("ts", ts);
      w.kv("pid", 1);
      w.kv("tid", static_cast<std::uint64_t>(t) + 1);  // tids start at 1
    };
    std::vector<const SpanRecord*> open;  // this track's unclosed spans
    std::uint64_t last_ts = 0;
    for (const Event& ev : events) {
      if (ev.thread != t) continue;
      if (ev.kind == Event::Kind::kSample) {
        const Sample& s = samples[ev.index];
        header(s.name, s.category, s.phase, s.ts_us);
        last_ts = std::max(last_ts, s.ts_us);
        if (s.phase == 'i') {
          w.kv("s", "t");  // thread-scoped
          write_args(w, s.args.begin(), s.args.end());
        } else {
          w.key("args");
          w.begin_object();
          w.kv("value", s.value);
          w.end_object();
        }
        w.end_object();
        continue;
      }
      const SpanRecord& r = spans[ev.index];
      const auto split = r.args.begin() + static_cast<std::ptrdiff_t>(r.begin_args);
      if (ev.kind == Event::Kind::kBegin) {
        header(r.name, r.category, 'B', r.start_us);
        last_ts = std::max(last_ts, r.start_us);
        write_args(w, r.args.begin(), split);
        if (!r.closed()) open.push_back(&r);
      } else {
        header(r.name, r.category, 'E', r.end_us);
        last_ts = std::max(last_ts, r.end_us);
        write_args(w, split, r.args.end());
      }
      w.end_object();
    }
    // Close spans still in flight (an interrupted run flushing mid-stage):
    // a synthetic end per unmatched begin, innermost first, keeps B/E
    // balanced per track.
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      header((*it)->name, (*it)->category, 'E', std::max(last_ts, now));
      w.key("args");
      w.begin_object();
      w.kv("flushed", "interrupted");
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  os << w.str();
}

void SpanStore::write_job_trace(JsonWriter& w, std::uint64_t pid) const {
  std::vector<SpanRecord> spans;
  std::size_t n_threads = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans = spans_;
    n_threads = threads_.size();
  }
  const std::string trace_hex = trace_id_hex();
  auto metadata = [&](std::uint64_t tid, const char* what, const std::string& name) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.kv("name", what);
    w.key("args");
    w.begin_object();
    w.kv("name", name);
    w.end_object();
    w.end_object();
  };
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  // Name the process after the job so several merged job traces stay
  // distinguishable in one Perfetto view.
  metadata(0, "process_name", "job " + std::to_string(pid) + " trace " + trace_hex);
  for (std::size_t t = 0; t < n_threads; ++t)
    metadata(t, "thread_name", t == 0 ? std::string("server") : "worker-" + std::to_string(t));
  for (const auto& s : spans) {
    if (!s.closed()) continue;  // still open — not exportable yet
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(s.thread));
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ts", s.start_us);
    // A stage can finish so fast the µs clock doesn't tick; a nonzero
    // duration keeps the complete event visible.
    w.kv("dur", std::max<std::uint64_t>(s.end_us - s.start_us, 1));
    w.key("args");
    w.begin_object();
    w.kv("trace_id", trace_hex);
    w.kv("span_id", s.id);
    w.kv("parent_span_id", s.parent);
    for (const auto& [k, v] : s.args) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

TraceContext::TraceContext(std::shared_ptr<SpanStore> store, std::uint64_t parent) {
  sinks_[0] = {std::move(store), parent};
}

TraceContext TraceContext::with_sink(SpanStore* store) const {
  if (!store) return *this;
  TraceContext out = *this;
  // Aliasing constructor with an empty owner: a non-owning handle.
  Sink borrowed{std::shared_ptr<SpanStore>(std::shared_ptr<SpanStore>(), store), 0};
  if (!out.sinks_[0].store) out.sinks_[0] = std::move(borrowed);
  else out.sinks_[1] = std::move(borrowed);
  return out;
}

Span::Span(const TraceContext& parent, std::string name, std::string category,
           SpanArgs begin_args) {
  for (std::size_t i = 0; i < parent.sinks_.size(); ++i) {
    const TraceContext::Sink& sink = parent.sinks_[i];
    if (!sink.store) break;
    self_.sinks_[i] = {sink.store, sink.store->begin(name, category, sink.parent,
                                                     begin_args)};
  }
}

Span::~Span() {
  for (const TraceContext::Sink& sink : self_.sinks_) {
    if (!sink.store) break;
    sink.store->end(sink.parent, end_args_);
  }
}

void Span::arg(std::string key, std::string value) {
  if (active()) end_args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace obs
}  // namespace adc
