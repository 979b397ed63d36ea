#pragma once
// Span tracing: one store, two exporters, one RAII span.
//
// A SpanStore records span records {id, parent, thread, name, category,
// start, end, args} plus counter and instant samples, from any number of
// threads.  The same store answers two questions through two exporters:
//
//  * write_timeline() — "what did this *process* do": Chrome trace_event
//    begin/end ("B"/"E") pairs on one track per thread, counter ("C") and
//    instant ("i") samples.  Spans still open at export (an interrupted
//    run flushing mid-stage) get a synthetic end tagged
//    `flushed: interrupted`, so every track stays balanced.  This is the
//    CLIs' --trace-out file.
//  * write_job_trace() — "what happened to *this request*": complete
//    ("X") events with trace_id / span_id / parent_span_id args and
//    process/thread-name metadata ("M"), one connected tree regardless of
//    which pool threads the stages landed on.  This is the serve `trace`
//    op's payload, one store per job.
//
// A TraceContext is the propagation handle: the active stores ("sinks")
// and, per sink, the span new children hang under.  A Span opened on a
// context records into every sink it carries, so a flow stage run by the
// daemon with --trace-out lands in the job tree and the process timeline
// alike.  An empty context is inert: a Span on it costs two null checks.
//
//   SpanStore store;
//   {
//     Span run(TraceContext().with_sink(&store), "flow.run", "flow",
//              {{"benchmark", "diffeq"}});
//     Span fe(run.context(), "frontend");
//     fe.arg("cache", "miss");
//   }
//   std::ofstream out("run.trace.json");
//   store.write_timeline(out);
//
// Arguments given when a span opens land on its "B" event; arguments added
// later (results computed inside the span, e.g. its cache disposition)
// land on its "E" event.  The job exporter puts all of them on the "X".
// Timestamps are read under the store's mutex, so emission order and
// clock order agree on every track.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace adc {

class JsonWriter;

namespace obs {

using SpanArgs = std::vector<std::pair<std::string, std::string>>;

struct SpanRecord {
  static constexpr std::uint64_t kOpen = ~std::uint64_t{0};
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no parent)
  std::uint32_t thread = 0;  // stable per-store thread index, from 0
  std::string name;
  std::string category;
  std::uint64_t start_us = 0;  // relative to the store epoch
  std::uint64_t end_us = kOpen;
  SpanArgs args;
  std::size_t begin_args = 0;  // args[0, begin_args) were given at open

  bool closed() const { return end_us != kOpen; }
};

// Thread-safe span and sample collector.  Span granularity is one flow
// stage or one logic function, so a mutex per operation is noise next to
// the work being traced.
class SpanStore {
 public:
  explicit SpanStore(std::uint64_t trace_id = 0);

  // 16-hex-digit rendering of the trace id — what the serve wire
  // protocol echoes.
  std::string trace_id_hex() const;

  // Opens a span under `parent` (0 = a root) and returns its id (from 1).
  std::uint64_t begin(const std::string& name, const std::string& category,
                      std::uint64_t parent, SpanArgs args = {});
  // Closes an open span, attaching `args` to it.  Unknown/already-closed
  // ids are ignored (a late close after export is harmless).
  void end(std::uint64_t id, SpanArgs args = {});

  // Counter track sample (one series per name) and thread-scoped instant.
  void counter(const std::string& name, std::int64_t value);
  void instant(const std::string& name, const std::string& category, SpanArgs args = {});

  // Snapshot of every span recorded so far, in id order.
  std::vector<SpanRecord> spans() const;

  // Process timeline: {"traceEvents": [B/E/C/i...]}, tracks ordered by
  // thread index (tid = index + 1), events in emission order per track.
  void write_timeline(std::ostream& os) const;
  // Per-job tree: {"traceEvents": [M..., X...]} of the *closed* spans;
  // `pid` labels the process column (the server passes the job id).
  void write_job_trace(JsonWriter& w, std::uint64_t pid) const;

 private:
  // One entry per recorded event, in emission order: a span open, a span
  // close, or a sample (index into the matching vector).
  struct Event {
    enum class Kind : char { kBegin, kEnd, kSample } kind;
    std::uint32_t thread;
    std::size_t index;
  };
  struct Sample {
    char phase = 'C';  // 'C' counter or 'i' instant
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;
    std::int64_t value = 0;
    SpanArgs args;
  };

  // Microseconds since this store was created (the trace epoch).
  std::uint64_t now_micros() const;
  std::uint32_t thread_index_locked();

  const std::uint64_t trace_id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // span id N lives at index N-1
  std::vector<Sample> samples_;
  std::vector<Event> events_;
  std::vector<std::thread::id> threads_;  // index -> thread
};

// The propagation handle: which stores are recording, and which span new
// children hang under in each.  Copyable, cheap, inert when empty.
class TraceContext {
 public:
  TraceContext() = default;
  // One owned sink (the serve job trace), children under `parent`.
  TraceContext(std::shared_ptr<SpanStore> store, std::uint64_t parent = 0);

  // This context plus a borrowed root-level sink (the process timeline);
  // a null store returns the context unchanged.
  TraceContext with_sink(SpanStore* store) const;

  bool active() const { return sinks_[0].store != nullptr; }

 private:
  friend class Span;
  struct Sink {
    std::shared_ptr<SpanStore> store;  // non-owning when borrowed
    std::uint64_t parent = 0;
  };
  std::array<Sink, 2> sinks_;  // filled from the front
};

// RAII span on a TraceContext: opens in every sink at construction,
// closes at destruction with the args attached in between.
class Span {
 public:
  Span(const TraceContext& parent, std::string name, std::string category = "stage",
       SpanArgs begin_args = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return self_.active(); }
  // Context for children of *this* span — what gets passed downstream.
  const TraceContext& context() const { return self_; }

  void arg(std::string key, std::string value);
  // Literals must not fall into the bool overload (const char* -> bool is
  // a standard conversion and would win overload resolution).
  void arg(std::string key, const char* value) { arg(std::move(key), std::string(value)); }
  void arg(std::string key, std::uint64_t value) {
    arg(std::move(key), std::to_string(value));
  }
  void arg(std::string key, bool value) {
    arg(std::move(key), std::string(value ? "true" : "false"));
  }

 private:
  TraceContext self_;  // sinks with this span's ids as parents
  SpanArgs end_args_;
};

}  // namespace obs
}  // namespace adc
