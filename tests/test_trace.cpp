// Trace-layer tests: the span store's process timeline must be well-formed
// Chrome trace_event JSON (validated with the repo's own parser) with
// balanced B/E pairs per track even under a multi-threaded DSE batch,
// stage spans must carry their cache disposition — identically in the
// timeline and the per-job tree — and the structured logger must honour
// levels and render fields.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "runtime/flow.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"

namespace adc {
namespace {

JsonValue timeline_json(const obs::SpanStore& store) {
  std::ostringstream os;
  store.write_timeline(os);
  return parse_json(os.str());
}

// --- span store unit --------------------------------------------------------

TEST(Tracer, SpansBeginAndEndOnOneTrack) {
  obs::SpanStore store;
  {
    obs::Span outer(obs::TraceContext().with_sink(&store), "outer", "test");
    obs::Span inner(outer.context(), "inner", "test");
    inner.arg("cache", "miss");
  }
  auto spans = store.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);

  const JsonValue doc = timeline_json(store);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 4u);
  for (const JsonValue& ev : events) EXPECT_EQ(ev.at("tid").number, 1.0);
  EXPECT_EQ(events[0].at("ph").string, "B");
  EXPECT_EQ(events[0].at("name").string, "outer");
  EXPECT_EQ(events[1].at("name").string, "inner");
  // Inner ends before outer; args land on the end event.
  EXPECT_EQ(events[2].at("ph").string, "E");
  EXPECT_EQ(events[2].at("name").string, "inner");
  EXPECT_EQ(events[2].at("args").at("cache").string, "miss");
  EXPECT_EQ(events[3].at("name").string, "outer");
}

TEST(Tracer, TimestampsAreMonotonicPerTrack) {
  obs::SpanStore store;
  const obs::TraceContext ctx = obs::TraceContext().with_sink(&store);
  for (int i = 0; i < 10; ++i) obs::Span span(ctx, "s", "test");
  const JsonValue doc = timeline_json(store);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 20u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].at("ts").number, events[i - 1].at("ts").number);
}

TEST(Tracer, NullTracerIsANoOp) {
  obs::Span span(obs::TraceContext().with_sink(nullptr), "ignored");
  span.arg("k", "v");
  EXPECT_FALSE(span.active());
}

TEST(Tracer, CounterAndInstantEvents) {
  obs::SpanStore store;
  store.counter("queue", 3);
  store.instant("deadlock", "sim", {{"benchmark", "x"}});
  const JsonValue doc = timeline_json(store);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("ph").string, "C");
  EXPECT_EQ(events[0].at("args").at("value").number, 3.0);
  EXPECT_EQ(events[1].at("ph").string, "i");
  EXPECT_EQ(events[1].at("s").string, "t");
  EXPECT_EQ(events[1].at("args").at("benchmark").string, "x");
}

TEST(Tracer, OpenSpansAreFlushedAsInterrupted) {
  obs::SpanStore store;
  std::uint64_t outer = store.begin("outer", "test", 0);
  store.begin("inner", "test", outer);
  const JsonValue doc = timeline_json(store);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].at("name").string, "inner");
  EXPECT_EQ(events[3].at("name").string, "outer");
  for (std::size_t i : {2u, 3u}) {
    EXPECT_EQ(events[i].at("ph").string, "E");
    EXPECT_EQ(events[i].at("args").at("flushed").string, "interrupted");
  }
}

// --- Chrome JSON schema under a multi-threaded batch ----------------------

JsonValue traced_batch(obs::SpanStore& tracer) {
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  std::vector<FlowRequest> reqs;
  for (const char* script : {"lt", "gt2; gt5; lt", "gt1; gt2; gt4; gt2; gt5; lt"})
    reqs.push_back(make_builtin_request(*b, script));
  ThreadPool pool(4);
  FlowExecutor::Options opts;
  opts.tracer = &tracer;
  FlowExecutor exec(&pool, opts);
  auto points = exec.run_all(reqs);
  for (const auto& p : points) EXPECT_TRUE(p.ok) << p.script << ": " << p.error;
  return timeline_json(tracer);
}

TEST(ChromeTrace, WellFormedWithBalancedSpansPerTrack) {
  obs::SpanStore tracer;
  JsonValue doc = traced_batch(tracer);
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::map<int, int> depth;  // tid -> open span count
  std::map<int, std::uint64_t> last_ts;
  for (const JsonValue& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.at("name").is_string());
    EXPECT_TRUE(ev.at("ts").is_number());
    EXPECT_TRUE(ev.at("pid").is_number());
    const std::string& ph = ev.at("ph").string;
    int tid = static_cast<int>(ev.at("tid").number);
    auto ts = static_cast<std::uint64_t>(ev.at("ts").number);
    EXPECT_GE(ts, last_ts[tid]) << "time moved backwards on track " << tid;
    last_ts[tid] = ts;
    if (ph == "B") ++depth[tid];
    else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "end without begin on track " << tid;
    } else {
      EXPECT_TRUE(ph == "C" || ph == "i") << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unbalanced track " << tid;
}

TEST(ChromeTrace, StageSpansCarryCacheDisposition) {
  obs::SpanStore tracer;
  JsonValue doc = traced_batch(tracer);
  std::map<std::string, int> cache_args;  // "hit"/"miss" -> count
  std::map<std::string, int> span_names;  // full names and "prefix:" forms
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string == "B") {
      const std::string& name = ev.at("name").string;
      ++span_names[name];
      if (auto colon = name.find(':'); colon != std::string::npos)
        ++span_names[name.substr(0, colon + 1)];
    }
    if (ev.at("ph").string != "E") continue;
    if (const JsonValue* args = ev.find("args"))
      if (const JsonValue* cache = args->find("cache")) ++cache_args[cache->string];
  }
  // Every flow stage appears as a span...
  for (const char* stage :
       {"flow.run", "frontend", "global", "controllers", "controller:", "fn:", "sim"})
    EXPECT_GT(span_names[stage], 0) << stage;
  EXPECT_GT(span_names["gt2"], 0) << "per-step global spans";
  // ...and the cache disposition annotations include both outcomes (three
  // recipes share the frontend, so at least one hit is guaranteed).
  EXPECT_GT(cache_args["miss"], 0);
  EXPECT_GT(cache_args["hit"], 0);
}

TEST(ChromeTrace, GaugesAreSampledAsCounterEvents) {
  obs::SpanStore tracer;
  JsonValue doc = traced_batch(tracer);
  std::map<std::string, int> counters;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string != "C") continue;
    EXPECT_TRUE(ev.at("args").at("value").is_number());
    ++counters[ev.at("name").string];
  }
  EXPECT_GT(counters["cache.entries"], 0);
  EXPECT_GT(counters["cache.bytes"], 0);
  EXPECT_GT(counters["pool.pending"], 0);
}

// One point traced into a process timeline and a per-job tree at once:
// every span lands in both exports under the same name with the same
// `cache` argument, and the point's StageTimings name the same stages.
TEST(ChromeTrace, TimelineAndJobTraceRecordTheSameStages) {
  obs::SpanStore timeline;
  auto job = std::make_shared<obs::SpanStore>(7);
  FlowExecutor::Options opts;
  opts.tracer = &timeline;
  FlowExecutor exec(nullptr, opts);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "gt2; gt5; lt");
  req.trace = obs::TraceContext(job, 0);
  FlowPoint p = exec.run(req);
  ASSERT_TRUE(p.ok) << p.error;

  using Tagged = std::vector<std::pair<std::string, std::string>>;  // name, cache
  auto cache_of = [](const JsonValue& ev) -> std::string {
    const JsonValue* args = ev.find("args");
    const JsonValue* cache = args ? args->find("cache") : nullptr;
    return cache ? cache->string : "";
  };
  Tagged from_timeline, from_job;
  const JsonValue timeline_doc = timeline_json(timeline);
  for (const JsonValue& ev : timeline_doc.at("traceEvents").array)
    if (ev.at("ph").string == "E") from_timeline.emplace_back(ev.at("name").string, cache_of(ev));
  JsonWriter w;
  job->write_job_trace(w, 1);
  const JsonValue job_doc = parse_json(w.str());
  for (const JsonValue& ev : job_doc.at("traceEvents").array)
    if (ev.at("ph").string == "X") from_job.emplace_back(ev.at("name").string, cache_of(ev));
  std::sort(from_timeline.begin(), from_timeline.end());
  std::sort(from_job.begin(), from_job.end());
  EXPECT_EQ(from_timeline, from_job);

  ASSERT_FALSE(p.timings.empty());
  for (const StageTiming& t : p.timings) {
    auto it = std::find_if(from_job.begin(), from_job.end(),
                           [&](const auto& s) { return s.first == t.stage; });
    ASSERT_NE(it, from_job.end()) << t.stage;
    if (!it->second.empty()) {
      EXPECT_EQ(it->second, t.cached ? "hit" : "miss") << t.stage;
    }
  }
  auto has = [&](const char* prefix) {
    return std::any_of(from_job.begin(), from_job.end(),
                       [&](const auto& s) { return s.first.rfind(prefix, 0) == 0; });
  };
  EXPECT_TRUE(has("fn:")) << "per-function logic spans reach both exports";
  EXPECT_TRUE(has("gt5"));
}

// --- structured logger ----------------------------------------------------

TEST(Log, LevelsGateEmission) {
  std::string captured;
  log_capture_to(&captured);
  LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);
  ADC_LOG_INFO("test", "hidden");
  ADC_LOG_WARN("test", "visible", {{"code", 7}});
  set_log_level(before);
  log_capture_to(nullptr);
  EXPECT_EQ(captured.find("hidden"), std::string::npos);
  EXPECT_NE(captured.find("visible"), std::string::npos);
  EXPECT_NE(captured.find("code=7"), std::string::npos);
  EXPECT_NE(captured.find("[warn"), std::string::npos);
}

TEST(Log, FieldRenderingQuotesSpaces) {
  std::string captured;
  log_capture_to(&captured);
  LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  ADC_LOG_INFO("test", "msg", {{"k", "two words"}, {"flag", true}});
  set_log_level(before);
  log_capture_to(nullptr);
  EXPECT_NE(captured.find("k=\"two words\""), std::string::npos);
  EXPECT_NE(captured.find("flag=true"), std::string::npos);
}

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("error"), LogLevel::kError);
  EXPECT_THROW(log_level_from_string("loud"), std::invalid_argument);
  EXPECT_STREQ(to_string(LogLevel::kInfo), "info");
}

// --- artifact flush registry ----------------------------------------------

TEST(Flush, CallbacksRunOnceAndAreConsumed) {
  int runs = 0;
  register_artifact_flush("test-artifact", [&runs] { ++runs; });
  flush_artifacts_now();
  EXPECT_EQ(runs, 1);
  flush_artifacts_now();  // already consumed
  EXPECT_EQ(runs, 1);
}

TEST(Flush, UnregisteredCallbackDoesNotRun) {
  int runs = 0;
  int token = register_artifact_flush("written-normally", [&runs] { ++runs; });
  unregister_artifact_flush(token);
  flush_artifacts_now();
  EXPECT_EQ(runs, 0);
}

TEST(Flush, MultipleArtifactsFlushIndependently) {
  int a = 0, b = 0;
  register_artifact_flush("a", [&a] { ++a; });
  int tb = register_artifact_flush("b", [&b] { ++b; });
  unregister_artifact_flush(tb);
  flush_artifacts_now();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
}

TEST(Flush, ThrowingCallbackIsContained) {
  int after = 0;
  register_artifact_flush("bad", [] { throw std::runtime_error("disk full"); });
  register_artifact_flush("good", [&after] { ++after; });
  EXPECT_NO_THROW(flush_artifacts_now());
  EXPECT_EQ(after, 1);
}

TEST(Flush, InstallHandlersIsIdempotent) {
  install_flush_handlers();
  install_flush_handlers();  // must not double-register atexit work
}

}  // namespace
}  // namespace adc
