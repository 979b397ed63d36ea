#include "runtime/stage_scope.hpp"

#include <ctime>

namespace adc {

namespace {

// Current thread's consumed CPU time in microseconds
// (CLOCK_THREAD_CPUTIME_ID on POSIX; a process-wide std::clock fallback
// elsewhere).  Monotonic per thread — subtract two samples for a span.
std::uint64_t thread_cpu_micros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
#endif
  return static_cast<std::uint64_t>(
      static_cast<double>(std::clock()) * 1e6 / CLOCKS_PER_SEC);
}

}  // namespace

StageScope::StageScope(obs::Registry& metrics, const obs::TraceContext& parent,
                       std::string stage, std::vector<StageTiming>* timings,
                       const char* span, const char* category)
    : metrics_(metrics),
      timings_(timings),
      timing_{std::move(stage)},
      span_(parent, span ? span : timing_.stage, category),
      start_(std::chrono::steady_clock::now()),
      cpu_start_(thread_cpu_micros()) {}

void StageScope::cached(bool hit) {
  timing_.cached = hit;
  span_.arg("cache", hit ? "hit" : "miss");
}

StageScope::~StageScope() {
  const std::uint64_t cpu = thread_cpu_micros();
  timing_.cpu_micros = cpu > cpu_start_ ? cpu - cpu_start_ : 0;
  timing_.micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  metrics_.histogram("stage." + timing_.stage).record_micros(timing_.micros);
  if (timings_ && std::uncaught_exceptions() == unwinding_)
    timings_->push_back(std::move(timing_));
}

}  // namespace adc
