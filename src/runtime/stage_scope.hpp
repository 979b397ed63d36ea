#pragma once
// One instrument per flow stage.
//
// A StageScope opens the stage's span (in every sink of the trace
// context), times wall clock and the executing thread's CPU, and on close
// records the wall time into the `stage.<stage>` histogram of the
// executor's registry and appends a StageTiming to the point.  CPU time is
// the executing thread's, so a stage served from the cache shows near-zero
// CPU while its wall time still captures lock waits.  A stage left by an
// exception still records its histogram sample but no StageTiming: the
// point reports the stages that completed.
//
//   StageScope s(metrics_, ctx, "frontend", &p.timings);
//   ... compute, or hit the cache ...
//   s.cached(hit);  // StageTiming::cached and the span's `cache` arg

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace adc {

struct StageTiming {
  std::string stage;
  std::uint64_t micros = 0;      // wall time
  std::uint64_t cpu_micros = 0;  // executing thread's CPU time
  bool cached = false;           // served from the stage cache
};

class StageScope {
 public:
  // `span` names the span when it differs from the stage (disk.probe);
  // `timings` may be null for a stage that reports no timing row.
  StageScope(obs::Registry& metrics, const obs::TraceContext& parent, std::string stage,
             std::vector<StageTiming>* timings, const char* span = nullptr,
             const char* category = "stage");
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  // Context for child spans of this stage.
  const obs::TraceContext& context() const { return span_.context(); }
  template <typename T>
  void arg(std::string key, T value) {
    span_.arg(std::move(key), value);
  }
  void cached(bool hit);

 private:
  obs::Registry& metrics_;
  std::vector<StageTiming>* timings_;
  StageTiming timing_;
  obs::Span span_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t cpu_start_;
  int unwinding_ = std::uncaught_exceptions();
};

}  // namespace adc
