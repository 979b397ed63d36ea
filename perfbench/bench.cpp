// End-to-end and per-layer benchmark of the synthesis flow.
//
//   adc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--programs <list>]
//
// Every design point runs one recipe of the 32-recipe GT ablation grid
// (gt_ablation_grid(true)) with deterministic delays and the program's
// bundled register file.  A pass evaluates every point of the workload on
// a fresh FlowExecutor, so each pass is cold; within a pass prefix and
// cover sharing happen exactly as for a batch DSE user.  `--seed` only
// shuffles the order in which a pass submits its points: the point set,
// and with it every exact count, is the same for every seed.
//
// --trace 0 drives FlowExecutor and prints the end-to-end metrics.
// --trace 1 alternates untraced executor passes (runtime counters) with a
// replay that calls each layer's public functions in executor order and
// times them, and prints the per-layer metrics.
//
// Every point's final registers are checked against run_sequential on the
// untransformed CDFG.  Failing points are counted and listed, never
// dropped.  The run fails (`correct: false`) when an exact value differs
// between two passes, when a replayed point's verdict or design figures
// differ from the executor's, or when the replayed layers cover less than
// 95% of the replay's wall.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/encoding.hpp"
#include "logic/flow_table.hpp"
#include "logic/hazard_free.hpp"
#include "logic/memo.hpp"
#include "logic/minimize.hpp"
#include "logic/netlist.hpp"
#include "ltrans/local.hpp"
#include "perf/measure.hpp"
#include "runtime/flow.hpp"
#include "sim/event_sim.hpp"
#include "sim/token_sim.hpp"
#include "trace/log.hpp"
#include "transforms/script.hpp"

using namespace adc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() { return 1e-6 * static_cast<double>(perf::process_cpu_micros()); }

// Peak resident set since the last reset_peak_rss(), in MiB.  Falls back to
// the process lifetime peak where /proc does not allow the reset.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f && std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  if (f) std::fclose(f);
  if (kib < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

// Returns freed heap to the system and restarts the peak-RSS count, so each
// pass's peak is its own and not the largest of all passes so far.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Workloads

struct Program {
  std::string name;
  std::function<Cdfg()> build;  // the program factory a user calls
  std::map<std::string, std::int64_t> init;
};

struct Workload {
  std::string name;
  std::vector<Program> programs;
  bool executor_per_program = false;
  // Whole passes a run makes at least.  The tail percentile is fixed from
  // min_passes * points per pass, so it does not move when a pass gets
  // faster and more of them fit in the run.
  int min_passes = 1;
};

Program builtin_program(const std::string& name) {
  const BuiltinBenchmark* b = find_builtin(name);
  if (!b) throw std::invalid_argument("unknown builtin benchmark " + name);
  return {b->name, b->make, b->init};
}

// The random-program shape of the random_programs workload.  Registers
// start at n=3 (three loop trips), cond=1 and r_i = i + seed.
Program random_program_of(std::uint64_t seed) {
  RandomProgramParams p;
  p.alus = 3;
  p.mults = 2;
  p.stmts = 12;
  p.regs = 6;
  std::map<std::string, std::int64_t> init{{"n", 3}, {"cond", 1}};
  for (int i = 0; i < p.regs; ++i)
    init["r" + std::to_string(i)] = i + static_cast<std::int64_t>(seed);
  return {"random_" + std::to_string(seed), [p, seed] { return random_program(p, seed); },
          init};
}

Workload make_workload(const std::string& name, const std::vector<std::uint64_t>& seeds) {
  Workload w;
  w.name = name;
  if (name == "grid_cover") {
    for (const char* b : {"diffeq", "fir4", "ewf_lite", "ewf"})
      w.programs.push_back(builtin_program(b));
    w.min_passes = 4;
  } else if (name == "grid_encode") {
    for (const char* b : {"gcd", "mac_reduce"}) w.programs.push_back(builtin_program(b));
    w.min_passes = 2;
  } else if (name == "random_programs") {
    for (std::uint64_t s : seeds) w.programs.push_back(random_program_of(s));
    w.executor_per_program = true;
    w.min_passes = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

struct Point {
  std::size_t program = 0;
  std::string recipe;
};

// Points of one pass, in the order the seed gives that pass.  Workloads
// with one executor per program keep each program's points together.
std::vector<Point> pass_order(const Workload& w, std::uint64_t seed, int pass) {
  std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(pass));
  const std::vector<std::string> grid = gt_ablation_grid(true);
  std::vector<std::size_t> progs(w.programs.size());
  for (std::size_t i = 0; i < progs.size(); ++i) progs[i] = i;
  std::vector<Point> out;
  if (w.executor_per_program) {
    std::shuffle(progs.begin(), progs.end(), rng);
    for (std::size_t pi : progs) {
      std::vector<std::string> recipes = grid;
      std::shuffle(recipes.begin(), recipes.end(), rng);
      for (auto& r : recipes) out.push_back({pi, std::move(r)});
    }
  } else {
    for (std::size_t pi : progs)
      for (const auto& r : grid) out.push_back({pi, r});
    std::shuffle(out.begin(), out.end(), rng);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output oracle and exact summaries

enum class Verdict { kVerified, kError, kDeadlock, kWrongResult };

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kVerified: return "verified";
    case Verdict::kError: return "error";
    case Verdict::kDeadlock: return "deadlock";
    case Verdict::kWrongResult: return "wrong_result";
  }
  return "error";
}

Verdict classify(const FlowPoint& p, const std::map<std::string, std::int64_t>& golden) {
  if (p.status == FlowStatus::kDeadlock) return Verdict::kDeadlock;
  if (p.status != FlowStatus::kOk) return Verdict::kError;
  return p.sim_registers == golden ? Verdict::kVerified : Verdict::kWrongResult;
}

// What one point came to: its verdict and, unless that is an error, its
// design figures.  The replay must reach the executor's outcome on every
// point, or its layer map describes some other computation.
struct Outcome {
  Verdict verdict = Verdict::kError;
  std::size_t products = 0, literals = 0, states = 0, channels = 0;
  std::int64_t latency = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const FlowPoint& p, Verdict v) {
  if (v == Verdict::kError) return {};
  return {v, p.products, p.literals, p.states, p.channels, p.latency};
}

// Everything about a pass that must repeat bit-for-bit.
struct DesignSummary {
  std::int64_t attempted = 0, verified = 0;
  std::int64_t literals = 0, products = 0, states = 0, channels = 0, latency = 0;
  // "program | recipe | class[ | error text]", sorted.
  std::vector<std::string> failures;
  bool operator==(const DesignSummary&) const = default;

  void add(const std::string& program, const std::string& recipe, const FlowPoint& p,
           Verdict v) {
    ++attempted;
    if (v != Verdict::kVerified) {
      std::string f = program + " | " + recipe + " | " + to_string(v);
      if (v == Verdict::kError) f += " | " + p.error.substr(0, 100);
      failures.push_back(std::move(f));
      return;
    }
    ++verified;
    literals += static_cast<std::int64_t>(p.literals);
    products += static_cast<std::int64_t>(p.products);
    states += static_cast<std::int64_t>(p.states);
    channels += static_cast<std::int64_t>(p.channels);
    latency += p.latency;
  }
  double mean(std::int64_t sum) const {
    return verified ? static_cast<double>(sum) / static_cast<double>(verified) : 0.0;
  }
};

struct RuntimeCounts {
  std::uint64_t cache_hits = 0, cache_joins = 0, cache_misses = 0;
  std::uint64_t memo_hits = 0, memo_misses = 0;
  bool operator==(const RuntimeCounts&) const = default;

  void add(const FlowExecutor& ex, LogicMemo& memo) {
    CacheStats cs = ex.cache().stats();
    cache_hits += cs.hits;
    cache_joins += cs.joins;
    cache_misses += cs.misses;
    LogicMemo::Stats ms = memo.stats();
    memo_hits += ms.hits;
    memo_misses += ms.misses;
  }
};

// ---------------------------------------------------------------------------
// Untraced executor pass

struct ExecPass {
  double wall_s = 0, cpu_s = 0, peak_rss_mb = 0;
  std::vector<double> latency_ms;
  std::vector<Outcome> outcomes;  // in submission order
  DesignSummary design;
  RuntimeCounts counts;
};

ExecPass run_exec_pass(const Workload& w, const std::vector<std::shared_ptr<const Cdfg>>& built,
                       const std::vector<std::map<std::string, std::int64_t>>& golden,
                       const std::vector<Point>& order) {
  auto request = [&](const Point& pt) {
    const Program& prog = w.programs[pt.program];
    FlowRequest r;
    r.benchmark = prog.name;
    auto g = built[pt.program];
    r.make = [g] { return *g; };
    r.script = pt.recipe;
    r.init = prog.init;
    r.sim.randomize_delays = false;  // as make_builtin_request
    return r;
  };
  std::vector<FlowRequest> reqs;
  reqs.reserve(order.size());
  for (const Point& pt : order) reqs.push_back(request(pt));

  ExecPass out;
  out.latency_ms.resize(order.size());
  reset_peak_rss();
  std::vector<FlowPoint> points(order.size());
  std::vector<std::unique_ptr<FlowExecutor>> executors;
  double cpu0 = process_cpu_s();
  Clock::time_point t0 = Clock::now();
  std::size_t current = SIZE_MAX;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (executors.empty() || (w.executor_per_program && order[i].program != current)) {
      executors.push_back(std::make_unique<FlowExecutor>(nullptr));
      current = order[i].program;
    }
    Clock::time_point s = Clock::now();
    points[i] = executors.back()->run(reqs[i]);
    out.latency_ms[i] = 1e3 * seconds_since(s);
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.peak_rss_mb = peak_rss_mb();

  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t pi = order[i].program;
    const Verdict v = classify(points[i], golden[pi]);
    out.design.add(w.programs[pi].name, order[i].recipe, points[i], v);
    out.outcomes.push_back(outcome_of(points[i], v));
  }
  std::sort(out.design.failures.begin(), out.design.failures.end());
  for (auto& ex : executors) out.counts.add(*ex, ex->logic_memo());
  return out;
}

// ---------------------------------------------------------------------------
// Traced layer replay

// Layers whose self times add up to the traced wall.
enum Layer {
  kFrontend, kGt1, kGt2, kGt3, kGt4, kGt5, kChannel, kExtract, kLtrans, kLogic, kSim,
  kLayerCount
};
// The parts of the logic layer.
enum LogicPart { kConcretize, kEncode, kSpec, kCover, kPartCount };

struct ReplayPass {
  double wall_ms = 0;  // the pass, minus checks and the parts replay
  double layer_ms[kLayerCount] = {};
  double part_ms[kPartCount] = {};
  std::vector<Outcome> outcomes;  // in replay order
  // Exact counts.
  struct Counts {
    std::int64_t state_bits = 0, netlist_violations = 0, arcs_removed = 0,
                 channels_merged = 0, extract_states = 0, states_removed = 0,
                 sim_events = 0, sim_deadlocks = 0, errors = 0;
    bool operator==(const Counts&) const = default;
  } counts;

  double layer_sum() const {
    double s = 0;
    for (double v : layer_ms) s += v;
    return s;
  }
};

// Adds the wall time of its scope to one accumulator, on unwinding too.
class ScopeTimer {
 public:
  explicit ScopeTimer(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~ScopeTimer() { acc_ += 1e3 * seconds_since(t0_); }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

Layer gt_layer(const std::string& step) {
  switch (step.size() > 2 ? step[2] : '0') {
    case '1': return kGt1;
    case '2': return kGt2;
    case '3': return kGt3;
    case '4': return kGt4;
    case '5': return kGt5;
  }
  throw std::logic_error("not a gt step: " + step);
}

struct Snapshot {
  Cdfg g{"empty"};
  GlobalPipelineResult res;
  bool have_plan = false;
};

// Replays one pass.  Work is reused the way the executor reuses it: one
// frontend build per program and executor, one global snapshot per
// distinct gt prefix, one LogicMemo per executor.
ReplayPass run_replay_pass(const Workload& w,
                           const std::vector<std::map<std::string, std::int64_t>>& golden,
                           const std::vector<Point>& order) {
  ReplayPass out;
  out.outcomes.resize(order.size());
  // Benchmark-side work outside the traced wall: netlist checks, the
  // point's outcome and the replay of the logic layer's parts.
  double check_ms = 0, attribution_ms = 0;
  Clock::time_point t0 = Clock::now();

  std::unique_ptr<LogicMemo> memo, part_memo;
  std::map<std::size_t, std::shared_ptr<const Cdfg>> frontends;
  std::map<std::string, std::shared_ptr<const Snapshot>> snapshots;
  std::size_t current = SIZE_MAX;

  for (std::size_t k = 0; k < order.size(); ++k) {
    const Point& pt = order[k];
    if (!memo || (w.executor_per_program && pt.program != current)) {
      memo = std::make_unique<LogicMemo>(4096);
      part_memo = std::make_unique<LogicMemo>(4096);
      frontends.clear();
      snapshots.clear();
      current = pt.program;
    }
    const Program& prog = w.programs[pt.program];
    try {
      std::shared_ptr<const Cdfg>& parsed = frontends[pt.program];
      if (!parsed) {
        ScopeTimer t(out.layer_ms[kFrontend]);
        parsed = std::make_shared<const Cdfg>(prog.build());
      }
      TransformScript script = TransformScript::parse(pt.recipe);

      std::shared_ptr<const Snapshot> snap;
      std::string key = prog.name + ":";
      for (std::size_t i = 0; i < script.step_count(); ++i) {
        const std::string step = script.step_string(i);
        if (step.rfind("lt", 0) == 0) continue;
        key += step + ";";
        std::shared_ptr<const Snapshot>& slot = snapshots[key];
        if (!slot) {
          const Layer layer = gt_layer(step);
          auto next = std::make_shared<Snapshot>();
          {
            ScopeTimer t(out.layer_ms[layer]);
            if (snap) *next = *snap; else next->g = *parsed;
          }
          if (layer == kGt5) {
            // The executor derives the unoptimized plan here for its
            // channel ledger.
            ScopeTimer t(out.layer_ms[kChannel]);
            (void)ChannelPlan::derive(next->g).count_controller_channels();
          }
          {
            ScopeTimer t(out.layer_ms[layer]);
            next->have_plan = script.run_step(next->g, i, DelayModel::typical(), next->res) ||
                              next->have_plan;
          }
          const TransformResult& st = next->res.stages.back();
          if (layer == kGt3) out.counts.arcs_removed += st.arcs_removed;
          if (layer == kGt5) out.counts.channels_merged += st.channels_merged;
          slot = std::move(next);
        }
        snap = slot;
      }
      if (!snap) {
        auto base = std::make_shared<Snapshot>();
        base->g = *parsed;
        snap = std::move(base);
      }

      ChannelPlan plan;
      if (snap->have_plan) {
        plan = snap->res.plan;
      } else {
        ScopeTimer t(out.layer_ms[kChannel]);
        plan = ChannelPlan::derive(snap->g);
      }
      std::vector<ExtractedController> extracted;
      {
        ScopeTimer t(out.layer_ms[kExtract]);
        extracted = extract_controllers(snap->g, plan);
      }
      std::vector<ControllerInstance> instances;
      Outcome oc;
      bool feasible = true;
      for (ExtractedController& c : extracted) {
        out.counts.extract_states += static_cast<std::int64_t>(c.machine.state_count());
        ControllerInstance inst;
        if (script.has_local_step()) {
          const std::size_t before = c.machine.state_count();
          ScopeTimer t(out.layer_ms[kLtrans]);
          inst.shared_signals = run_local_transforms(c, script.local_options()).shared_signals;
          out.counts.states_removed +=
              static_cast<std::int64_t>(before - c.machine.state_count());
        }
        // synthesize_logic's product-sharing post-pass is private, so the
        // call as a whole is the timed logic layer.  Its public parts are
        // replayed first, on a memo of their own and outside the traced
        // wall, to split that time into concretize / encode / spec / cover.
        {
          ScopeTimer untraced(attribution_ms);
          ConcreteMachine cm;
          Encoding enc;
          {
            ScopeTimer t(out.part_ms[kConcretize]);
            cm = concretize(c.machine, &c.bindings);
          }
          {
            ScopeTimer t(out.part_ms[kEncode]);
            enc = assign_codes(cm);
          }
          CoverOptions copts;
          copts.memo = part_memo.get();
          const std::size_t n_out = cm.output_names.size();
          for (std::size_t fi = 0; fi < n_out + enc.bits; ++fi) {
            const bool state_bit = fi >= n_out;
            const std::size_t index = state_bit ? fi - n_out : fi;
            FunctionSpec spec;
            {
              ScopeTimer t(out.part_ms[kSpec]);
              spec = build_function_spec(
                  cm, enc, state_bit, index,
                  state_bit ? "Y" + std::to_string(index) : cm.output_names[index]);
            }
            ScopeTimer t(out.part_ms[kCover]);
            (void)minimize_hazard_free(spec, copts);
          }
        }
        LogicSynthesisResult logic;
        {
          ScopeTimer t(out.layer_ms[kLogic]);
          SynthesisOptions sopts;
          sopts.cover.memo = memo.get();
          logic = synthesize_logic(c, sopts);
        }
        out.counts.state_bits += static_cast<std::int64_t>(logic.encoding.bits);
        {
          ScopeTimer t(check_ms);
          out.counts.netlist_violations +=
              static_cast<std::int64_t>(check_netlist(logic).violations.size());
          oc.products += logic.product_count(true);
          oc.literals += logic.literal_count(true);
          oc.states += c.machine.state_count();
          feasible = feasible && logic.feasible();
        }
        inst.controller = std::move(c);
        instances.push_back(std::move(inst));
      }
      EventSimOptions sopts;
      sopts.randomize_delays = false;
      EventSimResult r;
      {
        ScopeTimer t(out.layer_ms[kSim]);
        r = run_event_sim(snap->g, plan, instances, prog.init, sopts);
      }
      out.counts.sim_events += r.events;
      out.counts.sim_deadlocks += r.deadlocked ? 1 : 0;
      // As FlowExecutor::run sets the status, then the oracle.
      if (!feasible || !r.completed) {
        oc.verdict = r.deadlocked ? Verdict::kDeadlock : Verdict::kError;
      } else {
        oc.verdict = r.registers == golden[pt.program] ? Verdict::kVerified
                                                       : Verdict::kWrongResult;
      }
      if (oc.verdict != Verdict::kError) {
        oc.channels = plan.count_controller_channels();
        oc.latency = r.finish_time;
        out.outcomes[k] = oc;
      }
    } catch (const std::exception&) {
      ++out.counts.errors;  // the executor reports these points as errors
    }
  }
  out.wall_ms = 1e3 * seconds_since(t0) - check_ms - attribution_ms;
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

std::vector<std::uint64_t> parse_seed_list(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    std::string item = s.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    std::size_t dash = item.find('-');
    std::uint64_t lo = std::stoull(item.substr(0, dash));
    std::uint64_t hi = dash == std::string::npos ? lo : std::stoull(item.substr(dash + 1));
    if (hi < lo || hi - lo > 1000) throw std::invalid_argument("bad seed range " + item);
    for (std::uint64_t v = lo; v <= hi; ++v) out.push_back(v);
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty --programs list");
  return out;
}

// Highest percentile of the ladder with at least ten samples beyond it.
double tail_quantile(std::size_t samples) {
  double best = 0.5;
  for (double q : {0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999})
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  return best;
}

int run(int argc, char** argv) {
  // Failing points are classified and listed below; the flow's own
  // per-point log lines would only repeat them on stderr.
  set_log_level(LogLevel::kOff);
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string programs = "1-8";
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--seconds") seconds = std::stod(v);
    else if (k == "--trace") trace = v == "1";
    else if (k == "--programs") programs = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  const Workload w = make_workload(workload, parse_seed_list(programs));
  const std::size_t points_per_pass = w.programs.size() * gt_ablation_grid(true).size();

  // Set-up: what a user pays once before the first point — building the
  // programs and the executors.  A sub-millisecond one-shot timer
  // swings with the host's clock, so set-up is repeated before every pass
  // and the median of all repetitions is reported.
  std::vector<std::shared_ptr<const Cdfg>> built;
  std::vector<double> setup_samples;
  auto set_up = [&](bool keep) {
    Clock::time_point t0 = Clock::now();
    std::vector<std::shared_ptr<const Cdfg>> progs;
    for (const Program& p : w.programs) progs.push_back(std::make_shared<const Cdfg>(p.build()));
    std::vector<std::unique_ptr<FlowExecutor>> execs;
    for (std::size_t i = 0; i < (w.executor_per_program ? w.programs.size() : 1); ++i)
      execs.push_back(std::make_unique<FlowExecutor>(nullptr));
    setup_samples.push_back(seconds_since(t0));
    if (keep) built = std::move(progs);
  };
  set_up(true);

  // Golden registers: sequential interpretation of the untransformed CDFG.
  std::vector<std::map<std::string, std::int64_t>> golden;
  for (std::size_t i = 0; i < w.programs.size(); ++i)
    golden.push_back(run_sequential(*built[i], w.programs[i].init));

  bool correct = true;
  auto mismatch = [&](const char* what, int pass) {
    std::fprintf(stderr, "perfbench: %s differs in pass %d from pass 0\n", what, pass);
    correct = false;
  };

  std::vector<ExecPass> exec_passes;
  std::vector<ReplayPass> replays;
  Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (!trace)
      for (int rep = 0; rep < 50; ++rep) set_up(false);
    const std::vector<Point> order = pass_order(w, seed, pass);
    exec_passes.push_back(run_exec_pass(w, built, golden, order));
    if (trace) {
      replays.push_back(run_replay_pass(w, golden, order));
      if (replays[pass].outcomes != exec_passes[pass].outcomes) {
        std::fprintf(stderr, "perfbench: replay outcomes differ from the executor's in pass %d\n",
                     pass);
        correct = false;
      }
    }
    const int done = pass + 1;
    if (pass > 0) {
      if (!(exec_passes[pass].design == exec_passes[0].design)) mismatch("design summary", pass);
      if (!(exec_passes[pass].counts == exec_passes[0].counts))
        mismatch("stage-cache/memo counts", pass);
      if (trace && !(replays[pass].counts == replays[0].counts)) mismatch("replay counts", pass);
    }
    // Stop at the pass boundary nearest to `seconds`.  The traced run
    // needs no tail percentile, so one round may do.
    const double elapsed = seconds_since(start);
    if (done >= (trace ? 1 : w.min_passes) && elapsed + 0.5 * elapsed / done >= seconds) break;
  }

  const ExecPass& first = exec_passes.front();
  const DesignSummary& d = first.design;
  std::printf("workload %s: %zu points per pass, %zu passes, %lld verified per pass\n",
              w.name.c_str(), points_per_pass, exec_passes.size(),
              static_cast<long long>(d.verified));
  for (const std::string& f : d.failures) std::printf("failing: %s\n", f.c_str());

  std::int64_t attempted = 0, failed = 0;
  for (const ExecPass& p : exec_passes) {
    attempted += p.design.attempted;
    failed += p.design.attempted - p.design.verified;
  }
  auto per_pass = [&](auto f) {
    std::vector<double> v;
    for (const ExecPass& p : exec_passes) v.push_back(f(p));
    return median(v);
  };
  const double points = static_cast<double>(points_per_pass);
  std::vector<Metric> m;

  if (!trace) {
    std::vector<double> lat;
    for (const ExecPass& p : exec_passes) lat.insert(lat.end(), p.latency_ms.begin(), p.latency_ms.end());
    const double tq = tail_quantile(points_per_pass * static_cast<std::size_t>(w.min_passes));
    std::printf("latency_tail_ms is p%g over %zu samples\n", 100.0 * tq, lat.size());
    m = {
        {"setup_s", "s", median(setup_samples)},
        {"points_per_s", "1/s", per_pass([&](const ExecPass& p) { return points / p.wall_s; })},
        {"cpu_ms_per_point", "ms", per_pass([&](const ExecPass& p) { return 1e3 * p.cpu_s / points; })},
        {"latency_p50_ms", "ms", quantile(lat, 0.5)},
        {"latency_tail_ms", "ms", quantile(lat, tq)},
        {"peak_rss_mb", "MB", per_pass([](const ExecPass& p) { return p.peak_rss_mb; })},
        {"verified_share", "ratio", static_cast<double>(d.verified) / static_cast<double>(d.attempted)},
        {"design_literals", "count", d.mean(d.literals)},
        {"design_products", "count", d.mean(d.products)},
        {"design_states", "count", d.mean(d.states)},
        {"design_channels", "count", d.mean(d.channels)},
        {"design_latency_ticks", "ticks", d.mean(d.latency)},
    };
  } else {
    auto per_replay = [&](auto f) {
      std::vector<double> v;
      for (const ReplayPass& r : replays) v.push_back(f(r));
      return median(v);
    };
    auto layer = [&](Layer l) {
      return per_replay([&](const ReplayPass& r) { return r.layer_ms[l] / points; });
    };
    auto part = [&](LogicPart l) {
      return per_replay([&](const ReplayPass& r) { return r.part_ms[l] / points; });
    };
    const ReplayPass::Counts& c = replays.front().counts;
    const RuntimeCounts& rc = first.counts;
    const double cache_total = static_cast<double>(rc.cache_hits + rc.cache_joins + rc.cache_misses);
    const double memo_total = static_cast<double>(rc.memo_hits + rc.memo_misses);
    const double coverage =
        per_replay([](const ReplayPass& r) { return r.layer_sum() / r.wall_ms; });
    m = {
        {"frontend.ms", "ms/point", layer(kFrontend)},
        {"transforms.gt1.ms", "ms/point", layer(kGt1)},
        {"transforms.gt2.ms", "ms/point", layer(kGt2)},
        {"transforms.gt3.ms", "ms/point", layer(kGt3)},
        {"transforms.gt4.ms", "ms/point", layer(kGt4)},
        {"transforms.gt5.ms", "ms/point", layer(kGt5)},
        {"transforms.gt3.share", "ratio",
         per_replay([](const ReplayPass& r) { return r.layer_ms[kGt3] / r.layer_sum(); })},
        {"transforms.gt3.arcs_removed", "count", static_cast<double>(c.arcs_removed)},
        {"transforms.gt5.channels_merged", "count", static_cast<double>(c.channels_merged)},
        {"channel.derive.ms", "ms/point", layer(kChannel)},
        {"extract.ms", "ms/point", layer(kExtract)},
        {"extract.states", "count", static_cast<double>(c.extract_states)},
        {"ltrans.ms", "ms/point", layer(kLtrans)},
        {"ltrans.states_removed", "count", static_cast<double>(c.states_removed)},
        {"logic.concretize.ms", "ms/point", part(kConcretize)},
        {"logic.encode.ms", "ms/point", part(kEncode)},
        {"logic.encode.share", "ratio",
         per_replay([](const ReplayPass& r) { return r.part_ms[kEncode] / r.layer_sum(); })},
        {"logic.encode.state_bits", "count", static_cast<double>(c.state_bits)},
        {"logic.spec.ms", "ms/point", part(kSpec)},
        {"logic.cover.ms", "ms/point", part(kCover)},
        {"logic.synthesize.ms", "ms/point", layer(kLogic)},
        {"logic.memo.hits", "count", static_cast<double>(rc.memo_hits)},
        {"logic.memo.hit_rate", "ratio", memo_total ? rc.memo_hits / memo_total : 0.0},
        {"logic.netlist_violations", "count", static_cast<double>(c.netlist_violations)},
        {"sim.event.ms", "ms/point", layer(kSim)},
        {"sim.events", "count", static_cast<double>(c.sim_events)},
        {"sim.us_per_event", "us",
         per_replay([](const ReplayPass& r) {
           return 1e3 * r.layer_ms[kSim] / static_cast<double>(std::max<std::int64_t>(1, r.counts.sim_events));
         })},
        {"sim.deadlocks", "count", static_cast<double>(c.sim_deadlocks)},
        {"runtime.stage_cache.hits", "count", static_cast<double>(rc.cache_hits)},
        {"runtime.stage_cache.hit_rate", "ratio",
         cache_total ? (rc.cache_hits + rc.cache_joins) / cache_total : 0.0},
        {"runtime.overhead_ms", "ms/point",
         per_pass([&](const ExecPass& p) { return 1e3 * p.cpu_s / points; }) -
             per_replay([&](const ReplayPass& r) { return r.layer_sum() / points; })},
        {"trace.coverage", "ratio", coverage},
        {"trace.overhead", "ratio",
         per_replay([](const ReplayPass& r) { return r.wall_ms; }) /
             (1e3 * per_pass([](const ExecPass& p) { return p.wall_s; }))},
    };
    // Layer self times must account for the traced wall (ROADMAP item 2).
    if (coverage < 0.95) {
      std::fprintf(stderr, "perfbench: layers cover only %.3f of the traced wall\n", coverage);
      correct = false;
    }
  }
  std::fflush(stdout);
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
