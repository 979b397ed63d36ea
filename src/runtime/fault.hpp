#pragma once
// Deterministic fault injection for the synthesis runtime.
//
// Production code marks *injection sites* — named points where a failure
// is plausible and must be handled: stage entry in the flow executor,
// stage-cache compute (flow stages, covers and state encodings), the
// cover memo's disk writes, disk-cache I/O, the artifact flush path.  A fault
// plan (the ADC_FAULT environment variable or a CLI --fault flag) arms
// actions at those sites; with no plan every check is a few nanoseconds
// and nothing fires, so the hooks stay compiled into release builds.
//
// Plan grammar (';'-separated entries; ';' inside [...] belongs to the
// filter, not the separator):
//
//   entry   := site[ '[' filter ']' ] '=' action [ '(' arg ')' ]
//              [ ':' count ] [ '@' after ] [ '%' pct ]
//            | 'seed' '=' N
//   action  := fail | stall | corrupt | truncate | shortwrite | drop
//
//   site    exact injection-site name (docs/ROBUSTNESS.md catalogs them)
//   filter  substring that must occur in the site's detail string (for
//           flow.* sites the detail is the normalized script, so
//           "flow.controllers[gt1; gt3]=fail" hits exactly the grid
//           points whose recipe contains that fragment)
//   arg     action parameter: stall duration in ms (default 30000)
//   count   fire at most N times (default unlimited)
//   after   skip the first N matching hits (default 0)
//   pct     fire with probability pct% using the seeded PRNG (default
//           100 — deterministic); 'seed=N' reseeds the PRNG
//
// Examples:
//   ADC_FAULT='flow.sim=fail:1'                 first sim stage fails
//   ADC_FAULT='flow.controllers[gt5]=stall(50)' stall gt5 recipes 50 ms
//   ADC_FAULT='disk.put.payload=corrupt'        flip bits in every write
//   ADC_FAULT='cache.compute=fail%25;seed=7'    25% of computes fail
//
// Determinism: with no '%' the plan is a pure function of (site, detail,
// hit index) — independent of thread scheduling.  With '%' the decision
// stream is drawn from one seeded PRNG per entry, so a fixed seed gives a
// reproducible *sequence* but the mapping onto sites depends on arrival
// order; prefer filters + counts when exactness matters.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/cancel.hpp"

namespace adc {

enum class FaultAction {
  kNone,
  kFail,        // throw FaultInjectedError at the site
  kStall,       // sleep arg_ms (cooperatively: observes a CancelToken)
  kCorrupt,     // flip bits in a payload the site is about to write
  kTruncate,    // drop the tail of a payload
  kShortWrite,  // keep a prefix, as if the process died mid-write
  kDrop,        // skip the operation silently (e.g. the commit rename)
};

const char* to_string(FaultAction a);

// Thrown by sites armed with `fail`.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

class FaultInjector {
 public:
  // Parses a plan; throws std::invalid_argument on grammar errors.  An
  // empty spec clears the plan.
  void configure(const std::string& spec);
  // Loads ADC_FAULT when set (called once at CLI startup).
  void configure_from_env();
  void reset();
  bool armed() const;

  // Decides whether an action fires at `site` for this hit.  `detail` is
  // site-specific context matched against the entry filter.  Returns the
  // action (kNone = nothing fires) and, via arg_ms, the stall duration.
  FaultAction check(const std::string& site, const std::string& detail = {},
                    std::uint64_t* arg_ms = nullptr);

  // Convenience for plain code sites: throws on `fail`, sleeps on
  // `stall` (in small chunks, watching `cancel` so a watchdog can cut a
  // stall short), ignores payload actions.
  void maybe_fail_or_stall(const std::string& site,
                           const std::string& detail = {},
                           const CancelToken* cancel = nullptr);

  // Applies a payload action (corrupt/truncate/shortwrite) in place.
  // Returns the action that fired (kNone / kFail are possible: a write
  // site can also be armed with `fail`, in which case this throws).
  FaultAction mutate_payload(const std::string& site, std::string& payload,
                             const std::string& detail = {},
                             const CancelToken* cancel = nullptr);

  // Total number of actions fired since configure()/reset().
  std::uint64_t injected() const;
  // Number fired at one site (prefix match: "disk." counts disk.put,
  // disk.put.payload, ...).
  std::uint64_t injected_at(const std::string& site_prefix) const;

 private:
  struct Entry {
    std::string site;
    std::string filter;  // empty = match any detail
    FaultAction action = FaultAction::kNone;
    std::uint64_t arg_ms = 30000;
    std::uint64_t count = UINT64_MAX;  // remaining firings
    std::uint64_t after = 0;           // hits to skip first
    unsigned pct = 100;
    std::uint64_t hits = 0;  // matching hits seen so far
  };
  struct Fired {
    std::string site;
    std::uint64_t n = 0;
  };

  static Entry parse_entry(const std::string& text);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<Fired> fired_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  // reseeded by 'seed=N'
  std::uint64_t total_fired_ = 0;
};

// Process-wide injector used by all in-tree sites.
FaultInjector& fault();

}  // namespace adc
