#pragma once
// Content-addressed memo for the two expensive pure steps of two-level
// synthesis — hazard-free covers and state encodings — the logic-level
// analogue of the stage cache's prefix reuse.
//
// A cover is a pure function of the FunctionSpec *content* (variable
// count, required / OFF / dynamic cube sets) and the covering options.
// DSE grid points and serve traffic frequently reach identical specs —
// e.g. every recipe that leaves a controller's machine untouched after
// local transforms — so the minimizer can replay the cover instead of
// regrowing implicants.  The key is a canonical fingerprint: cube lists
// are sorted before hashing so any spec with the same *sets* hits, and the
// function name is excluded (issue strings are stored as name-free
// suffixes and re-prefixed on replay).
//
// Both memo kinds are StageCache instances (runtime/cache.hpp), one for
// covers and one for encodings, each with its own capacity and counters.
// A miss computes inline on the caller's thread; concurrent callers with
// the same key join that in-flight compute instead of repeating it, so a
// pooled grid computes each spec once, exactly like a serial one.  The
// join cannot deadlock: the producer runs on a live thread, and neither
// minimize_hazard_free nor assign_codes waits on pool work, so no thread
// can block on a compute that sits below it on its own stack or in a pool
// queue.
//
// Covers also have an optional crash-safe disk tier (runtime/disk_cache)
// keyed `logic-<fingerprint>`, probed inside the cover compute — so
// concurrent probes of one key are deduplicated too.  Disk payloads carry
// their own checksum *inside* the ADCK envelope; a torn or bit-flipped
// entry is detected on parse, evicted from disk, counted, and recomputed
// — never replayed wrong.  Fault-injection sites: `logic.memo.fill`
// (fail/stall the disk write of a freshly computed cover; a failure is
// swallowed, counted in fill_errors and persists nothing — the memo is an
// accelerator), `logic.memo.put.payload` (corrupt the serialized cover
// before it reaches the disk tier), and the stage cache's
// `cache.compute`, which fires on cover and encoding misses.
//
// Encodings (assign_codes results) are keyed by encoding_fingerprint():
// the state count, the initial state and the ordered (from, to)
// transition pairs — exactly what assign_codes reads.  Grid points whose
// controllers concretize to the same structure replay the codes instead
// of re-running the search.  They have no disk tier and their own
// hit/miss counters, so the cover statistics mean the same as without
// them.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "logic/encoding.hpp"
#include "logic/hazard_free.hpp"
#include "runtime/cache.hpp"
#include "runtime/fingerprint.hpp"

namespace adc {

class DiskCache;

class LogicMemo {
 public:
  // A memoized cover, name-free: `issue_suffixes` hold the text after the
  // "<name>: " prefix, which the minimizer re-applies for its own spec.
  struct Entry {
    bool feasible = true;
    std::vector<Cube> products;
    std::vector<std::string> issue_suffixes;
  };

  struct Stats {
    std::uint64_t hits = 0;          // served without computing: memory hits + joins
    std::uint64_t disk_hits = 0;     // served from the disk tier
    std::uint64_t misses = 0;        // caller computed
    std::uint64_t fills = 0;         // computed covers stored
    std::uint64_t fill_errors = 0;   // injected/IO failures of the disk write, swallowed
    std::uint64_t disk_corrupt = 0;  // torn disk payloads detected+evicted
    std::uint64_t evictions = 0;     // in-memory LRU removals (covers)
    std::uint64_t entries = 0;       // resident in-memory covers
    std::uint64_t encode_hits = 0;   // encodings served without computing
    std::uint64_t encode_misses = 0; // encodings the caller computed
  };

  // capacity == 0 disables the in-memory tier (and with no disk attached,
  // the memo as a whole: every call computes).  It bounds the cover and
  // the encoding caches separately.
  explicit LogicMemo(std::size_t capacity = 4096)
      : covers_(capacity), encodings_(capacity) {}

  // Borrowed; must outlive the memo.  Null detaches.
  void attach_disk(DiskCache* disk) { disk_ = disk; }

  // The cover for `key`: from memory, by joining a concurrent caller's
  // compute, from the disk tier, or by running `compute` here (the result
  // is then stored in both tiers).  Errors from `compute` propagate.
  std::shared_ptr<const Entry> cover(const Fingerprint& key,
                                     const std::function<Entry()>& compute);

  // The encoding for `key`, memory-only, with the same join semantics.
  std::shared_ptr<const Encoding> encoding(const Fingerprint& key,
                                           const std::function<Encoding()>& compute);

  Stats stats() const;
  // The seven `logic.memo.*` gauges (cover counters), in export order.
  std::vector<std::pair<std::string, std::int64_t>> gauges() const;
  void clear();  // memory tier (covers and encodings); the disk tier persists

  // Payload codec for the disk tier (exposed for tests): version-tagged,
  // self-checksummed text.  deserialize returns nullopt on any defect.
  static std::string serialize(const Entry& e);
  static std::optional<Entry> deserialize(const std::string& payload);

  static std::string disk_key(const Fingerprint& key) {
    return "logic-" + key.hex();
  }

 private:
  // Writes a freshly computed cover to the disk tier; never throws.
  void persist(const Fingerprint& key, const Entry& e);

  StageCache covers_;
  StageCache encodings_;
  DiskCache* disk_ = nullptr;
  std::atomic<std::uint64_t> disk_hits_{0}, misses_{0}, fills_{0}, fill_errors_{0},
      disk_corrupt_{0};
};

// Canonical content fingerprint of a spec + covering options: cube lists
// are hashed in sorted order (cover results are order-independent — the
// candidate pool and the reduced requirement list are set-derived), the
// name is excluded.
Fingerprint spec_fingerprint(const FunctionSpec& f, bool exact, int exact_limit);

// Fingerprint of everything assign_codes reads: the state count, the
// initial state and the ordered (from, to) pairs of the transitions.
Fingerprint encoding_fingerprint(const ConcreteMachine& cm);

}  // namespace adc
