// The content-addressed cover memo: replay equality, name-independence of
// the key, the disk tier round trip, torn-entry detection/eviction, the
// fault-injection sites on the fill path, and the join of concurrent
// callers.  The encoding memo: its key, its bounds, its counters and its
// use from several threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <thread>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/memo.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "runtime/disk_cache.hpp"
#include "runtime/fault.hpp"
#include "transforms/pipeline.hpp"

namespace adc {
namespace {

namespace fs = std::filesystem;

Cube cube(const std::string& pat) {
  Cube c(pat.size());
  for (std::size_t i = 0; i < pat.size(); ++i) {
    if (pat[i] == '0') c.set(i, Cube::V::kZero);
    if (pat[i] == '1') c.set(i, Cube::V::kOne);
  }
  return c;
}

// A small feasible spec: two required cubes, one OFF region.
FunctionSpec feasible_spec(std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  f.vars = 4;
  f.required = {cube("11--"), cube("1-1-")};
  f.off = {cube("0---")};
  return f;
}

// A spec whose required cube intersects OFF: minimization reports an
// issue prefixed with the function name.
FunctionSpec infeasible_spec(std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  f.vars = 3;
  f.required = {cube("11-")};
  f.off = {cube("1--")};
  return f;
}

// GCD's ALU controller after the default pipeline and local transforms:
// its exact encoding search runs out of budget, the case the encoding
// memo pays off on.
ExtractedController gcd_alu() {
  Cdfg g = gcd();
  auto res = run_global_transforms(g);
  auto controllers = extract_controllers(g, res.plan);
  std::size_t i = 0;
  while (i + 1 < controllers.size() && controllers[i].machine.name() != "ALU1") ++i;
  EXPECT_EQ(controllers[i].machine.name(), "ALU1");
  run_local_transforms(controllers[i]);
  return std::move(controllers[i]);
}

bool same_encoding(const Encoding& a, const Encoding& b) {
  return a.bits == b.bits && a.code == b.code && a.distance1 == b.distance1 &&
         a.total == b.total && a.search_nodes == b.search_nodes;
}

class LogicMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault().reset();
    // One directory per test: ctest runs every case as its own process,
    // so a shared path would let one case's TearDown delete another's
    // entries mid-run.
    dir_ = fs::path(::testing::TempDir()) /
           ("adc_logic_memo_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault().reset();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(LogicMemoTest, FingerprintIgnoresNameAndCubeOrder) {
  FunctionSpec a = feasible_spec("A");
  FunctionSpec b = feasible_spec("B");
  std::swap(b.required[0], b.required[1]);
  EXPECT_EQ(spec_fingerprint(a, false, 18), spec_fingerprint(b, false, 18));
  // Options are part of the key: an exact cover is not a greedy cover.
  EXPECT_NE(spec_fingerprint(a, false, 18), spec_fingerprint(a, true, 18));
  // Content changes change the key.
  FunctionSpec c = feasible_spec("A");
  c.off.push_back(cube("--00"));
  EXPECT_NE(spec_fingerprint(a, false, 18), spec_fingerprint(c, false, 18));
}

TEST_F(LogicMemoTest, ReplayMatchesFreshRunAndReprefixesIssues) {
  LogicMemo memo;
  CoverOptions opts;
  opts.memo = &memo;

  FunctionSpec a = infeasible_spec("A");
  CoverResult fresh = minimize_hazard_free(a, opts);
  ASSERT_FALSE(fresh.feasible);
  ASSERT_FALSE(fresh.issues.empty());
  EXPECT_EQ(fresh.issues[0].rfind("A: ", 0), 0u) << fresh.issues[0];
  EXPECT_EQ(memo.stats().fills, 1u);

  // Same content, different name: must hit, and the issue text must carry
  // the *new* name.
  FunctionSpec b = infeasible_spec("B");
  CoverResult replay = minimize_hazard_free(b, opts);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(replay.feasible, fresh.feasible);
  ASSERT_EQ(replay.issues.size(), fresh.issues.size());
  for (std::size_t i = 0; i < fresh.issues.size(); ++i) {
    EXPECT_EQ(replay.issues[i], "B: " + fresh.issues[i].substr(3));
  }
  ASSERT_EQ(replay.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(replay.products[i] == fresh.products[i]);
}

TEST_F(LogicMemoTest, SerializeRoundTripsAndRejectsDefects) {
  LogicMemo::Entry e;
  e.feasible = false;
  e.products = {cube("11--"), cube("1-1-")};
  e.issue_suffixes = {"required cube 0-0- has no dhf implicant"};

  std::string payload = LogicMemo::serialize(e);
  auto back = LogicMemo::deserialize(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->feasible, e.feasible);
  ASSERT_EQ(back->products.size(), 2u);
  EXPECT_TRUE(back->products[0] == e.products[0]);
  EXPECT_TRUE(back->products[1] == e.products[1]);
  EXPECT_EQ(back->issue_suffixes, e.issue_suffixes);

  EXPECT_FALSE(LogicMemo::deserialize("").has_value());
  EXPECT_FALSE(LogicMemo::deserialize("garbage").has_value());
  // Flip one payload byte: the body checksum must catch it.
  std::string torn = payload;
  torn[torn.size() / 2] ^= 0x20;
  EXPECT_FALSE(LogicMemo::deserialize(torn).has_value());
  // Trailing garbage is a defect even with a correct prefix.
  EXPECT_FALSE(LogicMemo::deserialize(payload + "x").has_value());
}

TEST_F(LogicMemoTest, DiskTierRoundTripAcrossMemoInstances) {
  DiskCache disk(dir_.string(), 0);
  FunctionSpec a = feasible_spec("A");
  CoverResult fresh;
  {
    LogicMemo memo;
    memo.attach_disk(&disk);
    CoverOptions opts;
    opts.memo = &memo;
    fresh = minimize_hazard_free(a, opts);
    ASSERT_TRUE(fresh.feasible);
  }
  // A fresh memo (new process, same cache dir) replays from disk.
  LogicMemo memo;
  memo.attach_disk(&disk);
  CoverOptions opts;
  opts.memo = &memo;
  CoverResult warm = minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().disk_hits, 1u);
  EXPECT_EQ(memo.stats().misses, 0u);
  ASSERT_EQ(warm.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(warm.products[i] == fresh.products[i]);
  // Second lookup is a memory hit — the disk entry was promoted.
  minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST_F(LogicMemoTest, TornDiskEntryIsDetectedEvictedAndRecomputed) {
  DiskCache disk(dir_.string(), 0);
  FunctionSpec a = feasible_spec("A");
  Fingerprint key = spec_fingerprint(a, false, 18);
  CoverResult fresh;
  {
    // Corrupt every fill's payload in flight: the ADCK envelope is written
    // after the corruption and still validates — only the memo's own body
    // checksum can catch this.
    fault().configure("logic.memo.put.payload=corrupt");
    LogicMemo memo;
    memo.attach_disk(&disk);
    CoverOptions opts;
    opts.memo = &memo;
    fresh = minimize_hazard_free(a, opts);
    fault().reset();
    ASSERT_TRUE(disk.contains(LogicMemo::disk_key(key)));
  }
  LogicMemo memo;
  memo.attach_disk(&disk);
  CoverOptions opts;
  opts.memo = &memo;
  CoverResult warm = minimize_hazard_free(a, opts);
  // The torn entry was detected, evicted from disk, and recomputed with
  // the same result as the fresh run.
  EXPECT_EQ(memo.stats().disk_corrupt, 1u);
  EXPECT_EQ(memo.stats().disk_hits, 0u);
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().fills, 1u);
  EXPECT_TRUE(disk.contains(LogicMemo::disk_key(key)));
  ASSERT_EQ(warm.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(warm.products[i] == fresh.products[i]);
  // The recompute refilled a good entry: a third memo replays from disk.
  LogicMemo memo2;
  memo2.attach_disk(&disk);
  CoverOptions opts2;
  opts2.memo = &memo2;
  minimize_hazard_free(a, opts2);
  EXPECT_EQ(memo2.stats().disk_hits, 1u);
  EXPECT_EQ(memo2.stats().disk_corrupt, 0u);
}

TEST_F(LogicMemoTest, FillFaultIsSwallowedAndCounted) {
  // The fill site guards the disk write of a freshly computed cover: a
  // failure there costs the persisted copy, never the answer.
  DiskCache disk(dir_.string(), 0);
  FunctionSpec a = feasible_spec("A");
  const Fingerprint key = spec_fingerprint(a, false, 18);
  fault().configure("logic.memo.fill=fail:1");
  CoverResult r1;
  {
    LogicMemo memo;
    memo.attach_disk(&disk);
    CoverOptions opts;
    opts.memo = &memo;
    r1 = minimize_hazard_free(a, opts);  // disk write fails, swallowed
    EXPECT_TRUE(r1.feasible);
    EXPECT_FALSE(r1.products.empty());
    EXPECT_EQ(memo.stats().fill_errors, 1u);
    EXPECT_FALSE(disk.contains(LogicMemo::disk_key(key)));
  }
  // Nothing was persisted: a second memo on the same disk misses, and its
  // write (the fault plan is exhausted) persists the cover.
  LogicMemo memo;
  memo.attach_disk(&disk);
  CoverOptions opts;
  opts.memo = &memo;
  CoverResult r2 = minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().disk_hits, 0u);
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().fill_errors, 0u);
  EXPECT_TRUE(disk.contains(LogicMemo::disk_key(key)));
  ASSERT_EQ(r2.products.size(), r1.products.size());
  for (std::size_t i = 0; i < r1.products.size(); ++i)
    EXPECT_TRUE(r2.products[i] == r1.products[i]);
}

TEST_F(LogicMemoTest, LruEvictsAtCapacityAndZeroCapacityDisables) {
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return LogicMemo::Entry{};
  };
  LogicMemo memo(2);
  Fingerprint k1 = FingerprintBuilder().add("k1").digest();
  Fingerprint k2 = FingerprintBuilder().add("k2").digest();
  Fingerprint k3 = FingerprintBuilder().add("k3").digest();
  memo.cover(k1, compute);
  memo.cover(k2, compute);
  memo.cover(k1, compute);  // hit: refreshes k1's LRU stamp
  memo.cover(k3, compute);  // evicts k2
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(memo.stats().evictions, 1u);
  memo.cover(k1, compute);
  memo.cover(k3, compute);
  EXPECT_EQ(computes, 3);
  memo.cover(k2, compute);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(memo.stats().entries, 2u);

  LogicMemo off(0);
  off.cover(k1, compute);
  off.cover(k1, compute);
  EXPECT_EQ(computes, 6);
  EXPECT_EQ(off.stats().entries, 0u);
  EXPECT_EQ(off.stats().misses, 2u);
  EXPECT_EQ(off.stats().hits, 0u);
}

TEST_F(LogicMemoTest, ConcurrentCoverCallsComputeOnce) {
  LogicMemo memo;
  const Fingerprint key = FingerprintBuilder().add("shared spec").digest();
  constexpr int kThreads = 4;
  std::atomic<int> computes{0};
  std::latch release(1);
  auto compute = [&] {
    ++computes;
    release.wait();
    LogicMemo::Entry e;
    e.products = {cube("11--")};
    return e;
  };
  std::vector<std::shared_ptr<const LogicMemo::Entry>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[static_cast<std::size_t>(t)] = memo.cover(key, compute); });
  // Hold the compute until every other caller has joined it (bounded, so a
  // memo without the join fails the count instead of hanging).
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (memo.stats().hits < kThreads - 1 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  release.count_down();
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (const auto& e : got) EXPECT_EQ(e.get(), got[0].get());
  const LogicMemo::Stats s = memo.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.fills, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(EncodingMemo, IdenticalStructureHitsWithTheSameCodes) {
  ExtractedController c = gcd_alu();
  const Encoding fresh = synthesize_logic(c).encoding;
  EXPECT_GT(fresh.search_nodes, kEncodingSearchBudget);

  LogicMemo memo;
  SynthesisOptions opts;
  opts.cover.memo = &memo;
  const Encoding first = synthesize_logic(c, opts).encoding;
  EXPECT_EQ(memo.stats().encode_misses, 1u);
  EXPECT_EQ(memo.stats().encode_hits, 0u);
  const Encoding second = synthesize_logic(c, opts).encoding;
  EXPECT_EQ(memo.stats().encode_misses, 1u);
  EXPECT_EQ(memo.stats().encode_hits, 1u);
  EXPECT_TRUE(same_encoding(first, fresh));
  EXPECT_TRUE(same_encoding(second, fresh));
}

TEST(EncodingMemo, KeyCoversExactlyWhatTheEncoderReads) {
  const ConcreteMachine cm = concretize(gcd_alu().machine);
  ASSERT_GE(cm.transitions.size(), 2u);
  const Fingerprint key = encoding_fingerprint(cm);

  ConcreteMachine other_initial = cm;
  other_initial.initial = 1;
  EXPECT_NE(encoding_fingerprint(other_initial), key);

  ConcreteMachine more_states = cm;
  more_states.states.push_back(cm.states.back());
  EXPECT_NE(encoding_fingerprint(more_states), key);

  ConcreteMachine reordered = cm;
  std::swap(reordered.transitions[0], reordered.transitions[1]);
  ASSERT_FALSE(reordered.transitions[0].from == cm.transitions[0].from &&
               reordered.transitions[0].to == cm.transitions[0].to);
  EXPECT_NE(encoding_fingerprint(reordered), key);

  // Burst contents, names and outputs do not reach the encoder.
  ConcreteMachine relabelled = cm;
  relabelled.input_names.push_back("extra");
  relabelled.transitions[0].output_changes.clear();
  relabelled.states[0].outputs.flip();
  EXPECT_EQ(encoding_fingerprint(relabelled), key);
}

TEST(EncodingMemo, ZeroCapacityDisablesAndClearDrops) {
  Encoding enc;
  enc.bits = 2;
  enc.code = {0, 1, 3};
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return enc;
  };
  const Fingerprint key = FingerprintBuilder().add("machine").digest();

  LogicMemo off(0);
  off.encoding(key, compute);
  off.encoding(key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(off.stats().encode_misses, 2u);

  LogicMemo memo(2);
  EXPECT_TRUE(same_encoding(*memo.encoding(key, compute), enc));
  EXPECT_TRUE(same_encoding(*memo.encoding(key, compute), enc));
  EXPECT_EQ(computes, 3);
  memo.clear();
  memo.encoding(key, compute);
  EXPECT_EQ(computes, 4);

  // The encoding cache is bounded by the same capacity, LRU first.
  const Fingerprint k2 = FingerprintBuilder().add("k2").digest();
  const Fingerprint k3 = FingerprintBuilder().add("k3").digest();
  memo.encoding(k2, compute);
  memo.encoding(key, compute);  // hit: refreshes key's LRU stamp
  memo.encoding(k3, compute);   // evicts k2
  EXPECT_EQ(computes, 6);
  memo.encoding(key, compute);
  memo.encoding(k3, compute);
  EXPECT_EQ(computes, 6);
  memo.encoding(k2, compute);
  EXPECT_EQ(computes, 7);
}

TEST(EncodingMemo, CoverStatisticsIgnoreEncodingLookups) {
  ExtractedController c = gcd_alu();
  LogicMemo memo;
  SynthesisOptions opts;
  opts.cover.memo = &memo;
  const std::size_t functions = synthesize_logic(c, opts).functions.size();
  const LogicMemo::Stats cold = memo.stats();
  EXPECT_EQ(cold.hits + cold.misses, functions);
  EXPECT_EQ(cold.fills, cold.misses);

  (void)synthesize_logic(c, opts);
  const LogicMemo::Stats warm = memo.stats();
  EXPECT_EQ(warm.hits, cold.hits + functions);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.fills, cold.fills);
  EXPECT_EQ(warm.entries, cold.entries);
  EXPECT_EQ(warm.encode_hits, 1u);

  (void)memo.encoding(FingerprintBuilder().add("absent").digest(),
                      [] { return Encoding{}; });
  EXPECT_EQ(memo.stats().misses, warm.misses);
  EXPECT_EQ(memo.stats().hits, warm.hits);
}

TEST(EncodingMemo, ConcurrentSynthesisGetsIdenticalEncodings) {
  ExtractedController c = gcd_alu();
  const Encoding fresh = assign_codes(concretize(c.machine, &c.bindings));
  LogicMemo memo;
  constexpr int kThreads = 4;
  std::vector<Encoding> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      SynthesisOptions opts;
      opts.cover.memo = &memo;
      got[static_cast<std::size_t>(t)] = synthesize_logic(c, opts).encoding;
    });
  for (auto& th : threads) th.join();
  for (const auto& e : got) EXPECT_TRUE(same_encoding(e, fresh));
  const LogicMemo::Stats s = memo.stats();
  EXPECT_EQ(s.encode_hits + s.encode_misses, static_cast<std::uint64_t>(kThreads));
  // Concurrent callers join the one in-flight search.
  EXPECT_EQ(s.encode_misses, 1u);
}

}  // namespace
}  // namespace adc
