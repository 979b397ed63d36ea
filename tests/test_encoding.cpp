// State assignment: the hypercube embedding search and its fallback, its
// input validation, and the library-wide golden codes.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/encoding.hpp"
#include "logic/memo.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "transforms/pipeline.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

// A ring machine of the given length over one toggling wire pair (even
// lengths close their phases).
ConcreteMachine ring_machine(int n) {
  Xbm m("ring");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  std::vector<StateId> states;
  for (int i = 0; i < n; ++i) states.push_back(m.add_state());
  m.set_initial(states[0]);
  for (int i = 0; i < n; ++i)
    m.add_transition(states[static_cast<std::size_t>(i)],
                     states[static_cast<std::size_t>((i + 1) % n)], {toggle(a)},
                     {toggle(y)});
  return concretize(m);
}

class RingEncoding : public ::testing::TestWithParam<int> {};

TEST_P(RingEncoding, EvenRingsEmbedDistanceOne) {
  // Even-length cycles embed in the hypercube: every transition must be a
  // single-bit change.
  auto cm = ring_machine(GetParam());
  auto enc = assign_codes(cm);
  EXPECT_EQ(enc.distance1, enc.total) << "cycle of length " << cm.states.size();
}

INSTANTIATE_TEST_SUITE_P(EvenRings, RingEncoding, ::testing::Values(2, 4, 6, 8, 12, 16));

TEST(Encoding, CodesAlwaysUniqueAndInRange) {
  for (int n : {2, 3, 5, 9, 17}) {
    auto cm = ring_machine(n % 2 ? n + 1 : n);  // keep phases closable
    auto enc = assign_codes(cm);
    std::set<std::uint32_t> codes(enc.code.begin(), enc.code.end());
    EXPECT_EQ(codes.size(), cm.states.size());
    for (auto c : codes) EXPECT_LT(c, 1u << enc.bits);
  }
}

TEST(Encoding, DiffeqControllersMostlyDistanceOne) {
  Cdfg g = diffeq();
  auto res = run_global_transforms(g);
  for (auto& c : extract_controllers(g, res.plan)) {
    run_local_transforms(c);
    auto cm = concretize(c.machine, &c.bindings);
    auto enc = assign_codes(cm);
    EXPECT_GE(enc.distance1 * 10, enc.total * 8)
        << c.machine.name() << ": " << enc.distance1 << "/" << enc.total;
  }
}

TEST(Encoding, BitCountIsMinimal) {
  auto cm = ring_machine(8);
  auto enc = assign_codes(cm);
  EXPECT_EQ(enc.bits, 3u);
  auto cm2 = ring_machine(16);
  EXPECT_EQ(assign_codes(cm2).bits, 4u);
}

TEST(Encoding, RejectsMachineWithoutStates) {
  ConcreteMachine cm;
  EXPECT_THROW(assign_codes(cm), std::invalid_argument);
}

TEST(Encoding, RejectsInitialStateOutOfRange) {
  auto cm = ring_machine(4);
  cm.initial = cm.states.size();
  EXPECT_THROW(assign_codes(cm), std::invalid_argument);
}

TEST(Encoding, RejectsTransitionEndpointOutOfRange) {
  auto bad_from = ring_machine(4);
  bad_from.transitions.back().from = bad_from.states.size();
  EXPECT_THROW(assign_codes(bad_from), std::invalid_argument);
  auto bad_to = ring_machine(4);
  bad_to.transitions.front().to = bad_to.states.size() + 3;
  EXPECT_THROW(assign_codes(bad_to), std::invalid_argument);
}

std::string render(const std::string& point, const std::string& controller,
                   const Encoding& e) {
  std::string line = point + "|" + controller + "|" + std::to_string(e.bits) + "|" +
                     std::to_string(e.distance1) + "|" + std::to_string(e.total) + "|" +
                     std::to_string(e.search_nodes) + "|";
  for (std::size_t i = 0; i < e.code.size(); ++i)
    line += (i ? "," : "") + std::to_string(e.code[i]);
  return line;
}

// tests/data/encoding_golden.txt holds the codes of every controller of
// every builtin benchmark under the 32-recipe GT grid, captured from the
// encoder before its candidate-set rewrite.  Fresh assign_codes must give
// the same codes and spend the same search budget (so the same machines
// still fall back to greedy codes), and synthesize_logic through one
// shared memo must give the same encodings as the memo-less search.
TEST(EncodingGolden, LibraryGridMatchesCapturedCodes) {
  std::ifstream in(std::string(ADC_TEST_DATA_DIR) + "/encoding_golden.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/data/encoding_golden.txt";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') golden.push_back(line);

  LogicMemo memo;
  SynthesisOptions memoized;
  memoized.cover.memo = &memo;
  std::size_t at = 0;
  for (const auto& b : builtin_benchmarks()) {
    for (const auto& recipe : gt_ablation_grid(true)) {
      Cdfg g = b.make();
      TransformScript script = TransformScript::parse(recipe);
      GlobalPipelineResult res = script.run(g);
      for (auto& c : extract_controllers(g, res.plan)) {
        if (script.has_local_step()) run_local_transforms(c, script.local_options());
        ASSERT_LT(at, golden.size()) << "more controllers than golden lines";
        const std::string point = b.name + "|" + recipe;
        EXPECT_EQ(render(point, c.machine.name(),
                         assign_codes(concretize(c.machine, &c.bindings))),
                  golden[at]);
        EXPECT_EQ(render(point, c.machine.name(), synthesize_logic(c, memoized).encoding),
                  golden[at])
            << "through the memo";
        ++at;
      }
    }
  }
  EXPECT_EQ(at, golden.size());
  EXPECT_GT(memo.stats().encode_hits, 0u);
}

}  // namespace
}  // namespace adc
