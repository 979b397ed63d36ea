#pragma once
// State assignment for the concretized machine.
//
// Codes have the minimal width ceil(log2(states)) and are placed by a
// hypercube embedding: states are visited in depth-first order from the
// initial state, and each takes an unused code at Hamming distance 1 from
// every already-coded neighbour, so that every state change flips a single
// feedback bit (the race-free ideal).  A bounded backtracking search looks
// for such an embedding; when its budget runs out, or none exists (the
// hypercube is bipartite, so odd cycles cannot embed), a greedy completion
// minimizing multi-bit changes takes over and the fraction achieved is
// reported.  Unused codes are global don't-cares.  This substitutes for the
// exact critical-race-free assignment engines inside Minimalist/3D, which
// are out of scope; see DESIGN.md.
//
// The result depends only on the state count, the initial state and the
// ordered (from, to) pairs of the transitions — which is what the encoding
// memo in logic/memo.hpp keys on.

#include <cstdint>
#include <vector>

#include "logic/flow_table.hpp"

namespace adc {

// Place() steps the exact search may spend before the greedy fallback.
constexpr long kEncodingSearchBudget = 200000;

struct Encoding {
  std::size_t bits = 0;
  std::vector<std::uint32_t> code;  // per concrete state
  int distance1 = 0;                // transitions whose codes differ in one bit
  int total = 0;                    // state-changing transitions
  // Budget the exact search spent: one per step that placed (or failed to
  // place) a state.  Deterministic for a given machine; a value above
  // kEncodingSearchBudget means the search ran out and the greedy fallback
  // chose the codes.
  long search_nodes = 0;
};

// Throws std::invalid_argument for a machine with no states, or with an
// initial state or a transition endpoint outside the state range.
Encoding assign_codes(const ConcreteMachine& cm);

}  // namespace adc
