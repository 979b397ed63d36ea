#include "logic/encoding.hpp"

#include <algorithm>
#include <stdexcept>

namespace adc {

namespace {

void count_distance1(const ConcreteMachine& cm, Encoding& enc) {
  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    ++enc.total;
    if (__builtin_popcount(enc.code[t.from] ^ enc.code[t.to]) == 1) ++enc.distance1;
  }
}

}  // namespace

Encoding assign_codes(const ConcreteMachine& cm) {
  const std::size_t n = cm.states.size();
  if (n == 0) throw std::invalid_argument("assign_codes: machine has no states");
  if (cm.initial >= n)
    throw std::invalid_argument("assign_codes: initial state out of range");
  for (const auto& t : cm.transitions)
    if (t.from >= n || t.to >= n)
      throw std::invalid_argument("assign_codes: transition endpoint out of range");

  Encoding enc;
  enc.bits = 1;
  while ((std::size_t{1} << enc.bits) < n) ++enc.bits;
  enc.code.assign(n, 0);

  // Depth-first order from the initial state; Gray codes along the walk.
  std::vector<std::vector<std::size_t>> succs(n);
  for (const auto& t : cm.transitions) succs[t.from].push_back(t.to);

  std::vector<std::size_t> order;
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> stack{cm.initial};
  while (!stack.empty()) {
    std::size_t s = stack.back();
    stack.pop_back();
    if (seen[s]) continue;
    seen[s] = true;
    order.push_back(s);
    // Push in reverse so the first successor is visited next (ring order).
    for (auto it = succs[s].rbegin(); it != succs[s].rend(); ++it) stack.push_back(*it);
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!seen[s]) order.push_back(s);  // unreachable safety

  // Hypercube embedding: each state takes an unused code, ideally at
  // Hamming distance 1 from every already-assigned neighbour.  A bounded
  // backtracking search tries to make every edge distance-1; when the
  // budget runs out (or the graph has an odd cycle — the hypercube is
  // bipartite, so e.g. a loop entry/exit triangle cannot embed) it falls
  // back to the best greedy completion.  Remaining multi-bit changes are
  // counted and handled as declared race assumptions by the spec builder.
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    adj[t.from].push_back(t.to);
    adj[t.to].push_back(t.from);
  }
  for (auto& a : adj) {  // one entry per neighbour: the greedy score counts each once
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  const std::size_t code_space = std::size_t{1} << enc.bits;

  // Exact pass: distance-1 for every edge, bounded backtracking.  Codes
  // are tried in increasing order and every step spends one unit of
  // budget.  A state with a coded neighbour can only take one of that
  // neighbour's `bits` one-bit flips, so its candidates are built from
  // those flips instead of a scan of the whole code space.
  {
    std::vector<std::uint32_t> code(n, 0);
    std::vector<bool> used(code_space, false);
    std::vector<bool> assigned(n, false);
    std::vector<std::vector<std::uint32_t>> candidates(order.size());
    long budget = kEncodingSearchBudget;
    auto place = [&](auto& self, std::size_t idx) -> bool {
      if (idx == order.size()) return true;
      if (--budget < 0) return false;
      const std::size_t s = order[idx];
      std::vector<std::uint32_t>& cand = candidates[idx];
      cand.clear();
      auto anchor = std::find_if(adj[s].begin(), adj[s].end(),
                                 [&](std::size_t nb) { return assigned[nb]; });
      if (anchor == adj[s].end()) {
        for (std::uint32_t c = 0; c < code_space; ++c)
          if (!used[c]) cand.push_back(c);
      } else {
        for (std::size_t b = 0; b < enc.bits; ++b) {
          const std::uint32_t c = code[*anchor] ^ (std::uint32_t{1} << b);
          if (used[c]) continue;
          bool ok = true;
          for (auto it = anchor + 1; it != adj[s].end() && ok; ++it)
            if (assigned[*it] && __builtin_popcount(c ^ code[*it]) != 1) ok = false;
          if (ok) cand.push_back(c);
        }
        std::sort(cand.begin(), cand.end());
      }
      for (std::uint32_t c : cand) {
        code[s] = c;
        used[c] = true;
        assigned[s] = true;
        if (self(self, idx + 1)) return true;
        used[c] = false;
        assigned[s] = false;
      }
      return false;
    };
    const bool embedded = place(place, 0);
    enc.search_nodes = kEncodingSearchBudget - budget;
    if (embedded) {
      enc.code = code;
      count_distance1(cm, enc);
      return enc;
    }
  }

  // Greedy fallback.
  std::vector<bool> used(code_space, false);
  std::vector<bool> assigned(n, false);
  for (std::size_t s : order) {
    std::uint32_t best = 0;
    long best_score = -1;
    for (std::uint32_t c = 0; c < code_space; ++c) {
      if (used[c]) continue;
      long score = 0;
      for (std::size_t nb : adj[s]) {
        if (!assigned[nb]) continue;
        int d = __builtin_popcount(c ^ enc.code[nb]);
        score += d == 1 ? 0 : 100L * d;
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best = c;
      }
    }
    enc.code[s] = best;
    used[best] = true;
    assigned[s] = true;
  }
  count_distance1(cm, enc);
  return enc;
}

}  // namespace adc
