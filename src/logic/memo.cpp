#include "logic/memo.hpp"

#include <algorithm>
#include <cstdio>

#include "runtime/disk_cache.hpp"
#include "runtime/fault.hpp"

namespace adc {

namespace {

constexpr char kMagic[] = "ADCM v1 ";

void add_cube(FingerprintBuilder& b, const Cube& c) {
  b.add(static_cast<std::uint64_t>(c.var_count()));
  const std::uint64_t* w = c.words();
  for (std::size_t i = 0; i < 2 * c.word_count(); ++i) b.add(w[i]);
}

bool dynamic_less(const HfDynamic& x, const HfDynamic& y) {
  if (!(x.t == y.t)) return x.t < y.t;
  if (!(x.a == y.a)) return x.a < y.a;
  if (!(x.b == y.b)) return x.b < y.b;
  return static_cast<int>(x.type) < static_cast<int>(y.type);
}

std::optional<Cube> cube_from_pattern(const std::string& pat) {
  Cube c(pat.size());
  for (std::size_t i = 0; i < pat.size(); ++i) {
    switch (pat[i]) {
      case '0': c.set(i, Cube::V::kZero); break;
      case '1': c.set(i, Cube::V::kOne); break;
      case '-': break;
      default: return std::nullopt;  // covers never hold empty cubes
    }
  }
  return c;
}

}  // namespace

Fingerprint spec_fingerprint(const FunctionSpec& f, bool exact, int exact_limit) {
  FingerprintBuilder b;
  b.add("logic-memo-v1");
  b.add(static_cast<std::uint64_t>(f.vars));
  b.add(exact);
  b.add(static_cast<std::int64_t>(exact_limit));

  std::vector<Cube> required = f.required;
  std::sort(required.begin(), required.end());
  b.add(static_cast<std::uint64_t>(required.size()));
  for (const auto& c : required) add_cube(b, c);

  std::vector<Cube> off = f.off;
  std::sort(off.begin(), off.end());
  b.add(static_cast<std::uint64_t>(off.size()));
  for (const auto& c : off) add_cube(b, c);

  std::vector<HfDynamic> dyn = f.dynamic;
  std::sort(dyn.begin(), dyn.end(), dynamic_less);
  b.add(static_cast<std::uint64_t>(dyn.size()));
  for (const auto& d : dyn) {
    b.add(static_cast<std::uint64_t>(d.type == HfType::kRise ? 1 : 2));
    add_cube(b, d.t);
    add_cube(b, d.a);
    add_cube(b, d.b);
  }
  return b.digest();
}

Fingerprint encoding_fingerprint(const ConcreteMachine& cm) {
  FingerprintBuilder b;
  b.add("encoding-v1");
  b.add(static_cast<std::uint64_t>(cm.states.size()));
  b.add(static_cast<std::uint64_t>(cm.initial));
  b.add(static_cast<std::uint64_t>(cm.transitions.size()));
  for (const auto& t : cm.transitions) {
    b.add(static_cast<std::uint64_t>(t.from));
    b.add(static_cast<std::uint64_t>(t.to));
  }
  return b.digest();
}

std::string LogicMemo::serialize(const Entry& e) {
  std::size_t vars = e.products.empty() ? 0 : e.products.front().var_count();
  std::string body;
  char line[128];
  std::snprintf(line, sizeof line, "spec vars %zu feasible %d products %zu issues %zu\n",
                vars, e.feasible ? 1 : 0, e.products.size(), e.issue_suffixes.size());
  body += line;
  for (const auto& p : e.products) body += "p " + p.to_string() + "\n";
  for (const auto& s : e.issue_suffixes) body += "i " + s + "\n";

  // The ADCK envelope only checksums what *it* was handed; a payload
  // corrupted before the put (the logic.memo.put.payload site) would pass
  // that check, so the body carries its own checksum.
  char head[64];
  std::snprintf(head, sizeof head, "%s%016llx\n", kMagic,
                static_cast<unsigned long long>(DiskCache::checksum(body)));
  return head + body;
}

std::optional<LogicMemo::Entry> LogicMemo::deserialize(const std::string& payload) {
  constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
  if (payload.size() < kMagicLen + 17) return std::nullopt;
  if (payload.compare(0, kMagicLen, kMagic) != 0) return std::nullopt;
  unsigned long long want = 0;
  if (std::sscanf(payload.c_str() + kMagicLen, "%16llx", &want) != 1) return std::nullopt;
  std::size_t body_at = payload.find('\n');
  if (body_at == std::string::npos) return std::nullopt;
  std::string body = payload.substr(body_at + 1);
  if (DiskCache::checksum(body) != want) return std::nullopt;

  std::size_t vars = 0, n_products = 0, n_issues = 0;
  int feasible = 0;
  std::size_t pos = body.find('\n');
  if (pos == std::string::npos) return std::nullopt;
  if (std::sscanf(body.substr(0, pos).c_str(),
                  "spec vars %zu feasible %d products %zu issues %zu", &vars,
                  &feasible, &n_products, &n_issues) != 4)
    return std::nullopt;
  if (feasible != 0 && feasible != 1) return std::nullopt;

  Entry e;
  e.feasible = feasible == 1;
  std::size_t at = pos + 1;
  auto next_line = [&](char tag) -> std::optional<std::string> {
    if (at + 2 > body.size() || body[at] != tag || body[at + 1] != ' ')
      return std::nullopt;
    std::size_t end = body.find('\n', at);
    if (end == std::string::npos) return std::nullopt;
    std::string text = body.substr(at + 2, end - at - 2);
    at = end + 1;
    return text;
  };
  for (std::size_t i = 0; i < n_products; ++i) {
    auto pat = next_line('p');
    if (!pat || pat->size() != vars) return std::nullopt;
    auto c = cube_from_pattern(*pat);
    if (!c) return std::nullopt;
    e.products.push_back(std::move(*c));
  }
  for (std::size_t i = 0; i < n_issues; ++i) {
    auto s = next_line('i');
    if (!s) return std::nullopt;
    e.issue_suffixes.push_back(std::move(*s));
  }
  if (at != body.size()) return std::nullopt;  // trailing garbage
  return e;
}

std::shared_ptr<const LogicMemo::Entry> LogicMemo::cover(
    const Fingerprint& key, const std::function<Entry()>& compute) {
  return covers_.get_or_compute<Entry>(key, [&]() -> Entry {
    const bool disk = disk_ && disk_->enabled();
    if (disk) {
      if (auto payload = disk_->get(disk_key(key))) {
        if (auto parsed = deserialize(*payload)) {
          ++disk_hits_;
          return std::move(*parsed);
        }
        // Torn payload inside a structurally valid envelope: evict at this
        // layer so the next run recomputes instead of re-parsing garbage.
        disk_->remove(disk_key(key), /*count_corrupt=*/true);
        ++disk_corrupt_;
      }
    }
    ++misses_;
    Entry e = compute();
    ++fills_;
    if (disk) persist(key, e);
    return e;
  });
}

void LogicMemo::persist(const Fingerprint& key, const Entry& e) {
  try {
    fault().maybe_fail_or_stall("logic.memo.fill", key.hex());
    std::string payload = serialize(e);
    fault().mutate_payload("logic.memo.put.payload", payload, key.hex());
    disk_->put(disk_key(key), payload);  // put swallows its own failures
  } catch (...) {
    // The memo is an accelerator: a failed write costs a future recompute,
    // never the current answer.
    ++fill_errors_;
  }
}

std::shared_ptr<const Encoding> LogicMemo::encoding(
    const Fingerprint& key, const std::function<Encoding()>& compute) {
  return encodings_.get_or_compute<Encoding>(key, compute);
}

LogicMemo::Stats LogicMemo::stats() const {
  const CacheStats c = covers_.stats(), e = encodings_.stats();
  Stats s;
  s.hits = c.hits + c.joins;
  s.disk_hits = disk_hits_;
  s.misses = misses_;
  s.fills = fills_;
  s.fill_errors = fill_errors_;
  s.disk_corrupt = disk_corrupt_;
  s.evictions = c.evictions;
  s.entries = c.entries;
  s.encode_hits = e.hits + e.joins;
  s.encode_misses = e.misses;
  return s;
}

std::vector<std::pair<std::string, std::int64_t>> LogicMemo::gauges() const {
  const Stats s = stats();
  auto g = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  return {{"logic.memo.hits", g(s.hits)},
          {"logic.memo.disk_hits", g(s.disk_hits)},
          {"logic.memo.misses", g(s.misses)},
          {"logic.memo.fills", g(s.fills)},
          {"logic.memo.fill_errors", g(s.fill_errors)},
          {"logic.memo.disk_corrupt", g(s.disk_corrupt)},
          {"logic.memo.entries", g(s.entries)}};
}

void LogicMemo::clear() {
  covers_.clear();
  encodings_.clear();
}

}  // namespace adc
