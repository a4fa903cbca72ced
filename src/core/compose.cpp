#include "core/compose.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/overlap.h"

namespace newton {
namespace {

bool is_gate(const ModuleSpec& m) {
  return m.type == ModuleType::R &&
         (m.r.on_match == RAction::Stop || m.r.on_match == RAction::ReportStop ||
          m.r.on_miss == RAction::Stop || m.r.on_miss == RAction::ReportStop);
}

bool reads_state(const RConfig& r) {
  return r.combine != RCombine::None || !r.match_on_global;
}

// A reporting R mirrors its set's operation keys to the analyzer, so it is
// also a reader of that set's keys.
bool reads_keys(const RConfig& r) {
  return r.on_match == RAction::Report || r.on_match == RAction::ReportStop ||
         r.on_miss == RAction::Report || r.on_miss == RAction::ReportStop;
}

// --- Opt.2: remove placeholders and redundant K modules. -------------------
void apply_opt2(BranchModules& b) {
  std::erase_if(b.modules, [](const ModuleSpec& m) { return !m.rule_needed; });
  std::array<uint32_t, kNumFields> theta{};
  bool have_theta = false;
  std::vector<ModuleSpec> kept;
  kept.reserve(b.modules.size());
  for (ModuleSpec& m : b.modules) {
    if (m.type == ModuleType::K) {
      if (have_theta && m.k.masks == theta) continue;  // redundant
      theta = m.k.masks;
      have_theta = true;
    }
    kept.push_back(std::move(m));
  }
  b.modules = std::move(kept);
}

// --- Opt.3: metadata-set labels with K restoration. ------------------------
// Suites (dataflow groups keyed by (prim, suite)) alternate between the two
// sets; a suite whose K was removed must stay on the set where its keys
// already live, or get its K restored on the new set.
void apply_opt3(BranchModules& b,
                const std::map<std::pair<std::size_t, std::size_t>,
                               std::array<uint32_t, kNumFields>>& suite_masks) {
  // Group module indices by suite, preserving order of first appearance.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < b.modules.size(); ++i) {
    const auto key = std::make_pair(b.modules[i].prim, b.modules[i].suite);
    if (!groups.contains(key)) order.push_back(key);
    groups[key].push_back(i);
  }

  std::array<std::array<uint32_t, kNumFields>, 2> theta{};
  std::array<bool, 2> have_theta{false, false};
  // "Fresh" keys: set s holds the wanted keys and no stateful pipeline has
  // started behind them (no S since that K) — reusing such a set costs no
  // serialization, so a suite whose K was deduplicated stays there.
  // Otherwise suites alternate sets and restore K (Alg. 1 l.16/21): that is
  // the vertical composition that lets consecutive suites pipeline.
  std::array<bool, 2> keys_fresh{false, false};
  int prev_set = 1;  // so the first data-carrying suite lands on set 0
  std::vector<ModuleSpec> out;
  out.reserve(b.modules.size());

  for (const auto& key : order) {
    const auto& idxs = groups[key];
    bool has_k = false, has_data = false;
    for (std::size_t i : idxs) {
      if (b.modules[i].type == ModuleType::K) has_k = true;
      if (b.modules[i].type == ModuleType::K ||
          b.modules[i].type == ModuleType::H ||
          b.modules[i].type == ModuleType::S)
        has_data = true;
    }

    int set;
    const auto mit = suite_masks.find(key);
    const bool knows_masks = mit != suite_masks.end();
    if (!has_data) {
      set = prev_set;  // pure-R suite (when): set is irrelevant
    } else if (!has_k && knows_masks &&
               ((have_theta[0] && theta[0] == mit->second && keys_fresh[0]) ||
                (have_theta[1] && theta[1] == mit->second && keys_fresh[1]))) {
      set = (have_theta[0] && theta[0] == mit->second && keys_fresh[0]) ? 0 : 1;
    } else if (!has_k && knows_masks) {
      // Keys unavailable or already consumed by a pipeline: flip sets and
      // restore the K that Opt.2 removed.
      set = 1 - prev_set;
      ModuleSpec k;
      k.type = ModuleType::K;
      k.branch = b.branch_index;
      k.prim = key.first;
      k.suite = key.second;
      k.k.masks = mit->second;
      k.set = set;
      k.k.set = static_cast<uint8_t>(set);
      out.push_back(k);
      theta[set] = mit->second;
      have_theta[set] = true;
      keys_fresh[set] = true;
    } else {
      set = 1 - prev_set;  // alternate (vertical composition)
    }

    for (std::size_t i : idxs) {
      ModuleSpec m = b.modules[i];
      m.set = set;
      m.k.set = static_cast<uint8_t>(set);
      m.h.set = static_cast<uint8_t>(set);
      m.s.set = static_cast<uint8_t>(set);
      m.r.set = static_cast<uint8_t>(set);
      if (m.type == ModuleType::K) {
        theta[set] = m.k.masks;
        have_theta[set] = true;
        keys_fresh[set] = true;
      }
      if (m.type == ModuleType::S) keys_fresh[set] = false;
      out.push_back(std::move(m));
    }
    if (has_data) prev_set = set;
  }
  b.modules = std::move(out);
}

}  // namespace

// --- Hazard DAG -------------------------------------------------------------
std::vector<std::vector<std::size_t>> hazard_deps(
    const std::vector<ModuleSpec>& chain) {
  const std::size_t n = chain.size();
  std::vector<std::vector<std::size_t>> deps(n);
  auto add = [&](std::size_t i, std::size_t j) {
    if (std::find(deps[i].begin(), deps[i].end(), j) == deps[i].end())
      deps[i].push_back(j);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const ModuleSpec& m = chain[i];
    const int set = m.set;

    // WAW: previous module of the same (type, set).
    for (std::size_t j = i; j-- > 0;) {
      if (chain[j].type == m.type && chain[j].set == set) {
        add(i, j);
        break;
      }
    }

    auto latest_before = [&](ModuleType t, int s) -> long {
      for (std::size_t j = i; j-- > 0;)
        if (chain[j].type == t && chain[j].set == s) return (long)j;
      return -1;
    };

    switch (m.type) {
      case ModuleType::K: {
        // WAR: readers (H, reporting R) of the previous K's keys on this set.
        const long prev_k = latest_before(ModuleType::K, set);
        for (std::size_t j = (prev_k < 0 ? 0 : (std::size_t)prev_k); j < i; ++j) {
          if (chain[j].set != set) continue;
          if (chain[j].type == ModuleType::H ||
              (chain[j].type == ModuleType::R && reads_keys(chain[j].r)))
            add(i, j);
        }
        break;
      }
      case ModuleType::H: {
        // RAW: the K that wrote this set's keys.
        const long k = latest_before(ModuleType::K, set);
        if (k >= 0) add(i, (std::size_t)k);
        // WAR: S readers of the previous H's hash on this set.
        const long prev_h = latest_before(ModuleType::H, set);
        for (std::size_t j = (prev_h < 0 ? 0 : (std::size_t)prev_h); j < i; ++j)
          if (chain[j].type == ModuleType::S && chain[j].set == set) add(i, j);
        break;
      }
      case ModuleType::S: {
        // RAW: the H that wrote this set's hash result.
        const long h = latest_before(ModuleType::H, set);
        if (h >= 0) add(i, (std::size_t)h);
        // WAR: R readers of the previous S's state on this set.
        const long prev_s = latest_before(ModuleType::S, set);
        for (std::size_t j = (prev_s < 0 ? 0 : (std::size_t)prev_s); j < i; ++j)
          if (chain[j].type == ModuleType::R && chain[j].set == set &&
              reads_state(chain[j].r))
            add(i, j);
        // Side-effect gating: stateful updates must follow every earlier R
        // that can stop the query.
        if (!m.s.bypass) {
          for (std::size_t j = 0; j < i; ++j)
            if (is_gate(chain[j])) add(i, j);
        }
        break;
      }
      case ModuleType::R: {
        // RAW: the S that wrote this set's state result (if R reads it).
        if (reads_state(m.r)) {
          const long s = latest_before(ModuleType::S, set);
          if (s >= 0) add(i, (std::size_t)s);
        }
        // RAW: a reporting R mirrors the keys, so it follows the K that
        // selected them.
        if (reads_keys(m.r)) {
          const long k = latest_before(ModuleType::K, set);
          if (k >= 0) add(i, (std::size_t)k);
        }
        // Global-result chain: strictly after the previous R (any set).
        for (std::size_t j = i; j-- > 0;) {
          if (chain[j].type == ModuleType::R) {
            add(i, j);
            break;
          }
        }
        break;
      }
    }
  }
  return deps;
}

// --- Scheduling -------------------------------------------------------------
namespace {

// List-schedule one branch starting at `base`; returns one past its last
// used stage.
std::size_t schedule_branch(BranchModules& b, std::size_t base,
                            std::size_t max_stages) {
  for (ModuleSpec& m : b.modules) m.stage = -1;
  const auto deps = hazard_deps(b.modules);
  std::size_t remaining = b.modules.size();
  std::size_t s = base;
  while (remaining > 0) {
    if (s >= max_stages)
      throw std::runtime_error("compose: schedule exceeds max_stages");
    // One rule per (table = stage x type) per branch.
    std::set<ModuleType> used_types;
    for (std::size_t i = 0; i < b.modules.size(); ++i) {
      ModuleSpec& m = b.modules[i];
      if (m.stage >= 0 || used_types.contains(m.type)) continue;
      bool ready = true;
      for (std::size_t d : deps[i]) {
        const int ds = b.modules[d].stage;
        if (ds < 0 || ds >= static_cast<int>(s)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      m.stage = static_cast<int>(s);
      used_types.insert(m.type);
      --remaining;
    }
    ++s;
  }
  return s;
}

}  // namespace

CompiledQuery compile_query(const Query& q, const CompileOptions& opts) {
  CompiledQuery cq;
  cq.name = q.name;
  cq.source = q;
  cq.options = opts;

  // Record per-suite key masks before Opt.2 erases K modules (Opt.3's
  // restoration needs them).
  std::vector<std::map<std::pair<std::size_t, std::size_t>,
                       std::array<uint32_t, kNumFields>>>
      suite_masks(q.branches.size());

  for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
    BranchModules b = decompose_branch(q, bi, opts.opt1);
    for (const ModuleSpec& m : b.modules)
      if (m.type == ModuleType::K && m.rule_needed)
        suite_masks[bi][{m.prim, m.suite}] = m.k.masks;
    if (opts.opt2) apply_opt2(b);
    if (opts.opt3) {
      if (!opts.opt2)
        throw std::invalid_argument("compose: Opt.3 requires Opt.2");
      apply_opt3(b, suite_masks[bi]);
    }
    cq.branches.push_back(std::move(b));
  }

  // Each overlap class serializes into disjoint stage ranges from min_stage;
  // classes multiplex the same stages with different rules (Fig. 16).
  const std::vector<std::size_t> group =
      overlap_classes(cq.branches.size(), [&](std::size_t i, std::size_t j) {
        return cq.branches[i].init.overlaps(cq.branches[j].init);
      });
  for (std::size_t g = 0; g < group.size(); ++g) {
    if (group[g] != g) continue;
    std::size_t next = opts.min_stage;
    for (std::size_t i = g; i < group.size(); ++i) {
      if (group[i] != g) continue;
      BranchModules& b = cq.branches[i];
      b.chain_group = g;
      if (opts.opt3) {
        next = schedule_branch(b, next, opts.max_stages);
      } else {
        for (ModuleSpec& m : b.modules) m.stage = static_cast<int>(next++);
        if (next > opts.max_stages)
          throw std::runtime_error("compose: schedule exceeds max_stages");
      }
    }
  }
  return cq;
}

// --- Metrics ----------------------------------------------------------------
std::size_t CompiledQuery::num_modules() const {
  std::size_t n = 0;
  for (const auto& b : branches) n += b.modules.size();
  return n;
}

std::size_t CompiledQuery::num_stages() const {
  std::set<int> stages;
  for (const auto& b : branches)
    for (const auto& m : b.modules) stages.insert(m.stage);
  return stages.size();
}

std::size_t CompiledQuery::max_stage() const {
  int mx = -1;
  for (const auto& b : branches)
    for (const auto& m : b.modules) mx = std::max(mx, m.stage);
  return mx < 0 ? 0 : static_cast<std::size_t>(mx);
}

std::size_t CompiledQuery::branch_stage_span() const {
  std::size_t span = 0;
  for (const auto& b : branches) {
    std::set<int> stages;
    for (const auto& m : b.modules) stages.insert(m.stage);
    span = std::max(span, stages.size());
  }
  return span;
}

std::size_t CompiledQuery::min_used_stage() const {
  int mn = INT32_MAX;
  for (const auto& b : branches)
    for (const auto& m : b.modules) mn = std::min(mn, m.stage);
  return mn == INT32_MAX ? 0 : static_cast<std::size_t>(mn);
}

// --- Validation ------------------------------------------------------------
std::string validate_schedule(const CompiledQuery& cq) {
  for (const auto& b : cq.branches) {
    const auto deps = hazard_deps(b.modules);
    for (std::size_t i = 0; i < b.modules.size(); ++i) {
      if (b.modules[i].stage < 0)
        return "unscheduled module in branch " + b.name;
      for (std::size_t d : deps[i]) {
        if (b.modules[d].stage >= b.modules[i].stage)
          return "hazard violated in branch " + b.name + ": module " +
                 std::to_string(i) + " (stage " +
                 std::to_string(b.modules[i].stage) + ") depends on module " +
                 std::to_string(d) + " (stage " +
                 std::to_string(b.modules[d].stage) + ")";
      }
    }
    // One rule per table (stage x type) per branch.
    std::set<std::pair<int, ModuleType>> seen;
    for (const auto& m : b.modules)
      if (!seen.insert({m.stage, m.type}).second)
        return "duplicate (stage,type) rule in branch " + b.name;
  }
  const CompiledQuery* one[] = {&cq};
  return check_disjoint_stages(one);
}

}  // namespace newton
