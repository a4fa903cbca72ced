#include "difftest/minimize.h"

#include <algorithm>

namespace newton::difftest {

namespace {

// Reject candidates whose predicate throws: an invalid shrink must not be
// mistaken for "still failing".
bool still_fails(const FailPredicate& fails, const Scenario& c,
                 std::size_t& attempts) {
  if (attempts == 0) return false;
  --attempts;
  try {
    return fails(c);
  } catch (...) {
    return false;
  }
}

void rename_queries(Scenario& s) {
  for (std::size_t i = 0; i < s.queries.size(); ++i)
    s.queries[i].name = query_name(i);
}

// Drop query `qi`, remapping op indices; ops on the dropped query go away.
Scenario drop_query(const Scenario& s, std::size_t qi) {
  Scenario c = s;
  c.queries.erase(c.queries.begin() + static_cast<std::ptrdiff_t>(qi));
  rename_queries(c);
  std::vector<OpEvent> kept;
  for (OpEvent op : c.ops) {
    if (op.query == qi) continue;
    if (op.query > qi) --op.query;
    kept.push_back(op);
  }
  c.ops = std::move(kept);
  // The fault axis monitors query 0; if the shift changed which query that
  // is, the axis may become infeasible — the predicate guard handles it.
  return c;
}

}  // namespace

Scenario minimize_scenario(const Scenario& s, const FailPredicate& fails,
                           std::size_t max_attempts) {
  Scenario best = s;
  std::size_t attempts = max_attempts;
  bool progressed = true;
  while (progressed && attempts > 0) {
    progressed = false;

    // Pass 1: drop whole queries (largest single shrink first).
    for (std::size_t qi = best.queries.size(); qi-- > 0 && attempts > 0;) {
      if (best.queries.size() <= 1) break;
      Scenario c = drop_query(best, qi);
      if (still_fails(fails, c, attempts)) {
        best = std::move(c);
        progressed = true;
      }
    }

    // Pass 2: drop scheduled ops one at a time.  Installs at packet 0 stay:
    // the executors' switches take their window from the installed queries,
    // so a scenario that starts empty runs its first windows at the default
    // length and the executors would disagree on when a later install lands.
    for (std::size_t oi = best.ops.size(); oi-- > 0 && attempts > 0;) {
      if (best.ops[oi].kind == OpEvent::Kind::Install &&
          best.ops[oi].at_packet == 0)
        continue;
      Scenario c = best;
      c.ops.erase(c.ops.begin() + static_cast<std::ptrdiff_t>(oi));
      if (still_fails(fails, c, attempts)) {
        best = std::move(c);
        progressed = true;
      }
    }

    // Pass 3: collapse execution axes to their simplest setting.
    const auto try_axis = [&](void (*tweak)(Scenario&)) {
      Scenario c = best;
      tweak(c);
      if (c.serialize() == best.serialize()) return;
      if (still_fails(fails, c, attempts)) {
        best = std::move(c);
        progressed = true;
      }
    };
    try_axis([](Scenario& c) {
      c.fault = false;
      c.fault_events = 0;
    });
    try_axis([](Scenario& c) { c.cqe_stages = 0; });
    try_axis([](Scenario& c) { c.shards = 1; });
    try_axis([](Scenario& c) { c.burst = 1; });
    try_axis([](Scenario& c) { c.opt_level = 1; });
    try_axis([](Scenario& c) { c.trace.late_count = 0; });

    // Pass 4: shrink the trace — halve the flow count, drop injections.
    if (best.trace.flows > 16 && attempts > 0) {
      Scenario c = best;
      c.trace.flows = std::max<std::size_t>(16, c.trace.flows / 2);
      if (still_fails(fails, c, attempts)) {
        best = std::move(c);
        progressed = true;
      }
    }
    for (std::size_t ii = best.trace.injections.size();
         ii-- > 0 && attempts > 0;) {
      Scenario c = best;
      c.trace.injections.erase(c.trace.injections.begin() +
                               static_cast<std::ptrdiff_t>(ii));
      if (still_fails(fails, c, attempts)) {
        best = std::move(c);
        progressed = true;
      }
    }
  }
  return best;
}

}  // namespace newton::difftest
