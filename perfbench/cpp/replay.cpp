// Single-threaded replay of the shard worker's burst loop, used by the
// traced run to time the layers the worker thread executes (PHV load,
// newton_init, the compiled executors, the interpreter).  Only public calls
// are used; the replica is a clone, so the measured switch is untouched.
#include <memory>

#include "bench.h"
#include "compile/executor.h"
#include "core/modules.h"

namespace perfbench {

namespace {

using newton::Phv;
using newton::Pipeline;

struct Replica {
  Pipeline pipe{0};
  std::shared_ptr<newton::InitModule> init;
  std::vector<newton::SModule*> banks;
  newton::ReportBuffer sink;

  explicit Replica(const newton::NewtonSwitch& sw) {
    pipe = sw.pipeline().clone();
    init = std::dynamic_pointer_cast<newton::InitModule>(
        sw.init_table().clone());
    for (std::size_t i = 0; i < pipe.num_stages(); ++i)
      for (const auto& t : pipe.stage(i).tables()) {
        if (auto* s = dynamic_cast<newton::SModule*>(t.get()))
          banks.push_back(s);
        if (auto* r = dynamic_cast<newton::RModule*>(t.get()))
          r->set_sink(&sink);
      }
  }
  void reset_banks() {
    for (auto* s : banks) s->registers().reset();
    sink.clear();
  }
};

constexpr std::size_t kBurst = 64;

// Length of the burst starting at `base`: up to kBurst packets, never
// spanning a window boundary (the runtime fences there).  Entering a new
// window resets the replica's state, as the barrier does.
std::size_t next_burst(const std::vector<newton::Packet>& pkts,
                       std::size_t base, std::size_t n, uint64_t window_ns,
                       uint64_t& epoch, Replica& rep) {
  std::size_t m = 0;
  while (m < kBurst && base + m < n) {
    const uint64_t e = window_ns ? pkts[base + m].ts_ns / window_ns : 0;
    if (e != epoch) {
      if (m > 0) break;
      epoch = e;
      rep.reset_banks();
    }
    ++m;
  }
  return m;
}

}  // namespace

ReplayStats replay_pipeline(const newton::NewtonSwitch& primary,
                            const std::vector<newton::Packet>& pkts,
                            std::size_t max_pkts, uint64_t window_ns) {
  ReplayStats st;
  const std::size_t n = std::min(max_pkts, pkts.size());
  st.packets = n;
  if (n == 0) return st;
  std::vector<Phv> phvs(kBurst);

  // Pass 1: compiled executors, exactly the worker's run partitioning.
  Replica a(primary);
  newton::compile::CompiledPipeline jit;
  const uint64_t b0 = now_ns();
  jit.build(a.pipe, kBurst, newton::compile::ExecOptions{});
  st.build_ms = static_cast<double>(now_ns() - b0) / 1e6;

  uint64_t load_ns = 0, init_ns = 0, fused_ns = 0, generic_ns = 0;
  uint64_t runs = 0, multi = 0;
  uint64_t epoch = 0;
  for (std::size_t base = 0; base < n;) {
    const std::size_t m = next_burst(pkts, base, n, window_ns, epoch, a);
    const uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < m; ++i) {
      phvs[i].reset();
      phvs[i].pkt = pkts[base + i];
    }
    const uint64_t t1 = now_ns();
    a.init->execute_burst(phvs.data(), m);
    const uint64_t t2 = now_ns();
    load_ns += t1 - t0;
    init_ns += t2 - t1;
    for (std::size_t i = 0; i < m; ++i) multi += phvs[i].active.count() >= 2;
    for (std::size_t i = 0; i < m;) {
      std::size_t j = i + 1;
      const uint64_t r0 = now_ns();
      if (jit.covers(phvs[i])) {
        while (j < m && jit.covers(phvs[j]) &&
               phvs[j].active == phvs[i].active)
          ++j;
        const bool fused = jit.execute_run(phvs.data() + i, j - i);
        const uint64_t d = now_ns() - r0;
        ++runs;
        if (fused) {
          fused_ns += d;
          st.fused_pkts += j - i;
        } else {
          generic_ns += d;
          st.generic_pkts += j - i;
        }
      } else {
        while (j < m && !jit.covers(phvs[j])) ++j;
        a.pipe.process_burst(phvs.data() + i, j - i);
        st.interp_pkts += j - i;
      }
      i = j;
    }
    base += m;
  }
  const auto per = [](uint64_t ns, uint64_t k) {
    return k ? static_cast<double>(ns) / static_cast<double>(k) : 0.0;
  };
  st.phv_load_ns = per(load_ns, n);
  st.init_ns = per(init_ns, n);
  st.fused_ns = per(fused_ns, st.fused_pkts);
  st.generic_ns = per(generic_ns, st.generic_pkts);
  st.run_len_mean = per(st.fused_pkts + st.generic_pkts, runs);
  st.multi_query_frac = per(multi, n);

  // Pass 2: the same packets through the interpreter alone.
  Replica b(primary);
  uint64_t interp_ns = 0;
  epoch = 0;
  for (std::size_t base = 0; base < n;) {
    const std::size_t m = next_burst(pkts, base, n, window_ns, epoch, b);
    for (std::size_t i = 0; i < m; ++i) {
      phvs[i].reset();
      phvs[i].pkt = pkts[base + i];
    }
    b.init->execute_burst(phvs.data(), m);
    const uint64_t t0 = now_ns();
    b.pipe.process_burst(phvs.data(), m);
    interp_ns += now_ns() - t0;
    base += m;
  }
  st.interp_ns = per(interp_ns, n);
  return st;
}

}  // namespace perfbench
