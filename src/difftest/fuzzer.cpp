#include "difftest/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>

#include "difftest/harness.h"
#include "difftest/minimize.h"
#include "telemetry/telemetry.h"

namespace newton::difftest {

namespace {

constexpr std::size_t kCoverageBits = 1u << 16;
constexpr std::size_t kCorpusCap = 256;

class CoverageMap {
 public:
  CoverageMap() : bits_(kCoverageBits / 64, 0) {}

  // Fold the current global-registry snapshot in; returns how many bits
  // were new.
  std::size_t absorb() {
    const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
    std::size_t fresh = 0;
    for (uint64_t key : telemetry::coverage_keys(snap)) {
      const std::size_t bit = key % kCoverageBits;
      uint64_t& word = bits_[bit / 64];
      const uint64_t mask = 1ull << (bit % 64);
      if (!(word & mask)) {
        word |= mask;
        ++fresh;
        ++set_;
      }
    }
    return fresh;
  }

  std::size_t set_bits() const { return set_; }

 private:
  std::vector<uint64_t> bits_;
  std::size_t set_ = 0;
};

// Run the harness with the telemetry registry scoped to this scenario, so
// coverage reflects one run, not the whole campaign.
CheckOutcome run_instrumented(const Scenario& s) {
  telemetry::Registry::global().reset();
  return check_scenario(s);
}

bool scenario_fails(const Scenario& s) {
  return !run_instrumented(s).ok();
}

std::string write_failure(const Scenario& s, const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  const std::string path =
      out_dir + "/fail-" + std::to_string(s.id) + ".nds";
  s.save(path);
  return path;
}

void load_corpus_dir(const std::string& dir, std::vector<Scenario>& corpus) {
  if (dir.empty() || !std::filesystem::is_directory(dir)) return;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".nds")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());  // deterministic load order
  for (const auto& p : files) {
    try {
      corpus.push_back(Scenario::load(p.string()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fuzz: skipping unparsable corpus file %s: %s\n",
                   p.string().c_str(), e.what());
    }
  }
}

}  // namespace

FuzzStats run_fuzzer(const FuzzOptions& opt) {
  FuzzStats st;
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  CoverageMap cov;
  std::vector<Scenario> corpus;
  load_corpus_dir(opt.corpus_dir, corpus);

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  while (true) {
    if (opt.max_runs && st.runs >= opt.max_runs) break;
    if (opt.max_seconds > 0 && elapsed() >= opt.max_seconds) break;
    if (st.divergent >= opt.max_failures) break;

    // ~30% fresh scenarios keep exploring; the rest mutate the corpus.
    Scenario s;
    const uint64_t scenario_seed = rng();
    if (corpus.empty() || rng() % 10 < 3) {
      s = generate_scenario(scenario_seed);
    } else {
      s = mutate_scenario(corpus[rng() % corpus.size()], rng);
      s.id = scenario_seed;
    }
    if (opt.force_churn && s.churn_ops == 0) {
      s.churn_ops = 6 + scenario_seed % 11;
      s.churn_seed = static_cast<uint32_t>(1 + scenario_seed % 1'000'000);
    }
    if (opt.force_placement && s.place_events == 0) {
      s.place_events = 4 + scenario_seed % 9;
      s.place_seed = static_cast<uint32_t>(1 + scenario_seed % 999'983);
    }

    CheckOutcome out;
    bool threw = false;
    std::string what;
    try {
      out = run_instrumented(s);
    } catch (const std::exception& e) {
      threw = true;
      what = e.what();
    }
    ++st.runs;
    st.late_scenarios += out.late_packets > 0;
    st.overlap_chain_scenarios += out.overlap_chained;
    st.placement_scenarios += std::any_of(
        out.axes.begin(), out.axes.end(), [](const AxisReport& a) {
          return a.ran && a.axis == "place-inc-vs-scratch";
        });

    if (threw || !out.ok()) {
      ++st.divergent;
      std::fprintf(stderr, "fuzz: run %zu seed %llu %s\n", st.runs,
                   static_cast<unsigned long long>(s.id),
                   threw ? ("threw: " + what).c_str()
                         : describe(out).c_str());
      Scenario to_save = s;
      if (opt.minimize) {
        const FailPredicate fails = [&](const Scenario& c) {
          if (!threw) return scenario_fails(c);
          // Harness threw: shrink while the same exception keeps firing.
          try {
            (void)run_instrumented(c);
            return false;
          } catch (...) {
            return true;
          }
        };
        to_save = minimize_scenario(s, fails);
      }
      const std::string path = write_failure(to_save, opt.out_dir);
      st.failure_files.push_back(path);
      std::fprintf(stderr, "fuzz: wrote %s (replay: newton_tool fuzz --replay %s)\n",
                   path.c_str(), path.c_str());
      continue;
    }

    const std::size_t fresh = cov.absorb();
    if (fresh > 0) {
      if (corpus.size() >= kCorpusCap)
        corpus[rng() % corpus.size()] = s;
      else
        corpus.push_back(s);
    }
    if (opt.verbose && st.runs % 50 == 0)
      std::fprintf(stderr,
                   "fuzz: %zu runs, %zu corpus, %zu coverage bits, %.1fs\n",
                   st.runs, corpus.size(), cov.set_bits(), elapsed());
  }

  st.corpus = corpus.size();
  st.coverage_bits = cov.set_bits();
  if (!opt.save_corpus_dir.empty()) {
    std::filesystem::create_directories(opt.save_corpus_dir);
    for (std::size_t i = 0; i < corpus.size(); ++i)
      corpus[i].save(opt.save_corpus_dir + "/corpus-" + std::to_string(i) +
                     ".nds");
    std::fprintf(stderr, "fuzz: saved %zu corpus seeds to %s\n",
                 corpus.size(), opt.save_corpus_dir.c_str());
  }
  return st;
}

int replay_file(const std::string& path, bool minimize,
                const std::string& out_dir) {
  Scenario s;
  try {
    s = Scenario::load(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz: cannot load %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }
  const CheckOutcome out = run_instrumented(s);
  std::printf("%s: %s\n", path.c_str(), describe(out).c_str());
  if (out.ok()) return 0;
  if (minimize) {
    const Scenario small = minimize_scenario(s, scenario_fails);
    const std::string written = write_failure(small, out_dir);
    std::printf("minimized -> %s\n", written.c_str());
  }
  return 1;
}

}  // namespace newton::difftest
