// The `sim` workload: one thread driving the simulator (core + sched).
//
// Each round builds three simulations from the run's seed and warms them
// up (the round's set-up, timed for setup_s), then runs each in timed
// chunks; the phase rates are the best chunk rates:
//   phase 1 (closed engine)  A: scan-validate SCU(0,1), n = 64, uniform
//                            B: the same at n = 65536 under a Zipf(1.0)
//                               WeightedScheduler (alias sampler)
//   phase 2 (open engine)    Poisson arrivals, departures, crashes and
//                            restarts over ~1000 live processes.
// Every round rebuilds from the same seed, so every round must reproduce
// the same trajectory fingerprints; a fixed-seed run is compared against
// the values stored in expected.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/algorithms.hpp"
#include "core/arrival.hpp"
#include "core/open_system.hpp"
#include "core/scheduler.hpp"
#include "core/simulation.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using pwf::Xoshiro256pp;
namespace core = pwf::core;

constexpr std::size_t kSmallN = 64;
constexpr std::size_t kLargeN = 1 << 16;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kOpenCapacity = 4096;
constexpr std::size_t kOpenInitial = 1024;

/// Steps each phase runs per round (and per fixed-seed reference run).
struct Steps {
  std::uint64_t small;
  std::uint64_t large;
  std::uint64_t open;
};
constexpr Steps kRoundSteps{1ULL << 24, 1ULL << 23, 1ULL << 24};
constexpr Steps kWarmSteps{1ULL << 20, 1ULL << 20, 1ULL << 20};
constexpr Steps kGoldenSteps{1ULL << 18, 1ULL << 18, 1ULL << 18};

std::unique_ptr<core::Simulation> make_closed(std::size_t n, bool zipf,
                                              std::uint64_t seed) {
  std::unique_ptr<core::Scheduler> scheduler;
  if (zipf) {
    scheduler = std::make_unique<core::WeightedScheduler>(
        core::make_zipf_scheduler(n, kZipfExponent));
  } else {
    scheduler = std::make_unique<core::UniformScheduler>();
  }
  core::Simulation::Options o;
  o.num_registers = core::ScuAlgorithm::registers_required(n, 1);
  o.seed = seed;
  return std::make_unique<core::Simulation>(n, core::scan_validate_factory(),
                                            std::move(scheduler), o);
}

std::unique_ptr<core::OpenSimulation> make_open(std::uint64_t seed) {
  core::OpenSimulation::Options o;
  o.kind = core::CompactKind::kScu;
  o.q = 0;
  o.s = 1;
  o.capacity = kOpenCapacity;
  o.initial_n = kOpenInitial;
  o.seed = seed;
  // Stationary population near rate / depart_rate = 1000 live processes.
  o.arrivals = std::make_unique<core::PoissonArrivals>(0.01);
  o.depart_rate = 1e-5;
  o.crash_rate = 2e-6;
  o.restart_prob = 0.5;
  o.restart_delay_rate = 1e-3;
  return std::make_unique<core::OpenSimulation>(
      std::make_unique<core::UniformScheduler>(), std::move(o));
}

std::uint64_t closed_fingerprint(const core::LatencyReport& r) {
  Fnv f;
  f.add(r.steps);
  f.add(r.completions);
  for (const std::uint64_t c : r.completions_per_process) f.add(c);
  for (const std::uint64_t s : r.steps_per_process) f.add(s);
  return f.h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Sims {
  std::unique_ptr<core::Simulation> small;
  std::unique_ptr<core::Simulation> large;
  std::unique_ptr<core::OpenSimulation> open;
};

Sims build(std::uint64_t seed) {
  return {make_closed(kSmallN, false, mix_seed(seed, 1)),
          make_closed(kLargeN, true, mix_seed(seed, 2)),
          make_open(mix_seed(seed, 3))};
}

/// Each simulation runs its round in this many equal chunks, each timed
/// on its own (about ten milliseconds apiece). A rate is the best chunk's.
constexpr std::uint64_t kChunks = 32;

double best(const std::vector<double>& rates) {
  return *std::max_element(rates.begin(), rates.end());
}

struct RoundOutcome {
  std::vector<double> small_rate;  ///< steps per second, one per chunk
  std::vector<double> large_rate;
  std::vector<double> open_rate;
  std::uint64_t closed_steps = 0;
  std::uint64_t closed_completions = 0;
  std::uint64_t open_steps = 0;
  std::uint64_t open_completions = 0;
  std::uint64_t open_events = 0;
  std::uint64_t small_fp = 0;
  std::uint64_t large_fp = 0;
  std::uint64_t open_fp = 0;
};

/// Runs `steps` more steps of `sim` in kChunks timed chunks, appending
/// each chunk's rate.
template <typename Sim>
void run_chunks(Sim& sim, std::uint64_t steps, std::vector<double>& rates) {
  const std::uint64_t chunk = steps / kChunks;
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    const auto start = Clock::now();
    sim.run(chunk);
    rates.push_back(static_cast<double>(chunk) / seconds_since(start));
  }
}

RoundOutcome run_round(Sims& sims, const Steps& steps) {
  RoundOutcome out;
  run_chunks(*sims.small, steps.small, out.small_rate);
  run_chunks(*sims.large, steps.large, out.large_rate);
  run_chunks(*sims.open, steps.open, out.open_rate);

  const core::LatencyReport& a = sims.small->report();
  const core::LatencyReport& b = sims.large->report();
  const core::OpenLatencyReport& o = sims.open->report();
  out.closed_steps = a.steps + b.steps;
  out.closed_completions = a.completions + b.completions;
  out.open_steps = o.steps;
  out.open_completions = o.completions;
  out.open_events = o.arrivals + o.departures + o.crashes + o.restarts;
  out.small_fp = closed_fingerprint(a);
  out.large_fp = closed_fingerprint(b);
  out.open_fp = o.fingerprint();
  return out;
}

/// The closed engine's rate over a round's step mix: each simulation at
/// its best chunk rate, weighted by its steps.
double closed_rate(const std::vector<double>& small, const std::vector<double>& large) {
  const double s = static_cast<double>(kRoundSteps.small);
  const double l = static_cast<double>(kRoundSteps.large);
  return (s + l) /
         (s / best(small) + l / best(large));
}

// --- per-layer probes, timed alone ------------------------------------------

/// ns per draw of Scheduler::next_batch over `active`, batches of 1024,
/// in the best of kChunks timed chunks (as the engine's rates).
double draw_ns(core::Scheduler& scheduler, std::span<const std::size_t> active,
               std::uint64_t seed, std::uint64_t draws) {
  Xoshiro256pp rng(seed);
  std::vector<std::size_t> out(1024);
  scheduler.next_batch(0, active, rng, out);  // builds lazy tables
  std::uint64_t sink = 0, done = 0;
  std::vector<double> ns;
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    const auto start = Clock::now();
    for (std::uint64_t d = 0; d < draws / kChunks; d += out.size(), done += out.size()) {
      scheduler.next_batch(done, active, rng, out);
      sink += out[0];
    }
    ns.push_back(1e9 * seconds_since(start) / static_cast<double>(draws / kChunks));
  }
  if (sink == ~std::uint64_t{0}) std::puts("");  // keeps the loop observable
  return *std::min_element(ns.begin(), ns.end());
}

/// ns per StepMachine::step on a SharedMemory, following a schedule drawn
/// up front from `scheduler` (so no draw cost is included), in the best of
/// kChunks timed chunks.
double kernel_ns(std::size_t n, core::Scheduler& scheduler, std::uint64_t seed,
                 std::uint64_t steps) {
  const core::StepMachineFactory factory = core::scan_validate_factory();
  std::vector<std::unique_ptr<core::StepMachine>> machines;
  machines.reserve(n);
  for (std::size_t p = 0; p < n; ++p) machines.push_back(factory(p, n));
  core::SharedMemory memory(core::ScuAlgorithm::registers_required(n, 1));
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::vector<std::size_t> schedule(steps);
  Xoshiro256pp rng(seed);
  scheduler.next_batch(0, active, rng, schedule);
  std::uint64_t completions = 0;
  std::vector<double> ns;
  const std::uint64_t chunk = steps / kChunks;
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    const auto start = Clock::now();
    for (std::uint64_t i = c * chunk; i < (c + 1) * chunk; ++i) {
      completions += machines[schedule[i]]->step(memory);
    }
    ns.push_back(1e9 * seconds_since(start) / static_cast<double>(chunk));
  }
  if (completions == ~std::uint64_t{0}) std::puts("");
  return *std::min_element(ns.begin(), ns.end());
}

struct Probes {
  double uniform_draw = 0;
  double alias_draw = 0;
  double kernel_small = 0;
  double kernel_large = 0;
};

Probes run_probes(std::uint64_t seed) {
  Probes p;
  std::vector<std::size_t> small(kSmallN), large(kLargeN);
  std::iota(small.begin(), small.end(), std::size_t{0});
  std::iota(large.begin(), large.end(), std::size_t{0});
  core::UniformScheduler uniform;
  core::WeightedScheduler zipf = core::make_zipf_scheduler(kLargeN, kZipfExponent);
  p.uniform_draw = draw_ns(uniform, small, seed, 1ULL << 23);
  p.alias_draw = draw_ns(zipf, large, seed, 1ULL << 23);
  p.kernel_small = kernel_ns(kSmallN, uniform, seed, 1ULL << 22);
  p.kernel_large = kernel_ns(kLargeN, zipf, seed, 1ULL << 22);
  return p;
}

}  // namespace

Result run_sim(const Options& options) {
  Result result;
  declare_per_layer(result);

  // Fixed-seed references (expected.json).
  {
    Sims golden = build(1);
    const RoundOutcome g = run_round(golden, kGoldenSteps);
    result.golden["closed_small_fingerprint"] = hex(g.small_fp);
    result.golden["closed_large_fingerprint"] = hex(g.large_fp);
    result.golden["open_fingerprint"] = hex(g.open_fp);
    result.golden["closed_completions"] = std::to_string(g.closed_completions);
  }

  // Per round: set-up (build from the seed, warm up), then the timed
  // chunks, which continue from the warmed state.
  std::vector<double> setup_s;
  std::vector<double> small_rate[2], large_rate[2], open_rate[2];  // [traced]
  std::vector<Probes> probes;
  RoundOutcome first;
  RssRounds rss;
  Sims sims;
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    sims = Sims{};
    rss.start();
    setup_s.push_back(timed_setup([&] {
      sims = build(options.seed);
      run_round(sims, kWarmSteps);
    }));
    RoundOutcome r = run_round(sims, kRoundSteps);
    rss.stop();
    if (round == 0) {
      first = r;
    } else if (r.small_fp != first.small_fp || r.large_fp != first.large_fp ||
               r.open_fp != first.open_fp) {
      result.fail("sim round " + std::to_string(round) +
                  " diverged from round 0 at the same seed");
      result.failed += r.closed_completions + r.open_completions;
    }
    result.attempted += r.closed_completions + r.open_completions;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(small_rate[traced], r.small_rate);
    append(large_rate[traced], r.large_rate);
    append(open_rate[traced], r.open_rate);
    if (traced) {
      probes.push_back(run_probes(mix_seed(options.seed, 100 + round)));
    }
    const bool enough = round + 1 >= (options.trace ? 2 : 1) * kMinRounds;
    if (enough && seconds_since(start) >= options.seconds) break;
  }

  result.end_to_end["setup_s"] = {*std::min_element(setup_s.begin(), setup_s.end()), "s"};
  result.end_to_end["phase1_per_s"] = {closed_rate(small_rate[0], large_rate[0]), "1/s"};
  result.end_to_end["phase2_per_s"] = {best(open_rate[0]), "1/s"};
  result.end_to_end["peak_rss_mb"] = {median(rss.peaks), "MB"};

  if (options.trace) {
    const auto pick = [&](double Probes::*field) {
      std::vector<double> v;
      for (const Probes& p : probes) v.push_back(p.*field);
      return median(v);
    };
    const double small_share = static_cast<double>(kRoundSteps.small) /
                               static_cast<double>(kRoundSteps.small + kRoundSteps.large);
    const double uniform = pick(&Probes::uniform_draw);
    const double alias = pick(&Probes::alias_draw);
    const double kernel = small_share * pick(&Probes::kernel_small) +
                          (1 - small_share) * pick(&Probes::kernel_large);
    const double draw = small_share * uniform + (1 - small_share) * alias;
    const double engine_ns = 1e9 / closed_rate(small_rate[1], large_rate[1]);
    result.layer("sched.uniform.draw_ns", uniform, "ns");
    result.layer("sched.alias.draw_ns", alias, "ns");
    result.layer("core.kernel.step_ns", kernel, "ns");
    result.layer("core.engine.self_ns", engine_ns - draw - kernel, "ns");
    result.layer("core.open.step_ns", 1e9 / best(open_rate[1]), "ns");
    result.layer("core.open.events_per_kstep",
                 1000.0 * static_cast<double>(first.open_events) /
                     static_cast<double>(first.open_steps),
                 "count");
    result.layer("core.steps_per_op",
                 static_cast<double>(first.closed_steps) /
                     static_cast<double>(first.closed_completions),
                 "count");
    result.layer("core.completion_rate",
                 static_cast<double>(first.closed_completions) /
                     static_cast<double>(first.closed_steps),
                 "1/step");
    result.layer("trace.phase1_overhead",
                 1 - closed_rate(small_rate[1], large_rate[1]) /
                         closed_rate(small_rate[0], large_rate[0]),
                 "share");
    result.layer("trace.phase2_overhead",
                 1 - best(open_rate[1]) /
                         best(open_rate[0]),
                 "share");
  }
  return result;
}

}  // namespace perfbench
