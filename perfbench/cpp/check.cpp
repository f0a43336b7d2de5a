// The `check` workload: the linearizability checker on one thread.
//
// Each round builds the Session pipelines (its set-up), then runs:
//   phase 1 (stock histories)  through check::Session, record and check
//       schedules of every stock simulated workload;
//   phase 2 (one-thread captures)  ticket-clock HwSession captures of
//       every registry structure in both stamp modes on one thread, whose
//       histories depend only on the seed.
// After the timed rounds, once per run:
//   mutants  explore every seeded `mut-*` workload until its first
//       violation, minimize it, and replay the witness strictly (it must
//       still fail);
//   wf-stack probe  one-thread wf-stack captures long enough that the
//       known 128-item defect shows in every one of them;
//   captures at T threads (traced runs only)  sweeps over the registry
//       at T threads.
// How much checking a T-thread capture needs, and whether it fails,
// depends on how the host happened to schedule its threads, and a mutant
// stream's cost on where its first violation falls, so these feed no
// end-to-end metric. A stock history or capture whose verdict disagrees
// with the catalog's expectation is a defect of the program under test:
// its operations count as failed, and the run goes on.
//
// `attempted` and `failed` count each distinct history once: round 0's
// stock histories and one-thread captures (later rounds repeat them, which
// is checked), the mutant streams and the wf-stack probe. All of them
// depend only on the seed, so the counts do too. T-thread captures are
// not counted; their disagreements are the per-layer capture.failed_ops.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "check/hw_capture.hpp"
#include "check/lin_check.hpp"
#include "check/session.hpp"
#include "check/workloads.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace check = pwf::check;

constexpr std::size_t kStockSchedules = 256;    ///< per stock workload, per round
constexpr std::size_t kMutantStreams = 8;       ///< minimized violations per mutant
constexpr std::size_t kCaptureSweeps = 3;  ///< registry sweeps at T threads per traced run
constexpr std::size_t kMaxMutantSchedules = 400;  ///< per stream before giving up
/// Phase-2 captures run on one thread, so a capture's history, and with
/// it the checker's work, depends only on the seed: this many sweeps per
/// round, each capture this many operations.
constexpr std::size_t kSoloCaptureReps = 4;
constexpr std::size_t kSoloCaptureOps = 2000;
/// Operations per thread of one T-thread capture: HwSession's default
/// burst, short enough that one preempted thread rarely stretches the
/// checker's search.
constexpr std::size_t kCaptureOps = 2000;
/// wf-stack's wrapped state holds 128 items and drops pushes beyond that,
/// so its captures are checked against a stack it does not implement. At
/// T x 20000 operations the push/pop walk exceeds 128 items in all but a
/// few per thousand captures (at 4 x 2000, 10-15 of 40 captures failed).
constexpr std::size_t kWfStackCaptureOps = 20000;
/// The probe's one thread does a 50/50 push/pop walk over this many
/// operations. The walk stays below 129 items with probability about
/// (4/pi) exp(-pi^2 n / (8 * 129^2)), 6e-7 at n = 200000, so the defect
/// shows in every probe capture and the failure count repeats exactly.
constexpr std::size_t kWfStackProbeOps = 200000;
/// Node and memo budgets per capture check. A normal capture needs about
/// one node per operation. When a thread is preempted inside a call, its
/// interval spans thousands of others and the search can grow by orders of
/// magnitude (one T x 20000 ms-queue capture took 83 s and 969k nodes
/// unbudgeted); such a capture ends UNKNOWN and is not brought to a
/// verdict. Both budgets are counts, so the verdict does not
/// depend on the host's speed, and they cap the time and memory of one
/// unlucky interleaving.
constexpr std::uint64_t kCaptureNodesPerOp = 2;
constexpr std::uint64_t kCaptureMemoEntries = 1 << 15;
constexpr std::size_t kGoldenSchedules = 8;

bool is_mutant(const check::Workload& w) { return !w.expect_linearizable; }

/// Crash plan like Session::explore's (src/check/session.cpp), which this
/// must track: none on every third schedule, otherwise 1..n-1 victims at
/// seeded times. The benchmark runs its own record/check loop instead of
/// Session::explore because it needs every history's event count and a
/// span around each call, which ExploreResult does not expose.
std::vector<check::CrashEvent> crash_plan(std::size_t i, std::size_t n,
                                          std::uint64_t steps, std::uint64_t seed) {
  std::vector<check::CrashEvent> crashes;
  if (i % 3 == 0 || n < 2) return crashes;
  pwf::Xoshiro256pp rng(mix_seed(seed, 0xC7A5));
  const std::size_t count = 1 + rng.uniform(n - 1);
  std::vector<std::uint32_t> victims(n);
  for (std::size_t p = 0; p < n; ++p) victims[p] = static_cast<std::uint32_t>(p);
  for (std::size_t c = 0; c < count; ++c) {
    std::swap(victims[c], victims[c + rng.uniform(n - c)]);
    crashes.push_back({1 + rng.uniform(steps), victims[c]});
  }
  std::stable_sort(crashes.begin(), crashes.end(),
                   [](const auto& a, const auto& b) { return a.tau < b.tau; });
  return crashes;
}

struct Spans {
  double record_s = 0;
  double partition_s = 0;
  double search_s = 0;
  double minimize_s = 0;
  std::uint64_t parts = 0;
};

/// A stock history that was not LINEARIZABLE.
struct StockFailure {
  std::size_t pipeline;
  std::size_t schedule;
  check::RunOutcome run;
};

/// Stock schedules per timed piece of phase 1 (see SimPhase::slots).
constexpr std::size_t kSlotSchedules = 32;

/// Phase-1 totals for one round.
struct SimPhase {
  /// kSlotSchedules stock schedules of one workload, or one mutant stream.
  Slots slots;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t nodes = 0;
  std::uint64_t witness_events = 0;
  std::uint64_t failed_ops = 0;  ///< operations of stock failures
  std::vector<StockFailure> stock_failures;
  Spans spans;
};

/// One workload's pair of sessions: `recorder` only runs schedules (its
/// one-node budget makes the check inside Session::record a no-op), and
/// `checker` brings every history to a verdict.
struct Pipeline {
  const check::Workload* workload;
  check::Session recorder;
  check::Session checker;

  explicit Pipeline(const check::Workload& w)
      : workload(&w),
        recorder(w, check::CheckOptions{.max_nodes = 1,
                                        .partition = check::PartitionMode::kWhole}),
        checker(w, check::CheckOptions{.shards = 1}) {}
};

/// Checks one recorded history. Untraced rounds call Session::check;
/// traced rounds do the same work (partition per Spec::object_of when the
/// spec is multi-object, then one search per part) with a span on each
/// call.
check::LinResult verdict(const Pipeline& p, const check::History& h, bool traced,
                         Spans& spans) {
  if (!traced) return p.checker.check(h);
  const check::Spec& spec = p.checker.spec();
  std::vector<check::History> parts;
  if (spec.multi_object()) {
    const auto t0 = Clock::now();
    parts = check::partition_history(h, spec);
    spans.partition_s += seconds_since(t0);
  }
  const auto t0 = Clock::now();
  check::LinResult merged;
  if (parts.size() <= 1) {
    merged = check::check_linearizability(h, spec, p.checker.options());
    merged.parts = std::max<std::size_t>(1, parts.size());
  } else {
    merged.verdict = check::LinVerdict::kLinearizable;
    merged.parts = parts.size();
    for (const check::History& part : parts) {
      const check::LinResult r = check::check_linearizability(part, spec, p.checker.options());
      merged.nodes += r.nodes;
      if (r.verdict == check::LinVerdict::kNotLinearizable) {
        merged.verdict = r.verdict;
      } else if (r.verdict == check::LinVerdict::kUnknown &&
                 merged.verdict == check::LinVerdict::kLinearizable) {
        merged.verdict = r.verdict;
      }
    }
  }
  spans.search_s += seconds_since(t0);
  spans.parts += merged.parts;
  return merged;
}

/// Records schedule `i` of a stream and brings it to a verdict.
check::RunOutcome record(const Pipeline& p, std::size_t i, std::uint64_t seed,
                         bool traced, SimPhase& out) {
  const check::Workload& w = *p.workload;
  const auto t0 = Clock::now();
  check::RunOutcome run =
      p.recorder.record(w.default_n, seed, w.default_steps, i,
                        crash_plan(i, w.default_n, w.default_steps, seed));
  out.spans.record_s += seconds_since(t0);
  run.lin = verdict(p, run.history, traced, out.spans);
  out.events += run.history.num_events();
  out.ops += run.history.size();
  out.nodes += run.lin.nodes;
  return run;
}

/// A stock history that is not LINEARIZABLE is a defect in the program,
/// not in the benchmark: like a disagreeing capture, its operations count
/// as failed. Its witness is minimized once per run, outside the timed
/// rounds, and printed to stderr.
void report_stock_failure(const std::vector<Pipeline>& pipelines, const StockFailure& f) {
  const Pipeline& p = pipelines[f.pipeline];
  std::string witness;
  if (f.run.lin.verdict == check::LinVerdict::kNotLinearizable) {
    witness = p.checker.replay(p.checker.minimize(f.run.trace), true).history.render();
  }
  std::fprintf(stderr, "pwf_perfbench: stock workload %s schedule %zu (seed %llu): %s\n%s",
               p.workload->name.c_str(), f.schedule,
               static_cast<unsigned long long>(f.run.trace.seed),
               check::verdict_name(f.run.lin.verdict), witness.c_str());
}

SimPhase run_sim_histories(const std::vector<Pipeline>& pipelines, std::uint64_t seed,
                           std::size_t stock_schedules, std::size_t mutant_streams,
                           bool traced, Result& result) {
  SimPhase out;
  for (std::size_t w = 0; w < pipelines.size(); ++w) {
    const Pipeline& p = pipelines[w];
    const std::string& name = p.workload->name;
    if (!is_mutant(*p.workload)) {
      for (std::size_t first = 0; first < stock_schedules; first += kSlotSchedules) {
        const auto slot_start = Clock::now();
        const std::uint64_t events_before = out.events;
        for (std::size_t i = first; i < std::min(first + kSlotSchedules, stock_schedules); ++i) {
          check::RunOutcome run = record(p, i, mix_seed(seed, w * 100003 + i), traced, out);
          if (run.lin.verdict != check::LinVerdict::kLinearizable) {
            out.failed_ops += run.history.size();
            out.stock_failures.push_back({w, i, std::move(run)});
          }
        }
        out.slots.add(static_cast<double>(out.events - events_before),
                      seconds_since(slot_start));
      }
      continue;
    }
    for (std::size_t stream = 0; stream < mutant_streams; ++stream) {
      const auto slot_start = Clock::now();
      const std::uint64_t events_before = out.events;
      std::optional<check::ScheduleTrace> failing;
      for (std::size_t i = 0; i < kMaxMutantSchedules && !failing; ++i) {
        check::RunOutcome run =
            record(p, i, mix_seed(seed, w * 100003 + stream * 1009 + i), traced, out);
        if (run.lin.verdict == check::LinVerdict::kNotLinearizable) {
          failing = std::move(run.trace);
        }
      }
      if (!failing) {
        result.fail(name + ": no violation in " + std::to_string(kMaxMutantSchedules) +
                    " schedules");
      } else {
        const auto t0 = Clock::now();
        const check::ScheduleTrace witness = p.checker.minimize(*failing);
        const check::RunOutcome replay = p.checker.replay(witness, /*strict=*/true);
        out.spans.minimize_s += seconds_since(t0);
        out.witness_events += replay.history.num_events();
        if (replay.lin.verdict != check::LinVerdict::kNotLinearizable) {
          result.fail(name + ": minimized witness no longer fails on strict replay");
        }
      }
      out.slots.add(static_cast<double>(out.events - events_before),
                    seconds_since(slot_start));
    }
  }
  return out;
}

/// Operations whose interval overlaps an operation of another thread.
/// Each thread has at most one operation open at a time.
std::uint64_t overlapping_ops(const check::History& h) {
  struct Edge {
    std::uint64_t at;
    bool open;
    std::size_t op;
  };
  const auto& ops = h.operations();
  std::vector<Edge> edges;
  edges.reserve(2 * ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // kPending sorts last. Lin-point stamps can put an operation's
    // response stamp below its invoke stamp, so the interval is ordered.
    const auto [lo, hi] = std::minmax(ops[i].invoke, ops[i].response);
    edges.push_back({lo, true, i});
    edges.push_back({hi, false, i});
  }
  // At equal stamps an interval opens before any closes, so an operation
  // whose two stamps are equal still opens before it closes.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.at != b.at ? a.at < b.at : a.open > b.open;
  });
  std::vector<char> overlaps(ops.size(), 0);
  std::vector<std::size_t> open;
  for (const Edge& e : edges) {
    if (e.open) {
      for (const std::size_t other : open) {
        if (ops[other].thread != ops[e.op].thread) overlaps[other] = overlaps[e.op] = 1;
      }
      open.push_back(e.op);
    } else {
      open.erase(std::find(open.begin(), open.end(), e.op));
    }
  }
  return static_cast<std::uint64_t>(std::count(overlaps.begin(), overlaps.end(), 1));
}

/// Capture totals for one round.
struct CapturePhase {
  /// One piece per capture; a capture that ended UNKNOWN was not brought
  /// to a verdict and counts no events.
  Slots slots;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  double run_s = 0;
  double check_s = 0;
  std::uint64_t nodes = 0;
  std::uint64_t overlapping = 0;
};

check::HwOptions capture_options(std::size_t threads, std::size_t ops,
                                 std::uint64_t seed, check::StampMode stamp,
                                 check::ClockMode clock) {
  check::HwOptions o;
  o.threads = threads;
  o.ops_per_thread = ops;
  o.seed = seed;
  o.stamp = stamp;
  o.clock = clock;
  // The known defect's witness is already known (see WORKLOADS.md); the
  // minimizer would add up to 64 budgeted checks per failing capture.
  o.minimize_witness = false;
  return o;
}

/// `reps` sweeps over the registry in both stamp modes at `threads`
/// threads, `ops` operations per thread (`wf_stack_ops` for wf-stack,
/// which is captured once per mode).
CapturePhase run_captures(std::size_t threads, std::size_t ops, std::size_t wf_stack_ops,
                          std::size_t reps, std::uint64_t seed, bool traced) {
  CapturePhase out;
  std::size_t index = 0;
  const auto& registry = check::HwSession::registry();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < registry.size(); ++k) {
      const bool wf_stack = registry[k].name == "wf-stack";
      if (wf_stack && rep > 0) continue;
      const std::size_t n = wf_stack ? wf_stack_ops : ops;
      for (const check::StampMode stamp :
           {check::StampMode::kCallBoundary, check::StampMode::kLinPoint}) {
        check::CheckOptions budget;
        budget.memo_budget = kCaptureMemoEntries;
        budget.max_nodes = kCaptureNodesPerOp * threads * n;
        const auto start = Clock::now();
        const check::HwResult r =
            check::HwSession(registry[k].name,
                             capture_options(threads, n, mix_seed(seed, index++), stamp,
                                             check::ClockMode::kTicket),
                             budget)
                .run();
        const bool verdict = r.lin.verdict != check::LinVerdict::kUnknown;
        out.slots.add(verdict ? static_cast<double>(r.history.num_events()) : 0.0,
                      seconds_since(start));
        out.ops += r.history.size();
        if (!r.as_expected()) out.failed_ops += r.history.size();
        if (traced) {
          out.run_s += r.capture_ms / 1000;
          out.check_s += r.check_ms / 1000;
          out.nodes += r.lin.nodes;
          out.overlapping += overlapping_ops(r.history);
        }
      }
    }
  }
  return out;
}

/// The known wf-stack defect, once per run: one-thread captures in both
/// stamp modes. On one thread the history depends only on the seed.
CapturePhase run_wf_stack_probe(std::uint64_t seed) {
  CapturePhase out;
  std::size_t index = 0;
  for (const check::StampMode stamp :
       {check::StampMode::kCallBoundary, check::StampMode::kLinPoint}) {
    check::CheckOptions budget;
    budget.memo_budget = kCaptureMemoEntries;
    budget.max_nodes = kCaptureNodesPerOp * kWfStackProbeOps;
    const check::HwResult r =
        check::HwSession("wf-stack",
                         capture_options(1, kWfStackProbeOps, mix_seed(seed, index++), stamp,
                                         check::ClockMode::kTicket),
                         budget)
            .run();
    out.ops += r.history.size();
    if (!r.as_expected()) out.failed_ops += r.history.size();
  }
  return out;
}

/// TSC-clock cells (traced runs only: ε depends on the host). Counts
/// consecutive operations of one thread whose ε-widened intervals
/// overlap, which program order forbids.
void run_tsc_cells(std::size_t threads, std::uint64_t seed, Result& result) {
  double epsilon = 0;
  std::uint64_t same_thread = 0, nodes = 0;
  std::size_t index = 0;
  for (const check::HwStructure& s : check::HwSession::registry()) {
    check::CheckOptions budget;
    budget.memo_budget = kCaptureMemoEntries;
    budget.max_nodes = kCaptureNodesPerOp * threads * 2000;
    const check::HwResult r =
        check::HwSession(s.name,
                         capture_options(threads, 2000, mix_seed(seed, 500 + index++),
                                         check::StampMode::kLinPoint,
                                         check::ClockMode::kTsc),
                         budget)
            .run();
    epsilon = std::max(epsilon, static_cast<double>(r.calibration.epsilon));
    nodes += r.lin.nodes;
    std::vector<std::optional<check::Operation>> last(threads);
    for (const check::Operation& op : r.history.operations()) {
      if (op.thread >= threads) continue;
      auto& prev = last[op.thread];
      if (prev && prev->response > op.invoke) ++same_thread;
      prev = op;
    }
  }
  result.layer("capture.tsc.epsilon_ticks", epsilon, "ticks");
  result.layer("capture.tsc.same_thread_overlaps", static_cast<double>(same_thread), "count");
  result.layer("capture.tsc.nodes", static_cast<double>(nodes), "count");
}

std::vector<Pipeline> build_pipelines() {
  std::vector<Pipeline> pipelines;
  for (const check::Workload& w : check::workloads()) pipelines.emplace_back(w);
  return pipelines;
}

}  // namespace

Result run_check(const Options& options) {
  Result result;
  declare_per_layer(result);
  const std::size_t threads = options.threads;

  // Fixed-seed references (expected.json): simulated histories are
  // deterministic, so their checker node counts and witness sizes are too.
  {
    const std::vector<Pipeline> pipelines = build_pipelines();
    const SimPhase g = run_sim_histories(pipelines, 1, kGoldenSchedules, 1, false, result);
    result.golden["nodes"] = std::to_string(g.nodes);
    result.golden["events"] = std::to_string(g.events);
    result.golden["witness_events"] = std::to_string(g.witness_events);
  }

  // Per round: set-up (fresh Session pipelines and a short pass through
  // them), then the two timed phases.
  std::vector<Pipeline> pipelines;
  std::vector<double> setup_s;
  std::vector<SimPhase> stock[2];  // [traced]
  std::vector<CapturePhase> solos[2];
  std::optional<SimPhase> first_stock;
  std::vector<double> first_solo;
  RssRounds rss;
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    pipelines.clear();
    rss.start();
    setup_s.push_back(timed_setup([&] {
      pipelines = build_pipelines();
      Result warm;  // the timed pass repeats these schedules and checks
      run_sim_histories(pipelines, options.seed, 2 * kSlotSchedules, 0, false, warm);
    }));
    SimPhase s = run_sim_histories(pipelines, options.seed, kStockSchedules, 0, traced,
                                   result);
    const CapturePhase solo = run_captures(1, kSoloCaptureOps, kSoloCaptureOps,
                                           kSoloCaptureReps, mix_seed(options.seed, 5000),
                                           false);
    rss.stop();
    // Every round repeats the same histories; they are counted once.
    if (!first_stock) {
      first_stock = s;
      first_solo = solo.slots.events;
      result.attempted += s.ops + solo.ops;
      result.failed += s.failed_ops + solo.failed_ops;
    } else if (s.nodes != first_stock->nodes || s.events != first_stock->events ||
               s.failed_ops != first_stock->failed_ops || solo.slots.events != first_solo) {
      result.fail("check round " + std::to_string(round) +
                  " explored different histories than round 0 at the same seed");
    }
    s.stock_failures.clear();  // round 0's are reported below
    stock[traced].push_back(std::move(s));
    solos[traced].push_back(solo);
    const bool enough = round + 1 >= (options.trace ? 2 : 1) * kMinRounds;
    if (enough && seconds_since(start) >= options.seconds) break;
  }
  for (const StockFailure& f : first_stock->stock_failures) {
    report_stock_failure(pipelines, f);
  }

  result.end_to_end["setup_s"] = {*std::min_element(setup_s.begin(), setup_s.end()), "s"};
  result.end_to_end["phase1_per_s"] = {slot_rate(stock[0], &SimPhase::slots), "1/s"};
  result.end_to_end["phase2_per_s"] = {slot_rate(solos[0], &CapturePhase::slots), "1/s"};
  result.end_to_end["peak_rss_mb"] = {median(rss.peaks), "MB"};

  // Untimed: the mutants, the wf-stack probe and, in traced runs, the
  // captures at T threads (seeds change from sweep to sweep, so a run
  // covers several interleavings of each structure).
  const SimPhase mutants =
      run_sim_histories(pipelines, options.seed, 0, kMutantStreams, options.trace, result);
  result.attempted += mutants.ops;
  const CapturePhase probe = run_wf_stack_probe(mix_seed(options.seed, 6000));
  result.attempted += probe.ops;
  result.failed += probe.failed_ops;
  std::vector<CapturePhase> captures;
  for (std::size_t sweep = 0; options.trace && sweep < kCaptureSweeps; ++sweep) {
    captures.push_back(run_captures(threads, kCaptureOps, kWfStackCaptureOps, 1,
                                    mix_seed(options.seed, sweep), true));
  }

  if (options.trace) {
    const auto med_sim = [&](auto&& get) {
      std::vector<double> v;
      for (const SimPhase& s : stock[1]) v.push_back(get(s));
      return median(v);
    };
    const auto med_cap = [&](auto&& get) {
      std::vector<double> v;
      for (const CapturePhase& c : captures) v.push_back(get(c));
      return median(v);
    };
    const std::uint64_t nodes = first_stock->nodes;
    const std::uint64_t events = first_stock->events;
    result.layer("core.record_s", med_sim([](const SimPhase& s) { return s.spans.record_s; }), "s");
    result.layer("check.partition_s",
                 med_sim([](const SimPhase& s) { return s.spans.partition_s; }), "s");
    result.layer("check.parts", static_cast<double>(stock[1][0].spans.parts), "count");
    result.layer("check.search_s", med_sim([](const SimPhase& s) { return s.spans.search_s; }), "s");
    result.layer("check.nodes", static_cast<double>(nodes), "count");
    result.layer("check.nodes_per_event",
                 static_cast<double>(nodes) / static_cast<double>(events), "count");
    result.layer("check.minimize_s", mutants.spans.minimize_s, "s");
    result.layer("check.witness_events", static_cast<double>(mutants.witness_events),
                 "count");
    result.layer("capture.events_per_s", slot_rate(captures, &CapturePhase::slots), "1/s");
    result.layer("capture.run_s", med_cap([](const CapturePhase& c) { return c.run_s; }), "s");
    result.layer("capture.check_s", med_cap([](const CapturePhase& c) { return c.check_s; }), "s");
    result.layer("capture.nodes",
                 med_cap([](const CapturePhase& c) { return static_cast<double>(c.nodes); }),
                 "count");
    result.layer("capture.overlap_share", med_cap([](const CapturePhase& c) {
                   return static_cast<double>(c.overlapping) / static_cast<double>(c.ops);
                 }),
                 "share");
    result.layer("capture.failed_ops", med_cap([](const CapturePhase& c) {
                   return static_cast<double>(c.failed_ops);
                 }),
                 "count");
    result.layer("trace.phase1_overhead",
                 1 - slot_rate(stock[1], &SimPhase::slots) /
                         slot_rate(stock[0], &SimPhase::slots),
                 "share");
    result.layer("trace.phase2_overhead",
                 1 - slot_rate(solos[1], &CapturePhase::slots) /
                         slot_rate(solos[0], &CapturePhase::slots),
                 "share");
    run_tsc_cells(threads, options.seed, result);
  }
  return result;
}

}  // namespace perfbench
