// Shared plumbing for the benchmark driver: timing, medians, the metric
// table every workload fills in, and the result the driver prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (all threads), seconds.
double process_cpu_seconds();

/// Peak resident set size since the last reset_peak_rss(), MiB.
double peak_rss_mb();

/// Starts a new peak-RSS window: returns freed heap pages to the OS
/// (malloc_trim), so a round's peak does not include what an earlier round
/// freed, and resets VmHWM through /proc/self/clear_refs. Without it,
/// peak_rss_mb() is the process peak.
void reset_peak_rss();

/// Peak RSS per round, and their median: a capture whose check search
/// blows up in one round raises that round's peak only.
struct RssRounds {
  std::vector<double> peaks;
  void start() { reset_peak_rss(); }
  void stop() { peaks.push_back(peak_rss_mb()); }
};

double median(std::vector<double> values);

/// The q-quantile of `values` (linear interpolation between order
/// statistics, as numpy's default); q = 0.5 is the median.
double quantile(std::vector<double> values, double q);

/// How timings become rates. A fixed piece of single-threaded work (a
/// simulation chunk, a set of stock schedules, a one-thread capture) can
/// only be slowed down by the host, never sped up, so `sim` and `check`
/// report its best time over many repetitions. On a shared host their
/// speed jumps by tens of percent while neighbours come and go, and how
/// often the host runs them at full speed changes from minute to minute;
/// a median follows that, the best time much less. A window of the native
/// structures has no fixed content (its interleaving, and for the skip
/// list the placement of its nodes, differs every time), so `native`
/// reports the median of its window rates instead.

/// Splitmix64 finalizer: derives independent sub-seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a accumulator for trajectory fingerprints.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 4;  ///< T = min(nproc, 4)
};

/// Metric name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run returns. The end-to-end and per-layer tables
/// are filled by every workload; values a workload does not load stay 0.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Fixed-seed reference values, compared by run.py against
  /// expected.json (empty for workloads without stored references).
  std::map<std::string, std::string> golden;
  std::vector<std::string> errors;  ///< failed output checks, for stderr

  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// The timed pieces of work of one round. Every round runs the same
/// pieces in the same order, so rounds compare piece by piece.
struct Slots {
  std::vector<double> events;
  std::vector<double> seconds;
  void add(double e, double s) {
    events.push_back(e);
    seconds.push_back(s);
  }
};

/// Events per second over a run's rounds: each piece counts its median
/// events and its best (shortest) time.
double slot_rate(const std::vector<const Slots*>& rounds);

template <typename Round>
double slot_rate(const std::vector<Round>& rounds, Slots Round::*slots) {
  std::vector<const Slots*> all;
  for (const Round& r : rounds) all.push_back(&(r.*slots));
  return slot_rate(all);
}

/// Set-up time per round: every round starts by building the workload's
/// inputs from scratch and warming them, so setup_s has one sample per
/// round, spread over the whole run. `sim` and `check` set up on one
/// thread with fixed work, which the host can only slow down, so like
/// their phases they report the shortest set-up; `native` sets up with T
/// threads and reports the median.
template <typename Build>
double timed_setup(Build&& build) {
  const auto start = Clock::now();
  build();
  return seconds_since(start);
}

/// Rounds every run makes at least, whatever --seconds says.
constexpr std::size_t kMinRounds = 5;

Result run_sim(const Options& options);
Result run_check(const Options& options);
Result run_native(const Options& options);

/// Every metric name the benchmark declares; each workload reports all of
/// them (zeros for layers it does not load).
void declare_per_layer(Result& result);

}  // namespace perfbench
