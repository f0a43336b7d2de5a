// pwf_perfbench: the repository benchmark driver.
//
//   pwf_perfbench --workload sim|check|native --seed N --seconds S --trace 0|1
//
// Prints a host block, the fixed-seed reference values (when the workload
// has any) and, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end table, with --trace 1 the
// per-layer table. perfbench/run.py builds this binary and compares the
// reference values against perfbench/expected.json.
#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/latch.hpp"
#include "util/tsc.hpp"

#ifndef PWF_PERFBENCH_COMPILER
#define PWF_PERFBENCH_COMPILER "unknown"
#endif
#ifndef PWF_PERFBENCH_BUILD_TYPE
#define PWF_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double slot_rate(const std::vector<const Slots*>& rounds) {
  double events = 0, seconds = 0;
  for (std::size_t i = 0; i < rounds.front()->seconds.size(); ++i) {
    std::vector<double> e, t;
    for (const Slots* r : rounds) {
      e.push_back(r->events[i]);
      t.push_back(r->seconds[i]);
    }
    events += median(e);
    seconds += *std::min_element(t.begin(), t.end());
  }
  return events / seconds;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void declare_per_layer(Result& r) {
  // sim: core + sched
  r.layer("sched.uniform.draw_ns", 0, "ns");
  r.layer("sched.alias.draw_ns", 0, "ns");
  r.layer("core.kernel.step_ns", 0, "ns");
  r.layer("core.engine.self_ns", 0, "ns");
  r.layer("core.open.step_ns", 0, "ns");
  r.layer("core.open.events_per_kstep", 0, "count");
  r.layer("core.steps_per_op", 0, "count");
  r.layer("core.completion_rate", 0, "1/step");
  // check
  r.layer("core.record_s", 0, "s");
  r.layer("check.partition_s", 0, "s");
  r.layer("check.parts", 0, "count");
  r.layer("check.search_s", 0, "s");
  r.layer("check.nodes", 0, "count");
  r.layer("check.nodes_per_event", 0, "count");
  r.layer("check.minimize_s", 0, "s");
  r.layer("check.witness_events", 0, "count");
  r.layer("capture.run_s", 0, "s");
  r.layer("capture.check_s", 0, "s");
  r.layer("capture.nodes", 0, "count");
  r.layer("capture.overlap_share", 0, "share");
  r.layer("capture.failed_ops", 0, "count");
  r.layer("capture.events_per_s", 0, "1/s");
  r.layer("capture.tsc.epsilon_ticks", 0, "ticks");
  r.layer("capture.tsc.same_thread_overlaps", 0, "count");
  r.layer("capture.tsc.nodes", 0, "count");
  // native: lockfree + mem + waitfree
  for (const char* s : {"treiber", "msqueue", "cas_counter"}) {
    r.layer(std::string("lockfree.") + s + ".ops_per_s", 0, "1/s");
    r.layer(std::string("lockfree.") + s + ".cas_per_op", 0, "count");
  }
  r.layer("lockfree.skiplist.ops_per_s", 0, "1/s");
  r.layer("waitfree.ops_per_s", 0, "1/s");
  r.layer("waitfree.slow_per_mop", 0, "count");
  r.layer("waitfree.helps_given", 0, "count");
  r.layer("waitfree.fast_retries_per_op", 0, "count");
  r.layer("mem.hazard.treiber.ops_per_s", 0, "1/s");
  r.layer("mem.epoch.peak_retired_bytes", 0, "bytes");
  r.layer("native.update.op_p50_ns", 0, "ns");
  r.layer("native.update.op_p999_ns", 0, "ns");
  r.layer("native.read.op_p50_ns", 0, "ns");
  r.layer("native.read.op_p999_ns", 0, "ns");
  r.layer("native.overlap", 0, "threads");
  // every workload: tracing cost, traced rounds against untraced ones
  r.layer("trace.phase1_overhead", 0, "share");
  r.layer("trace.phase2_overhead", 0, "share");
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pwf_perfbench: " << why
            << "\nusage: pwf_perfbench --workload sim|check|native --seed N"
               " --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

/// Effective parallelism of this host: T threads spinning on the same
/// fixed work against one thread alone (T x t1 / tT). An advertised vCPU
/// count can overstate what a shared host delivers.
double effective_parallelism(std::size_t threads) {
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 30'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto solo_start = Clock::now();
  spin();
  const double solo = seconds_since(solo_start);

  pwf::util::StartLatch latch(threads + 1);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      latch.arrive_and_wait();
      spin();
    });
  }
  latch.arrive_and_wait();
  const auto all_start = Clock::now();
  for (std::thread& th : pool) th.join();
  const double all = seconds_since(all_start);
  return all > 0 ? static_cast<double>(threads) * solo / all : 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options = parse(argc, argv);
  const std::size_t nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  options.threads = std::min<std::size_t>(nproc, 4);

  {
    std::ostringstream host;
    host << "{\"host\": {\"nproc\": " << nproc
         << ", \"available_cpus\": " << pwf::util::available_cpus()
         << ", \"threads\": " << options.threads
         << ", \"effective_parallelism\": "
         << json_number(effective_parallelism(options.threads))
         << ", \"tsc_source\": "
         << json_string(pwf::util::tsc_source_name(pwf::util::tsc_source()))
         << ", \"tsc_invariant\": "
         << (pwf::util::invariant_tsc() ? "true" : "false")
         << ", \"compiler\": " << json_string(PWF_PERFBENCH_COMPILER)
         << ", \"build_type\": " << json_string(PWF_PERFBENCH_BUILD_TYPE)
         << "}}";
    std::cout << host.str() << std::endl;
  }

  Result result;
  try {
    if (options.workload == "sim") {
      result = run_sim(options);
    } else if (options.workload == "check") {
      result = run_check(options);
    } else if (options.workload == "native") {
      result = run_native(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "pwf_perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const std::string& e : result.errors) {
    std::cerr << "pwf_perfbench: output check failed: " << e << "\n";
  }
  if (!result.golden.empty()) {
    std::cout << "{\"golden\": {\"" << options.workload << "\": {";
    bool first = true;
    for (const auto& [k, v] : result.golden) {
      std::cout << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
      first = false;
    }
    std::cout << "}}}" << std::endl;
  }

  const auto& table = options.trace ? result.per_layer : result.end_to_end;
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : table) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(metric.value)
              << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
