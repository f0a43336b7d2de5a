// The `native` workload: T closed-loop threads on the hardware structures
// (lockfree + mem + waitfree), each window started by a StartLatch and
// stopped by a flag after a fixed wall time (or as soon as one worker's
// output buffer is full).
//
//   phase 1 (update)  one window each: Treiber stack push/pop pairs,
//                     MS queue enqueue/dequeue pairs, the CAS counter and
//                     the WaitFreeObject fetch-inc wrapper (mem::Epoch),
//                     and the Treiber stack under mem::HazardEra.
//   phase 2 (read)    four windows of a prefilled lock-free skip list
//                     running a 90/9/1 contains/insert/erase mix.
//
// Every window's outputs are checked for conservation: counter values
// form a permutation of 0..N-1, every pushed or enqueued value comes out
// exactly once, the queue keeps per-producer FIFO order, and per skip-list
// key, successful inserts minus successful erases match the final
// contains.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "lockfree/counter.hpp"
#include "lockfree/ebr.hpp"
#include "lockfree/ms_queue.hpp"
#include "lockfree/skiplist_lockfree.hpp"
#include "lockfree/treiber_stack.hpp"
#include "mem/epoch.hpp"
#include "mem/hazard_era.hpp"
#include "util/latch.hpp"
#include "util/quantile.hpp"
#include "util/rng.hpp"
#include "waitfree/object.hpp"

namespace perfbench {
namespace {

using pwf::Xoshiro256pp;
using Value = std::uint64_t;

constexpr double kWindowSeconds = 0.4;
constexpr double kWarmSeconds = 0.02;
constexpr int kReadWindows = 4;  ///< per round; the update phase has five
constexpr std::size_t kBufferEntries = 1 << 22;  ///< per thread, per window
constexpr std::size_t kKeys = 1 << 10;  ///< skip-list key space: ~128 KB of nodes
constexpr double kPrefill = 0.9;  ///< stationary fill of a 9%/1% insert/erase mix
// Outputs are stored as 32-bit values: counter values stay below 2^32 in a
// window, and a pushed value is (thread << 30 | sequence) with T <= 4.
using Out = std::uint32_t;
constexpr int kSeqBits = 30;
constexpr Out kSeqMask = (Out{1} << kSeqBits) - 1;
constexpr Out kEmpty = ~Out{0};

using Queue = pwf::lockfree::MsQueue<Value>;
using WfCounter = pwf::waitfree::WaitFreeObject<pwf::waitfree::CounterState>;
using SkipList = pwf::lockfree::LockFreeSkipListMap<Value, Value>;

/// One worker's state for one window.
struct Worker {
  std::vector<Out> out;  ///< popped / fetched values, preallocated
  std::size_t used = 0;
  std::uint64_t ops = 0;
  std::uint64_t cas = 0;
  pwf::waitfree::HelpStats help;
  pwf::QuantileSketch latency;
  std::vector<std::int32_t> key_delta;  ///< read phase: inserts - erases

  bool full() const { return used == out.size(); }
  void reset() {
    used = 0;
    ops = 0;
    cas = 0;
    help = {};
    latency = pwf::QuantileSketch();
  }
};

struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t cas = 0;
  double rate() const { return static_cast<double>(ops) / wall_s; }
};

template <bool Traced, typename F>
inline auto timed(Worker& w, F&& f) {
  if constexpr (Traced) {
    const auto t0 = Clock::now();
    auto r = f();
    w.latency.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    return r;
  } else {
    return f();
  }
}

/// Ends a window: the main thread when the window's time is up, or the
/// first worker whose output buffer is full. The window's wall time runs
/// to the first request.
class Stop {
 public:
  void begin(Clock::time_point start) { start_.store(start.time_since_epoch().count()); }
  bool requested() const { return flag_.load(std::memory_order_relaxed); }
  void request() {
    const Clock::rep now = Clock::now().time_since_epoch().count() - start_.load();
    Clock::rep none = -1;
    elapsed_.compare_exchange_strong(none, now);
    flag_.store(true);
  }
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::duration(elapsed_.load())).count();
  }

 private:
  std::atomic<Clock::rep> start_{0};
  std::atomic<bool> flag_{false};
  std::atomic<Clock::rep> elapsed_{-1};
};

/// The benchmark's own thread driver: spawns one thread per worker, lets
/// each set up (thread handles) before a StartLatch releases all of them
/// together with the timer, and stops them after `seconds` (or earlier,
/// see Stop). `body(tid, worker, stop, arrive)` must call arrive()
/// exactly once.
template <typename Body>
Window run_window(std::vector<Worker>& workers, double seconds, Body&& body) {
  const std::size_t threads = workers.size();
  for (Worker& w : workers) w.reset();
  Stop stop;
  pwf::util::StartLatch latch(threads + 1);
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      bool arrived = false;
      const auto arrive = [&] {
        arrived = true;
        latch.arrive_and_wait();
      };
      try {
        body(t, workers[t], stop, arrive);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        error = std::current_exception();
        stop.request();
      }
      if (!arrived) latch.arrive_and_wait();
    });
  }
  latch.arrive_and_wait();
  const auto start = Clock::now();
  stop.begin(start);
  Window win;
  const double cpu_start = process_cpu_seconds();
  while (!stop.requested() && seconds_since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.request();
  // Workers finish at most the operation in flight; thread-handle teardown
  // after that is not part of the window.
  win.wall_s = stop.elapsed_s();
  win.cpu_s = process_cpu_seconds() - cpu_start;
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  for (const Worker& w : workers) {
    win.ops += w.ops;
    win.cas += w.cas;
  }
  return win;
}

/// Runs `op` until stopped; `op` returns false when the worker's output
/// buffer is full, which ends the window for every worker.
template <typename Op>
inline void loop_until(Stop& stop, Op&& op) {
  while (!stop.requested()) {
    if (!op()) {
      stop.request();
      return;
    }
  }
}

// --- conservation checks ----------------------------------------------------

/// Fetched values of all workers form a permutation of 0..N-1, and each
/// worker's own values strictly increase.
bool is_permutation_of_range(const std::vector<Worker>& workers) {
  std::size_t total = 0;
  for (const Worker& w : workers) total += w.used;
  std::vector<bool> seen(total, false);
  for (const Worker& w : workers) {
    for (std::size_t i = 0; i < w.used; ++i) {
      const Out v = w.out[i];
      if (v >= total || seen[v]) return false;
      if (i > 0 && v <= w.out[i - 1]) return false;
      seen[v] = true;
    }
  }
  return true;
}

/// Pair workloads: worker t pushed seq 0..used_t-1 tagged with t and
/// recorded what each paired pop returned. Every pushed value must come
/// out exactly once (popped in the window or drained after it); with
/// `fifo`, each consumer sees each producer's values in push order and
/// the drain holds only values younger than any dequeued one.
bool pairs_conserved(const std::vector<Worker>& workers,
                     const std::vector<Out>& drained, bool fifo) {
  const std::size_t threads = workers.size();
  std::vector<std::vector<bool>> seen(threads);
  for (std::size_t t = 0; t < threads; ++t) seen[t].assign(workers[t].used, false);
  std::vector<Out> newest_dequeued(threads, 0);
  std::vector<bool> any_dequeued(threads, false);
  const auto mark = [&](Out v) {
    if (v == kEmpty) return false;
    const std::size_t producer = v >> kSeqBits;
    const Out seq = v & kSeqMask;
    if (producer >= threads || seq >= seen[producer].size() || seen[producer][seq]) {
      return false;
    }
    seen[producer][seq] = true;
    return true;
  };
  for (const Worker& w : workers) {
    std::vector<std::optional<Out>> last(threads);
    for (std::size_t i = 0; i < w.used; ++i) {
      const Out v = w.out[i];
      if (!mark(v)) return false;
      const std::size_t producer = v >> kSeqBits;
      const Out seq = v & kSeqMask;
      if (fifo) {
        if (last[producer] && seq <= *last[producer]) return false;
        last[producer] = seq;
        newest_dequeued[producer] = std::max(newest_dequeued[producer], seq);
        any_dequeued[producer] = true;
      }
    }
  }
  std::vector<std::optional<Out>> last_drained(threads);
  for (const Out v : drained) {
    if (!mark(v)) return false;
    const std::size_t producer = v >> kSeqBits;
    const Out seq = v & kSeqMask;
    if (fifo) {
      if (last_drained[producer] && seq <= *last_drained[producer]) return false;
      if (any_dequeued[producer] && seq <= newest_dequeued[producer]) return false;
      last_drained[producer] = seq;
    }
  }
  for (const std::vector<bool>& s : seen) {
    if (std::find(s.begin(), s.end(), false) != s.end()) return false;
  }
  return true;
}

// --- the structures' window bodies ------------------------------------------

struct Inputs {
  std::vector<Worker> workers;
  std::unique_ptr<pwf::lockfree::EbrDomain> list_domain;
  std::unique_ptr<SkipList> list;
  std::vector<std::uint8_t> present;  ///< skip-list membership after last check
};

struct UpdateOutcome {
  Window window;
  bool ok = true;
  std::size_t peak_retired = 0;
  pwf::waitfree::HelpStats help;
};

template <typename Mem, bool Traced>
UpdateOutcome stack_window(std::vector<Worker>& workers, double seconds) {
  typename Mem::Domain domain;
  pwf::lockfree::TreiberStack<Value, pwf::lockfree::NoStamp, Mem> stack(domain);
  UpdateOutcome u;
  u.window = run_window(workers, seconds, [&](std::size_t t, Worker& w,
                                              Stop& stop,
                                              auto&& arrive) {
    typename Mem::ThreadHandle handle(domain);
    arrive();
    Out seq = 0;
    loop_until(stop, [&] {
      const Out v = static_cast<Out>(t << kSeqBits) | seq++;
      w.cas += timed<Traced>(w, [&] { return stack.push(handle, v); });
      const auto [popped, attempts] =
          timed<Traced>(w, [&] { return stack.pop_counted(handle); });
      w.cas += attempts;
      w.out[w.used++] = static_cast<Out>(popped.value_or(kEmpty));
      w.ops += 2;
      return !w.full();
    });
  });
  std::vector<Out> drained;
  {
    typename Mem::ThreadHandle handle(domain);
    while (const auto v = stack.pop(handle)) drained.push_back(static_cast<Out>(*v));
  }
  u.ok = pairs_conserved(workers, drained, false);
  u.peak_retired = domain.peak_retired_bytes();
  return u;
}

template <bool Traced>
UpdateOutcome queue_window(std::vector<Worker>& workers, double seconds) {
  pwf::lockfree::EbrDomain domain;
  Queue queue(domain);
  UpdateOutcome u;
  u.window = run_window(workers, seconds, [&](std::size_t t, Worker& w,
                                              Stop& stop,
                                              auto&& arrive) {
    pwf::lockfree::EbrThreadHandle handle(domain);
    arrive();
    Out seq = 0;
    loop_until(stop, [&] {
      const Out v = static_cast<Out>(t << kSeqBits) | seq++;
      w.cas += timed<Traced>(w, [&] { return queue.enqueue(handle, v); });
      const auto [out, attempts] =
          timed<Traced>(w, [&] { return queue.dequeue_counted(handle); });
      w.cas += attempts;
      w.out[w.used++] = static_cast<Out>(out.value_or(kEmpty));
      w.ops += 2;
      return !w.full();
    });
  });
  std::vector<Out> drained;
  {
    pwf::lockfree::EbrThreadHandle handle(domain);
    while (const auto v = queue.dequeue(handle)) drained.push_back(static_cast<Out>(*v));
  }
  u.ok = pairs_conserved(workers, drained, true);
  u.peak_retired = domain.peak_retired_bytes();
  return u;
}

template <bool Traced>
UpdateOutcome cas_counter_window(std::vector<Worker>& workers, double seconds) {
  pwf::lockfree::CasCounter counter;
  UpdateOutcome u;
  u.window = run_window(workers, seconds, [&](std::size_t, Worker& w,
                                              Stop& stop,
                                              auto&& arrive) {
    arrive();
    loop_until(stop, [&] {
      const pwf::lockfree::OpCost c = timed<Traced>(w, [&] { return counter.fetch_inc(); });
      w.cas += c.steps - 1;  // steps = the initial load + every CAS attempt
      w.out[w.used++] = static_cast<Out>(c.value);
      ++w.ops;
      return !w.full();
    });
  });
  u.ok = is_permutation_of_range(workers) && counter.load() == u.window.ops;
  return u;
}

template <bool Traced>
UpdateOutcome wf_counter_window(std::vector<Worker>& workers, double seconds) {
  pwf::lockfree::EbrDomain domain;
  WfCounter object(domain, pwf::waitfree::CounterState{});
  UpdateOutcome u;
  u.window = run_window(workers, seconds, [&](std::size_t, Worker& w,
                                              Stop& stop,
                                              auto&& arrive) {
    pwf::lockfree::EbrThreadHandle handle(domain);
    WfCounter::Thread thread(object, handle);
    arrive();
    loop_until(stop, [&] {
      w.out[w.used++] = static_cast<Out>(timed<Traced>(w, [&] {
        return object.apply(thread, pwf::waitfree::counter_fetch_inc, 0);
      }));
      ++w.ops;
      return !w.full();
    });
    w.help = thread.stats();
  });
  u.ok = is_permutation_of_range(workers);
  for (const Worker& w : workers) u.help += w.help;
  u.peak_retired = domain.peak_retired_bytes();
  return u;
}

template <bool Traced>
Window read_window(Inputs& in, double seconds, std::uint64_t seed) {
  return run_window(in.workers, seconds, [&](std::size_t t, Worker& w,
                                             Stop& stop,
                                             auto&& arrive) {
    pwf::lockfree::EbrThreadHandle handle(*in.list_domain);
    Xoshiro256pp rng(mix_seed(seed, t));
    arrive();
    loop_until(stop, [&] {
      const Value key = rng.uniform(kKeys);
      const std::uint64_t roll = rng.uniform(100);
      timed<Traced>(w, [&] {
        if (roll < 90) return in.list->contains(handle, key);
        if (roll < 99) {
          const bool inserted = in.list->insert(handle, key, key);
          w.key_delta[key] += inserted;
          return inserted;
        }
        const bool erased = in.list->erase(handle, key);
        w.key_delta[key] -= erased;
        return erased;
      });
      ++w.ops;
      return true;
    });
  });
}

/// Per key: membership before + inserts - erases == contains now.
bool skiplist_conserved(Inputs& in) {
  pwf::lockfree::EbrThreadHandle handle(*in.list_domain);
  bool ok = true;
  for (std::size_t k = 0; k < kKeys; ++k) {
    std::int64_t expect = in.present[k];
    for (Worker& w : in.workers) {
      expect += w.key_delta[k];
      w.key_delta[k] = 0;
    }
    const bool now = in.list->contains(handle, k);
    if (expect != static_cast<std::int64_t>(now)) ok = false;
    in.present[k] = now;
  }
  return ok;
}

/// A new skip list (and reclamation domain), prefilled from `seed`. Every
/// read window gets its own: how fast the read mix runs depends on where
/// the allocator placed the nodes, and one list per window samples that
/// placement as often as the windows sample the host.
void fresh_list(Inputs& in, std::uint64_t seed) {
  in.list.reset();
  in.list_domain = std::make_unique<pwf::lockfree::EbrDomain>();
  in.list = std::make_unique<SkipList>(*in.list_domain);
  in.present.assign(kKeys, 0);
  Xoshiro256pp rng(mix_seed(seed, 7));
  pwf::lockfree::EbrThreadHandle handle(*in.list_domain);
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (rng.uniform_double() < kPrefill) {
      in.present[k] = in.list->insert(handle, k, k);
    }
  }
}

std::unique_ptr<Inputs> build_inputs(std::size_t threads) {
  auto in = std::make_unique<Inputs>();
  in->workers.resize(threads);
  for (Worker& w : in->workers) {
    w.out.assign(kBufferEntries, 0);  // touched now, not inside a window
    w.key_delta.assign(kKeys, 0);
  }
  return in;
}

struct Round {
  double rate[5] = {};  ///< window rates: treiber, msqueue, cas, wf, hazard
  std::vector<double> read_rates;  ///< one per read window
  double cas_per_op[3] = {};
  double overlap = 0;
  std::size_t peak_retired = 0;  ///< over the mem::Epoch domains
  pwf::waitfree::HelpStats help;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  pwf::QuantileSketch update_latency;
  pwf::QuantileSketch read_latency;
};

template <bool Traced>
Round run_round(Inputs& in, double update_s, double read_s, std::uint64_t seed,
                std::uint64_t list_seed, Result& result) {
  Round r;
  std::vector<double> overlaps;
  const auto account = [&](const UpdateOutcome& u, int slot, const char* name) {
    r.rate[slot] = u.window.rate();
    r.ops += u.window.ops;
    overlaps.push_back(u.window.cpu_s / u.window.wall_s);
    if (!u.ok) {
      result.fail(std::string(name) + ": conservation check failed");
      r.failed_ops += u.window.ops;
    }
    if (slot < 3) {
      r.cas_per_op[slot] = static_cast<double>(u.window.cas) /
                           static_cast<double>(u.window.ops);
    }
    if constexpr (Traced) {
      for (const Worker& w : in.workers) r.update_latency.merge(w.latency);
    }
  };
  const UpdateOutcome treiber = stack_window<pwf::mem::Epoch, Traced>(in.workers, update_s);
  account(treiber, 0, "treiber");
  const UpdateOutcome msqueue = queue_window<Traced>(in.workers, update_s);
  account(msqueue, 1, "msqueue");
  account(cas_counter_window<Traced>(in.workers, update_s), 2, "cas_counter");
  const UpdateOutcome wf = wf_counter_window<Traced>(in.workers, update_s);
  account(wf, 3, "wf_counter");
  r.help = wf.help;
  r.peak_retired = std::max({treiber.peak_retired, msqueue.peak_retired, wf.peak_retired});
  account(stack_window<pwf::mem::HazardEra, Traced>(in.workers, update_s), 4, "hazard_treiber");

  for (int i = 0; i < kReadWindows; ++i) {
    fresh_list(in, list_seed);
    const Window w = read_window<Traced>(in, read_s, mix_seed(seed, 1000 + i));
    r.ops += w.ops;
    r.read_rates.push_back(w.rate());
    overlaps.push_back(w.cpu_s / w.wall_s);
    if constexpr (Traced) {
      for (const Worker& wk : in.workers) r.read_latency.merge(wk.latency);
    }
    if (!skiplist_conserved(in)) {
      result.fail("skiplist: per-key insert/erase balance does not match contains");
      r.failed_ops += w.ops;
    }
  }
  r.overlap = median(overlaps);
  return r;
}

}  // namespace

Result run_native(const Options& options) {
  Result result;
  declare_per_layer(result);
  const std::size_t threads = options.threads;

  // Per round: set-up (fresh inputs, one short window per structure),
  // then the timed windows.
  std::unique_ptr<Inputs> inputs;
  std::vector<double> setup_s;
  std::vector<Round> rounds[2];  // [traced]
  RssRounds rss;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const std::uint64_t seed = mix_seed(options.seed, 10 + i);
    inputs.reset();
    rss.start();
    setup_s.push_back(timed_setup([&] {
      inputs = build_inputs(threads);
      Result warm;
      run_round<false>(*inputs, kWarmSeconds, kWarmSeconds, options.seed, options.seed,
                       warm);
      for (const std::string& e : warm.errors) result.fail(e);
    }));
    Round r = traced
                  ? run_round<true>(*inputs, kWindowSeconds, kWindowSeconds, seed,
                                    options.seed, result)
                  : run_round<false>(*inputs, kWindowSeconds, kWindowSeconds, seed,
                                     options.seed, result);
    rss.stop();
    result.attempted += r.ops;
    result.failed += r.failed_ops;
    rounds[traced].push_back(std::move(r));
    const bool enough = i + 1 >= (options.trace ? 2 : 1) * kMinRounds;
    if (enough && seconds_since(start) >= options.seconds) break;
  }

  const auto med = [](const std::vector<Round>& rs, auto&& get) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(get(r));
    return median(v);
  };
  // A structure's rate is the median of its window rates; the update
  // phase is the geometric mean over the five structures.
  const auto structure_rate = [](const std::vector<Round>& rs, int slot) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(r.rate[slot]);
    return median(v);
  };
  const auto update_rate = [&](const std::vector<Round>& rs) {
    double log_sum = 0;
    for (int slot = 0; slot < 5; ++slot) log_sum += std::log(structure_rate(rs, slot));
    return std::exp(log_sum / 5);
  };
  const auto read_rate = [](const std::vector<Round>& rs) {
    std::vector<double> v;
    for (const Round& r : rs) v.insert(v.end(), r.read_rates.begin(), r.read_rates.end());
    return median(v);
  };
  const std::vector<Round>& plain = rounds[0];
  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["phase1_per_s"] = {update_rate(plain), "1/s"};
  result.end_to_end["phase2_per_s"] = {read_rate(plain), "1/s"};
  result.end_to_end["peak_rss_mb"] = {median(rss.peaks), "MB"};

  if (options.trace) {
    const char* names[3] = {"treiber", "msqueue", "cas_counter"};
    for (int s = 0; s < 3; ++s) {
      result.layer(std::string("lockfree.") + names[s] + ".ops_per_s",
                   structure_rate(plain, s), "1/s");
      result.layer(std::string("lockfree.") + names[s] + ".cas_per_op",
                   med(plain, [s](const Round& r) { return r.cas_per_op[s]; }),
                   "count");
    }
    result.layer("lockfree.skiplist.ops_per_s", read_rate(plain), "1/s");
    result.layer("waitfree.ops_per_s", structure_rate(plain, 3), "1/s");
    result.layer("waitfree.slow_per_mop",
                 med(plain, [](const Round& r) { return r.help.slow_per_mop(); }),
                 "count");
    result.layer("waitfree.helps_given",
                 med(plain, [](const Round& r) {
                   return static_cast<double>(r.help.helps_given);
                 }),
                 "count");
    result.layer("waitfree.fast_retries_per_op",
                 med(plain, [](const Round& r) {
                   return static_cast<double>(r.help.fast_retries) /
                          static_cast<double>(std::max<std::uint64_t>(1, r.help.ops));
                 }),
                 "count");
    result.layer("mem.hazard.treiber.ops_per_s", structure_rate(plain, 4), "1/s");
    result.layer("mem.epoch.peak_retired_bytes",
                 med(plain, [](const Round& r) {
                   return static_cast<double>(r.peak_retired);
                 }),
                 "bytes");
    result.layer("native.overlap",
                 med(plain, [](const Round& r) { return r.overlap; }), "threads");
    pwf::QuantileSketch update, read;
    for (const Round& r : rounds[1]) {
      update.merge(r.update_latency);
      read.merge(r.read_latency);
    }
    result.layer("native.update.op_p50_ns", static_cast<double>(update.quantile(0.5)), "ns");
    result.layer("native.update.op_p999_ns", static_cast<double>(update.quantile(0.999)), "ns");
    result.layer("native.read.op_p50_ns", static_cast<double>(read.quantile(0.5)), "ns");
    result.layer("native.read.op_p999_ns", static_cast<double>(read.quantile(0.999)), "ns");
    result.layer("trace.phase1_overhead", 1 - update_rate(rounds[1]) / update_rate(plain),
                 "share");
    result.layer("trace.phase2_overhead", 1 - read_rate(rounds[1]) / read_rate(plain),
                 "share");
  }
  return result;
}

}  // namespace perfbench
