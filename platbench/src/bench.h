// Shared pieces of the platform benchmark: the clock, sample statistics,
// the run report (metrics, operation counts, output checks) and the
// counted-running bracket the benchmark needs to touch guest objects from
// host threads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "runtime/vm.h"

namespace platbench {

using ijvm::i32;
using ijvm::i64;
using ijvm::u32;
using ijvm::u64;

inline i64 nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double nsToMs(i64 ns) { return static_cast<double>(ns) / 1e6; }

// Nearest-rank quantile of `v` (sorted in place); q in [0, 1].
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// Small deterministic generator (splitmix64): every input the benchmark
// builds derives from --seed through one of these.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 next() {
    u64 z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  u64 s_;
};

// Which check of the benchmark to break on purpose (checker self-test).
enum class Inject {
  None,
  CorruptReply,
  LoseReply,
  ThrowHandler,
  LeaveHostile,
  CorruptSpec
};

// What one run measured and whether the program's outputs were right.
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
  };

  void attempt(u64 n = 1) { attempted_ += n; }
  // An operation that raised an error instead of producing a result. No
  // operation of these workloads is expected to fail, so one that does
  // makes the run incorrect as well as counted.
  void fail(const std::string& what) {
    ++failed_;
    correct_ = false;
    note(what);
  }
  // A check on the program's output did not hold.
  void violation(const std::string& what) {
    correct_ = false;
    note(what);
  }

  void endToEnd(const std::string& name, double value, const char* unit) {
    e2e_[name] = Metric{value, unit};
  }
  void perLayer(const std::string& name, double value, const char* unit) {
    layer_[name] = Metric{value, unit};
  }

  bool correct() const { return correct_; }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  const std::map<std::string, Metric>& endToEnd() const { return e2e_; }
  const std::map<std::string, Metric>& perLayer() const { return layer_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void note(const std::string& what) {
    // The first few are enough to diagnose; a broken run can produce one
    // per request.
    if (problems_.size() < 20) problems_.push_back(what);
  }

  bool correct_ = true;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> problems_;
};

// Makes an attached host thread count as a Running guest for the duration
// of the scope, exactly as VM::invoke does around a guest call. Host code
// that allocates guest objects, or receives a transferGraph copy, from a
// thread that sits Blocked between guest calls is otherwise not parked by
// another thread's stop-the-world: a collection could sweep the fresh
// object before the host code roots it. Inside the scope a collection
// waits for the scope to end, and one the scope itself triggers treats
// the thread as the requester. Nothing inside may block on another
// guest thread.
//
// A workaround, not the supported pattern: the serializer documents
// transferGraph from a Blocked thread as safe, and this bracket hides the
// window where it is not (CHANGES.md). It also makes every other thread's
// stop-the-world wait for the payload build and the transfer. Remove it
// once the serializer roots its copies itself.
class RunningScope {
 public:
  RunningScope(ijvm::VM& vm, ijvm::JThread* t) : vm_(vm), t_(t) {
    vm_.safepoints().exitBlocked(t_);
    t_->state.store(ijvm::ThreadState::Running, std::memory_order_release);
  }
  ~RunningScope() {
    t_->state.store(ijvm::ThreadState::Blocked, std::memory_order_release);
    vm_.safepoints().enterBlocked(t_);
  }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;

 private:
  ijvm::VM& vm_;
  ijvm::JThread* t_;
};

}  // namespace platbench
