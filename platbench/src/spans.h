// The benchmark's own spans (--trace 1): one record per call into a layer
// of the program, taken from the benchmark's side of the call.
//
// A span has a name, a start and an end, the span that caused it, and the
// request or cycle id it belongs to. Spans are kept in per-thread buffers
// in memory and written out once the run is over; per-layer metrics and
// self times are derived from them afterwards. With tracing off every
// call is a no-op and no clock is read for it.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace platbench {

struct Span {
  const char* name = nullptr;  // string literal
  u64 id = 0;
  u64 parent = 0;  // 0: a root span
  u64 corr = 0;    // request / cycle / round id
  i64 start_ns = 0;
  i64 end_ns = 0;
};

class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  // Reserves an id, so a span can be named as a parent before it ends
  // (a request's children finish on a worker before the request does).
  u64 newId() { return on_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0; }

  void record(u64 id, const char* name, i64 start_ns, i64 end_ns, u64 parent,
              u64 corr);

  // Every span recorded so far, in no particular order.
  std::vector<Span> collect();

 private:
  struct Buffer {
    std::mutex mu;  // the owner appends, collect() reads
    std::vector<Span> spans;
  };
  Buffer& myBuffer();

  bool on_ = false;
  std::atomic<u64> next_id_{1};
  std::mutex mu_;
  std::deque<std::unique_ptr<Buffer>> buffers_;
};

Tracer& tracer();

// Records one span around a scope on the current thread.
class SpanScope {
 public:
  SpanScope(const char* name, u64 parent, u64 corr)
      : name_(name), parent_(parent), corr_(corr) {
    if (tracer().on()) {
      id_ = tracer().newId();
      start_ = nowNs();
    }
  }
  ~SpanScope() {
    if (id_ != 0) tracer().record(id_, name_, start_, nowNs(), parent_, corr_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  u64 id() const { return id_; }

 private:
  const char* name_;
  u64 parent_;
  u64 corr_;
  u64 id_ = 0;
  i64 start_ = 0;
};

// Spans grouped for metric derivation.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans);

  // Durations (ns) of every span called `name` (whose parent is called
  // `parent`, when given).
  std::vector<double> durations(const std::string& name,
                                const std::string& parent = "") const;
  // Self time (ns) of every span called `name`: its duration minus the
  // part of its interval covered by its children.
  std::vector<double> selfTimes(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::unordered_map<u64, size_t> by_id_;
  std::unordered_map<u64, std::vector<size_t>> children_;  // parent id -> indices
};

// Writes the spans as CSV (id,parent,corr,name,start_ns,end_ns; times
// relative to the earliest span). Returns false on I/O failure.
bool writeSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace platbench
