// serve: requests from the client bundle to four server bundles on the
// mutator pool. Each request is a payload the generator builds in the
// client's isolate; a pool worker receives it into the server's isolate
// with transferGraph and runs the server's guest handler over it, which
// returns a checksum the generator already computed in C++.
//
// Two loops, both on the generator (the main thread):
//  * open loop -- requests are due at a fixed rate (kOfferedRate) whatever
//    the replies do; latency runs from the *scheduled* send time, so a
//    generator that wakes late charges its lateness to the requests;
//  * closed loop -- at most kClosedWindow requests in flight; a reply lets
//    the next request go. Completed requests per second is the saturated
//    rate.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "phases.h"
#include "runtime/mutator_pool.h"
#include "spans.h"
#include "support/strf.h"

namespace platbench {

using namespace ijvm;

namespace {

// The request the checker tests break, when asked to.
constexpr u64 kInjectedRequest = 7;

enum class ReqState : int { Pending = 0, Replied = 1, Failed = 2 };

struct Request {
  u64 idx = 0;
  u64 span = 0;  // serve.request span id, 0 with tracing off
  int server = 0;
  bool graph = false;
  i32 expected = 0;
  GlobalRef* ref = nullptr;  // roots the payload until a worker takes it
  const char* span_name = nullptr;  // serve.request or serve.closed_request
  i64 due_ns = 0;
  i64 submit_ns = 0;
  // Written by the worker that serves the request, published by `state`.
  i32 reply = 0;
  std::string error;  // why there is no reply value, when there is none
  i64 done_ns = 0;
  TransferStats stats;
  std::atomic<int> state{0};
};

i32 fold(i32 h, i32 x) {
  return static_cast<i32>(static_cast<u32>(h) * 31u + static_cast<u32>(x));
}

// java.lang.String.hashCode over the (ASCII) characters.
i32 stringHash(const std::string& s) {
  i32 h = 0;
  for (char c : s) h = fold(h, static_cast<unsigned char>(c));
  return h;
}

class Serving {
 public:
  Serving(Platform& p, u64 seed, Report& report)
      : p_(p), vm_(*p.vm), pool_(p.vm->mutatorPool()), seed_(seed), report_(report) {
    for (size_t k = 0; k < p.servers.size(); ++k) {
      handler_cls_.push_back(strf("srv%zu/Handler", k));
    }
    method_slot_ = p.req_cls->findField("method")->slot;
    seq_slot_ = p.req_cls->findField("seq")->slot;
  }

  // Builds request `idx` and hands it to the pool. `due_ns` is when it was
  // scheduled to be sent.
  void send(i64 due_ns, const char* span_name);

  void openLoop(double seconds, ServeResult& out);
  void closedLoop(double seconds, ServeResult& out);
  // Sends `n` requests with the closed loop's window and waits for them.
  void burst(int n);

  // Drains the pool and checks every reply against the generator's
  // checksum; adds each request's transfer counters to `out`.
  void finish(ServeResult& out);

 private:
  Object* buildPayload(Request& req, Rng& rng, LocalRootScope& roots);
  void serve(JThread* jt, Request& req);
  void waitForWindow();

  Platform& p_;
  VM& vm_;
  MutatorPool& pool_;
  const u64 seed_;
  Report& report_;
  std::vector<std::string> handler_cls_;
  i32 method_slot_ = 0, seq_slot_ = 0;

  std::deque<Request> requests_;  // appended by the generator only
  std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;  // guarded by mu_
  std::atomic<u64> completed_{0};
};

// The payload, drawn per request (kinds 1:1, an assumed split that gives
// each transfer path half of the requests):
//  * an int[256] of random ints -- the 1 KiB request of the repository's
//    serving benchmark (bench/serve.cpp); donation-eligible, so it takes
//    the donation path;
//  * a platbench/Request record with a random seq and a fresh method name
//    of three letters, the shape and name length of the copying request
//    path's message (src/comm/comm.cpp sends comm/Request "inc") -- the
//    record takes the copy path, its string is donated.
constexpr i32 kArrayLen = 256;
constexpr size_t kMethodLen = 3;

Object* Serving::buildPayload(Request& req, Rng& rng, LocalRootScope& roots) {
  JThread* gen = p_.gen;
  if (!req.graph) {
    Object* arr = nullptr;
    {
      SpanScope alloc("heap.alloc", req.span, req.idx);
      arr = vm_.allocArrayObject(gen, p_.int_array_cls, kArrayLen);
    }
    if (arr == nullptr) return nullptr;
    roots.add(arr);
    i32 h = 0;
    for (i32 k = 0; k < kArrayLen; ++k) {
      const i32 x = static_cast<i32>(rng.next());
      arr->intElems()[k] = x;
      h = fold(h, x);
    }
    req.expected = h;
    return arr;
  }
  const i32 seq = static_cast<i32>(rng.next());
  std::string method(kMethodLen, 'a');
  for (char& c : method) c = static_cast<char>('a' + rng.next() % 26);
  req.expected = fold(fold(0, seq), stringHash(method));
  Object* msg = vm_.allocObject(gen, p_.req_cls);
  if (msg == nullptr) return nullptr;
  roots.add(msg);
  msg->fields()[seq_slot_] = Value::ofInt(seq);
  Object* name = vm_.newStringObject(gen, method);
  if (name == nullptr) return nullptr;
  msg->fields()[method_slot_] = Value::ofRef(name);
  return msg;
}

void Serving::send(i64 due_ns, const char* span_name) {
  // The payload depends on the seed and the request's position in this
  // call only, never on how many requests earlier calls managed to send.
  Rng rng(seed_ * 0x100000001b3ull + requests_.size());
  Request& req = requests_.emplace_back();
  const u64 idx = req.idx = p_.next_request++;
  req.due_ns = due_ns;
  req.span = tracer().newId();
  req.span_name = span_name;
  req.server = static_cast<int>(rng.next() % p_.servers.size());
  req.graph = rng.next() % 2 == 1;
  report_.attempt();
  {
    SpanScope build("gen.build", req.span, idx);
    LocalRootScope roots(p_.gen);
    RunningScope running(vm_, p_.gen);
    if (Object* root = buildPayload(req, rng, roots)) {
      req.ref = vm_.addGlobalRef(root, p_.client->isolate());
    }
  }
  if (req.ref == nullptr) {
    report_.fail(strf("request %llu: payload allocation failed: %s",
                      static_cast<unsigned long long>(idx),
                      vm_.pendingMessage(p_.gen).c_str()));
    vm_.clearPending(p_.gen);
    req.state.store(static_cast<int>(ReqState::Failed));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  req.submit_ns = nowNs();
  pool_.submit([this, &req](JThread* jt) { serve(jt, req); },
               p_.servers[static_cast<size_t>(req.server)]->isolate());
}

void Serving::serve(JThread* jt, Request& req) {
  Tracer& tr = tracer();
  const i64 start = nowNs();
  tr.record(tr.newId(), "pool.queue", req.submit_ns, start, req.span, req.idx);
  Bundle* srv = p_.servers[static_cast<size_t>(req.server)];
  // The request is received into the server's isolate: the worker runs on
  // the server's behalf from here until the reply.
  Isolate* const home = jt->current_isolate.load();
  jt->current_isolate.store(srv->isolate());
  ReqState state = ReqState::Failed;
  {
    LocalRootScope roots(jt);
    Object* got = nullptr;
    {
      RunningScope running(vm_, jt);
      got = transferGraph(vm_, jt, p_.client->isolate(), req.ref->obj, &req.stats);
      if (got != nullptr) roots.add(got);
      vm_.removeGlobalRef(req.ref);
    }
    const i64 received = nowNs();
    tr.record(tr.newId(), req.stats.objects_copied == 0 ? "comm.donate" : "comm.copy",
              start, received, req.span, req.idx);
    if (got != nullptr) {
      // The checker self-test hands one handler a null request, which the
      // guest code dereferences.
      Object* arg =
          g_inject == Inject::ThrowHandler && req.idx == kInjectedRequest ? nullptr : got;
      SpanScope handler("exec.handler", req.span, req.idx);
      Value r = vm_.callStaticIn(
          jt, srv->loader(), handler_cls_[static_cast<size_t>(req.server)],
          req.graph ? "request" : "ints",
          req.graph ? "(Lplatbench/Request;)I" : "([I)I", {Value::ofRef(arg)});
      if (jt->pending_exception == nullptr) {
        req.reply = r.asInt();
        state = ReqState::Replied;
      }
    }
    if (jt->pending_exception != nullptr) {
      req.error = vm_.pendingMessage(jt);
      vm_.clearPending(jt);
    }
  }
  jt->current_isolate.store(home);
  if (g_inject == Inject::CorruptReply && req.idx == kInjectedRequest) req.reply ^= 1;
  req.done_ns = nowNs();
  tr.record(req.span, req.span_name, req.due_ns, req.done_ns, 0, req.idx);
  if (!(g_inject == Inject::LoseReply && req.idx == kInjectedRequest)) {
    req.state.store(static_cast<int>(state), std::memory_order_release);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

void Serving::openLoop(double seconds, ServeResult& out) {
  const i64 period = static_cast<i64>(1e9 / kOfferedRate);
  const u64 n = static_cast<u64>(seconds * kOfferedRate + 0.5);
  const size_t first = requests_.size();
  const i64 t0 = nowNs() + 1'000'000;
  for (u64 i = 0; i < n; ++i) {
    const i64 due = t0 + static_cast<i64>(i) * period;
    i64 now = nowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = nowNs();
    }
    out.late_ms.push_back(nsToMs(now - due));
    send(due, "serve.request");
  }
  pool_.drain();
  std::vector<double> latency;
  for (size_t i = first; i < requests_.size(); ++i) {
    const Request& req = requests_[i];
    if (req.state.load(std::memory_order_acquire) == static_cast<int>(ReqState::Replied)) {
      latency.push_back(nsToMs(req.done_ns - req.due_ns));
    }
  }
  out.p50_ms.push_back(median(latency));
  out.latency_ms.insert(out.latency_ms.end(), latency.begin(), latency.end());
}

void Serving::waitForWindow() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return inflight_ < kClosedWindow; });
}

void Serving::closedLoop(double seconds, ServeResult& out) {
  const i64 start = nowNs();
  const i64 end = start + static_cast<i64>(seconds * 1e9);
  const u64 before = completed_.load();
  while (nowNs() < end) {
    waitForWindow();
    send(nowNs(), "serve.closed_request");
  }
  const double elapsed_s = static_cast<double>(nowNs() - start) / 1e9;
  out.closed_rps.push_back(static_cast<double>(completed_.load() - before) / elapsed_s);
  pool_.drain();
}

void Serving::burst(int n) {
  for (int i = 0; i < n; ++i) {
    waitForWindow();
    send(nowNs(), "serve.closed_request");
  }
  pool_.drain();
}

void Serving::finish(ServeResult& out) {
  pool_.drain();
  for (const Request& req : requests_) {
    const auto state = static_cast<ReqState>(req.state.load(std::memory_order_acquire));
    const auto idx = static_cast<unsigned long long>(req.idx);
    if (state == ReqState::Pending) {
      report_.violation(strf("request %llu: no reply", idx));
      report_.fail(strf("request %llu: lost", idx));
    } else if (state == ReqState::Failed) {
      if (req.ref != nullptr) {
        report_.fail(strf("request %llu: no reply value: %s", idx,
                          req.error.empty() ? "transferGraph returned null"
                                            : req.error.c_str()));
      }
    } else if (req.reply != req.expected) {
      report_.violation(strf("request %llu: reply %d, expected %d", idx, req.reply,
                             req.expected));
    }
    out.bytes_donated += req.stats.bytes_donated;
    out.bytes_copied += req.stats.bytes_copied;
  }
}

}  // namespace

void runServe(Platform& p, Rng& rng, double open_s, double closed_s,
              ServeResult& out, Report& report) {
  Serving serving(p, rng.next(), report);
  const u64 steals0 = p.vm->mutatorPool().steals();
  if (open_s > 0) serving.openLoop(open_s, out);
  if (closed_s > 0) serving.closedLoop(closed_s, out);
  serving.finish(out);
  out.steals += p.vm->mutatorPool().steals() - steals0;
}

void warmServe(Platform& p, Rng& rng, int requests, Report& report) {
  Serving serving(p, rng.next(), report);
  ServeResult ignored;
  serving.burst(requests);
  serving.finish(ignored);
}

}  // namespace platbench
