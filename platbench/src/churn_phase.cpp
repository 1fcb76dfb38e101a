// churn: OSGi lifecycle cycles with a hostile bundle killed in each.
//
// One cycle, all from the framework's admin thread:
//   1. install and start a Counter provider and a client that binds it
//      through the service registry;
//   2. kCallsPerCycle inter-isolate calls through the client (each one
//      migrates the thread into the provider and back);
//   3. install and start a hostile bundle -- rotating through the A6 CPU
//      hog, the A4 allocation churner and the A3 memory hog -- and wait
//      until its attack thread is executing;
//   4. kill it (Framework::killBundle) and wait until its threads are gone;
//   5. check the surviving provider still answers, then uninstall the pair.
#include <thread>
#include <utility>

#include "phases.h"
#include "spans.h"
#include "support/strf.h"
#include "workloads/bundles.h"

namespace platbench {

using namespace ijvm;

namespace {

constexpr i64 kWaitTimeoutNs = 2'000'000'000;
// A3 retention per hog: 32 chunks of 16 Ki ints (the kill lands long
// before it is all grabbed; the hog sleeps 1 ms per chunk).
constexpr i32 kHogChunkInts = 16 * 1024;
constexpr i32 kHogChunks = 32;

BundleDescriptor hostileBundle(int cycle, const std::string& name) {
  switch (cycle % 3) {
    case 0:
      return makeCpuHogBundle(name);
    case 1:
      return makeChurnBundle(name);
    default:
      return makeMemoryHogBundle(name, kHogChunkInts, kHogChunks);
  }
}

// The guest thread the hostile bundle's activator spawned, once it runs
// guest code; nullptr on timeout.
JThread* waitForAttack(VM& vm, Isolate* hostile) {
  const i64 deadline = nowNs() + kWaitTimeoutNs;
  while (nowNs() < deadline) {
    for (JThread* t : vm.threadsSnapshot()) {
      if (t->creator_isolate == hostile && t->hasFrames()) return t;
    }
    std::this_thread::yield();
  }
  return nullptr;
}

// Waits until the killed bundle has no live thread left and its attack
// thread has finished; false on timeout.
bool waitUnwound(VM& vm, Isolate* hostile, JThread* attack, i64 timeout_ns) {
  const i64 deadline = nowNs() + timeout_ns;
  while (nowNs() < deadline) {
    if (vm.reportFor(hostile).live_threads == 0 && attack->isDone()) return true;
    std::this_thread::yield();
  }
  return false;
}

// Runs one cycle, recording in `report` what went wrong.
void cycle(Platform& p, int c, ChurnResult& out, Report& report) {
  VM& vm = *p.vm;
  Framework& fw = *p.fw;
  JThread* admin = fw.adminThread();
  const u64 corr = static_cast<u64>(c);
  const i64 t_cycle = nowNs();
  SpanScope cycle_span("churn.cycle", 0, corr);
  const u64 parent = cycle_span.id();
  auto fail = [&](const std::string& what) {
    report.fail(strf("cycle %d: %s", c, what.c_str()));
  };

  const std::string svc = strf("churn.svc%d", c);
  Bundle* provider = nullptr;
  Bundle* client = nullptr;
  {
    SpanScope s("osgi.install", parent, corr);
    provider = fw.install(makeCounterProvider(strf("churn.p%d", c), svc));
  }
  {
    SpanScope s("osgi.install", parent, corr);
    client = fw.install(makeCounterClient(strf("churn.c%d", c), svc));
  }
  for (Bundle* b : {provider, client}) {
    SpanScope s("osgi.start", parent, corr);
    if (!fw.start(b)) return fail("start timed out: " + b->symbolicName());
  }

  const std::string client_cls = bundlePkg(client->symbolicName()) + "/Client";
  i32 calls = 0;
  {
    SpanScope s("osgi.call", parent, corr);
    calls = vm.callStaticIn(admin, client->loader(), client_cls, "callMany", "(I)I",
                            {Value::ofInt(kCallsPerCycle)})
                .asInt();
  }
  if (admin->pending_exception != nullptr) {
    const std::string msg = vm.pendingMessage(admin);
    vm.clearPending(admin);
    return fail("callMany raised " + msg);
  }
  if (calls != kCallsPerCycle) {
    report.violation(strf("cycle %d: callMany(%d) returned %d", c, kCallsPerCycle, calls));
  }

  Bundle* hostile = nullptr;
  JThread* attack = nullptr;
  {
    SpanScope s("osgi.install", parent, corr);
    hostile = fw.install(hostileBundle(c, strf("churn.h%d", c)));
  }
  {
    SpanScope s("osgi.start", parent, corr);
    if (!fw.start(hostile)) return fail("hostile start timed out");
  }
  {
    SpanScope s("hostile.wait", parent, corr);
    attack = waitForAttack(vm, hostile->isolate());
  }
  if (attack == nullptr) return fail("hostile thread never ran");

  const i64 t_kill = nowNs();
  bool unwound = false;
  // The checker self-test skips the run's first kill, so the hostile's
  // thread is still alive when the check looks.
  static bool kill_skipped = false;
  const bool skip_kill =
      g_inject == Inject::LeaveHostile && !std::exchange(kill_skipped, true);
  if (!skip_kill) {
    SpanScope s("runtime.terminate", parent, corr);
    fw.killBundle(hostile);
  }
  {
    SpanScope s("runtime.unwind", parent, corr);
    // Without a kill the wait can only time out; keep that short, since
    // the hostile thread running on is what the test is about.
    unwound = waitUnwound(vm, hostile->isolate(), attack,
                          skip_kill ? kWaitTimeoutNs / 40 : kWaitTimeoutNs);
  }
  const i64 t_gone = nowNs();
  if (!unwound) {
    report.violation(strf("cycle %d: hostile thread still alive %.0f ms after the kill",
                          c, nsToMs(t_gone - t_kill)));
  }
  // Kill it now after all: with a CPU hog left running, the platform
  // aborts on a corrupted malloc heap within a few cycles (CHANGES.md),
  // before the run could report the failed check.
  if (skip_kill) fw.killBundle(hostile);

  i32 after = 0;
  {
    SpanScope s("osgi.check", parent, corr);
    after = vm.callStaticIn(admin, client->loader(), client_cls, "callOnce", "()I", {})
                .asInt();
  }
  if (admin->pending_exception != nullptr) {
    const std::string msg = vm.pendingMessage(admin);
    vm.clearPending(admin);
    report.violation(strf("cycle %d: provider stopped answering: %s", c, msg.c_str()));
  } else if (after != kCallsPerCycle + 1) {
    report.violation(strf("cycle %d: provider answered %d, expected %d", c, after,
                          kCallsPerCycle + 1));
  }

  for (Bundle* b : {client, provider}) {
    SpanScope s("osgi.uninstall", parent, corr);
    fw.uninstall(b);
  }
  // Each uninstall ends with a collection, after the hostile's threads
  // were gone: nothing may still be charged to it.
  const u64 charged = vm.reportFor(hostile->isolate()).bytes_charged;
  if (unwound && charged != 0) {
    report.violation(strf("cycle %d: killed bundle still charged %llu bytes", c,
                          static_cast<unsigned long long>(charged)));
  }
  out.kill_ms.push_back(nsToMs(t_gone - t_kill));
  out.cycle_ms.push_back(nsToMs(nowNs() - t_cycle));
}

}  // namespace

void runChurn(Platform& p, int cycles, i64 period_ns, ChurnResult& out,
              Report& report) {
  const i64 t0 = nowNs();
  for (int i = 0; i < cycles; ++i) {
    const i64 due = t0 + static_cast<i64>(i) * period_ns;
    if (const i64 now = nowNs(); now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    report.attempt();
    cycle(p, p.next_cycle++, out, report);
  }
}

}  // namespace platbench
