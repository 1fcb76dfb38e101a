// spec: the seven SPEC JVM98 analogs, each in its own bundle isolate, run
// at default_size by one guest thread (the framework's admin thread
// migrating into each bundle) in a seeded order per round.
#include "phases.h"
#include "spans.h"

namespace platbench {

using namespace ijvm;

const char* specSpanName(size_t analog) {
  static const char* const kNames[] = {
      "spec.compress", "spec.jess", "spec.db",  "spec.javac",
      "spec.mpegaudio", "spec.mtrt", "spec.jack"};
  return analog < std::size(kNames) ? kNames[analog] : "spec.other";
}

void runSpec(Platform& p, Rng& rng, int rounds, SpecResult& out, Report& report) {
  JThread* t = p.vm->mainThread();
  std::vector<size_t> order(p.spec.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next() % i]);
    }
    SpanScope round_span("spec.round", 0, static_cast<u64>(round));
    for (size_t a : order) {
      const SpecWorkload& wl = p.spec[a];
      Isolate* iso = p.spec_bundles[a]->isolate();
      const IsolateReport before = p.vm->reportFor(iso);
      report.attempt();
      i32 sum = 0;
      const i64 t0 = nowNs();
      {
        SpanScope span(specSpanName(a), round_span.id(), static_cast<u64>(round));
        // Panics (ending the run without a result) on a guest exception.
        sum = runSpecWorkload(*p.vm, t, p.spec_bundles[a]->loader(), wl,
                              wl.default_size);
      }
      out.ms[a].push_back(nsToMs(nowNs() - t0));
      if (g_inject == Inject::CorruptSpec && a == 0 && out.runs[a] == 0) sum ^= 1;
      out.sums[a].push_back(sum);
      const IsolateReport after = p.vm->reportFor(iso);
      out.invocations[a] += after.method_invocations - before.method_invocations;
      out.back_edges[a] += after.loop_back_edges - before.loop_back_edges;
      ++out.runs[a];
    }
  }
}

}  // namespace platbench
