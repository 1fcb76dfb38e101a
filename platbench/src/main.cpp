// platbench: the platform benchmark of I-JVM.
//
//   platbench --workload spec|serve|churn --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--inject corrupt-reply|lose-reply|
//                                      throw-handler|leave-hostile|
//                                      corrupt-spec]
//
// Every run boots the platform on the shipped defaults, installs the
// bundles of all three phases and warms them up until the compile queue is
// idle (setup_s). The workload then picks the phase that gets the run's
// --seconds; the other two run a short fixed slice once per second, so
// every run reports every metric. Afterwards the run checks the program's
// outputs against references computed independently of the code under
// test:
//  * spec   -- compress and db against the C++ reference implementations,
//              the other five against the same analog run fresh on the
//              classic interpreter in shared mode (after the run);
//  * serve  -- every reply against the checksum the generator computed in
//              C++ from the payload it built;
//  * churn  -- callMany's count, the killed bundle's threads and charge,
//              the surviving provider's answer;
//  * charge conservation -- after the final collection the bytes charged
//              to all isolates add up to the heap's live bytes.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from the benchmark's spans (--trace 1). --out-dir receives the
// run's full report and, when tracing, its spans. --inject breaks one
// check on purpose (test_checkers.py).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "exec/compile_manager.h"
#include "phases.h"
#include "runtime/mutator_pool.h"
#include "spans.h"
#include "stdlib/system_library.h"
#include "support/strf.h"

namespace platbench {

Inject g_inject = Inject::None;

namespace {

using namespace ijvm;

// Work of the warm-up (part of setup; a fixed amount of work, nothing
// paced by a timer, so setup_s moves with the platform's speed), and of
// the slice that each of the two phases a workload does not pick runs once
// per round.
constexpr int kWarmSpecRounds = 3;
constexpr int kWarmServeRequests = 250;
constexpr int kWarmChurnCycles = 3;
constexpr int kSliceSpecRounds = 1;
constexpr double kSliceServeOpenS = 0.2;
constexpr double kSliceServeClosedS = 0.05;
constexpr int kSliceChurnCycles = 3;  // one of each hostile bundle
// The spec and churn main phases do a fixed amount of work, spread evenly
// over --seconds: every churn cycle leaks, and so does every mtrt run's
// pair of threads (CHANGES.md). A count that followed the host's speed
// would make peak_rss_mib follow it too.
constexpr int kMainSpecRoundsPerRound = 10;
constexpr int kMainChurnCycles = 150;
// serve as the main phase: this share of each round is open loop, the
// rest closed loop.
constexpr double kMainServeOpenShare = 0.7;

constexpr i64 kCompileIdleTimeoutMs = 60'000;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = v == "spec" || v == "serve" || v == "churn";
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      if (!(a.seconds > 0 && a.seconds <= 120)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--inject") {
      if (v == "corrupt-reply") g_inject = Inject::CorruptReply;
      else if (v == "lose-reply") g_inject = Inject::LoseReply;
      else if (v == "throw-handler") g_inject = Inject::ThrowHandler;
      else if (v == "leave-hostile") g_inject = Inject::LeaveHostile;
      else if (v == "corrupt-spec") g_inject = Inject::CorruptSpec;
      else return false;
    } else {
      return false;
    }
  }
  return have_workload;
}

double peakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Runs each analog other than compress and db on a fresh VM in shared mode
// on the classic interpreter, and compares every checksum the run saw with
// it (compress and db: with the C++ references).
void checkSpec(const std::vector<SpecWorkload>& spec, const SpecResult& seen,
               Report& report) {
  for (size_t a = 0; a < spec.size(); ++a) {
    const SpecWorkload& wl = spec[a];
    i32 expected = 0;
    if (wl.name == "compress") {
      expected = referenceCompress(wl.default_size);
    } else if (wl.name == "db") {
      expected = referenceDb(wl.default_size);
    } else {
      VmOptions opts = VmOptions::shared();
      opts.exec_engine = ExecEngine::Classic;
      VM vm(opts);
      installSystemLibrary(vm);
      ClassLoader* loader = vm.registry().newLoader("oracle");
      vm.createIsolate(loader, "oracle");
      expected = runSpecWorkload(vm, vm.mainThread(), loader, wl, wl.default_size);
    }
    for (i32 sum : seen.sums[a]) {
      if (sum != expected) {
        report.violation(strf("spec.%s: checksum %d, expected %d", wl.name.c_str(),
                              sum, expected));
        break;
      }
    }
  }
}

// After a final collection the accounting pass has charged every live
// object to exactly one isolate; the sweep counted the live bytes on its
// own. The two totals must agree.
void checkChargeConservation(VM& vm, Report& report) {
  if (MutatorPool* pool = vm.mutatorPoolIfStarted()) pool->drain();
  vm.collectGarbage(vm.mainThread(), nullptr);
  u64 charged = 0;
  for (const IsolateReport& r : vm.reportAll()) charged += r.bytes_charged;
  const u64 live = vm.heap().liveBytes();
  if (charged != live) {
    report.violation(strf("charge conservation: isolates charged %llu bytes, heap "
                          "holds %llu live bytes",
                          static_cast<unsigned long long>(charged),
                          static_cast<unsigned long long>(live)));
  }
}

// The end-to-end metrics. Those whose run-to-run spread on the reference
// host exceeded any bound BENCHMARK.json may set -- every one that waits
// on thread wake-ups, see README.md -- are reported with the per-layer
// metrics instead (addPerLayer).
void addEndToEnd(Report& r, double setup_s, double rss_mib,
                 const std::vector<SpecWorkload>& spec, const SpecResult& sr) {
  r.endToEnd("setup_s", setup_s, "s");
  r.endToEnd("peak_rss_mib", rss_mib, "MiB");
  for (size_t a = 0; a < spec.size(); ++a) {
    if (spec[a].name != "mtrt") {
      r.endToEnd("spec." + spec[a].name + "_ms", median(sr.ms[a]), "ms");
    }
  }
}

struct HeapCounters {
  u64 allocated = 0, gcs = 0, recycled = 0;
  static HeapCounters read(VM& vm) {
    return {vm.heap().totalAllocatedBytes(), vm.gcCount(), vm.heap().recycledAllocs()};
  }
  HeapCounters operator-(const HeapCounters& o) const {
    return {allocated - o.allocated, gcs - o.gcs, recycled - o.recycled};
  }
  HeapCounters& operator+=(const HeapCounters& o) {
    allocated += o.allocated;
    gcs += o.gcs;
    recycled += o.recycled;
    return *this;
  }
};

void addPerLayer(Report& r, const SpanIndex& spans, VM& vm,
                 const std::vector<SpecWorkload>& spec, const SpecResult& sr,
                 ServeResult& serve, const ChurnResult& churn,
                 double compile_idle_ms, const HeapCounters& main_heap) {
  auto med = [&](const char* name, double scale) {
    return median(spans.durations(name)) / scale;
  };
  auto selfMed = [&](const char* name, double scale) {
    return median(spans.selfTimes(name)) / scale;
  };
  constexpr double kMs = 1e6, kUs = 1e3, kMiB = 1024.0 * 1024.0;

  r.perLayer("osgi.install_ms", med("osgi.install", kMs), "ms");
  r.perLayer("osgi.start_ms", med("osgi.start", kMs), "ms");
  r.perLayer("osgi.uninstall_ms", med("osgi.uninstall", kMs), "ms");
  r.perLayer("osgi.call_ns", med("osgi.call", kCallsPerCycle), "ns");
  r.perLayer("runtime.terminate_ms", med("runtime.terminate", kMs), "ms");
  r.perLayer("runtime.unwind_ms", med("runtime.unwind", kMs), "ms");

  std::vector<double> queue = spans.durations("pool.queue", "serve.request");
  r.perLayer("pool.queue_wait_us", quantile(queue, 0.50) / kUs, "us");
  r.perLayer("pool.queue_wait_p99_us", quantile(queue, 0.99) / kUs, "us");
  r.perLayer("pool.steals", static_cast<double>(serve.steals), "count");

  r.perLayer("comm.donate_us", med("comm.donate", kUs), "us");
  r.perLayer("comm.copy_us", med("comm.copy", kUs), "us");
  r.perLayer("comm.donated_mib", static_cast<double>(serve.bytes_donated) / kMiB, "MiB");
  r.perLayer("comm.copied_mib", static_cast<double>(serve.bytes_copied) / kMiB, "MiB");

  r.perLayer("exec.handler_us", med("exec.handler", kUs), "us");
  u64 compiled = 0, demoted = 0, payoff = 0;
  for (const IsolateReport& rep : vm.reportAll()) {
    compiled += rep.jit_methods_compiled;
    demoted += rep.jit_methods_demoted;
    payoff += rep.jit_payoff_demotions;
  }
  r.perLayer("exec.jit_compiled", static_cast<double>(compiled), "count");
  r.perLayer("exec.jit_demoted", static_cast<double>(demoted), "count");
  r.perLayer("exec.payoff_demotions", static_cast<double>(payoff), "count");
  r.perLayer("exec.compile_idle_ms", compile_idle_ms, "ms");
  for (size_t a = 0; a < spec.size(); ++a) {
    const double runs = static_cast<double>(std::max<u64>(sr.runs[a], 1));
    r.perLayer("exec.invocations." + spec[a].name,
               static_cast<double>(sr.invocations[a]) / runs, "count");
    r.perLayer("exec.back_edges." + spec[a].name,
               static_cast<double>(sr.back_edges[a]) / runs, "count");
  }

  r.perLayer("heap.alloc_mib", static_cast<double>(main_heap.allocated) / kMiB, "MiB");
  r.perLayer("heap.gc_count", static_cast<double>(main_heap.gcs), "count");
  r.perLayer("heap.recycled_allocs", static_cast<double>(main_heap.recycled), "count");
  r.perLayer("heap.alloc_us", med("heap.alloc", kUs), "us");

  // Dropped from the end-to-end set (README.md).
  for (size_t a = 0; a < spec.size(); ++a) {
    if (spec[a].name == "mtrt") r.perLayer("spec.mtrt_ms", median(sr.ms[a]), "ms");
  }
  r.perLayer("serve.p50_ms", median(serve.p50_ms), "ms");
  r.perLayer("serve.p99_ms", quantile(serve.latency_ms, 0.99), "ms");
  r.perLayer("serve.max_rps", median(serve.closed_rps), "req/s");
  r.perLayer("churn.cycle_ms", median(churn.cycle_ms), "ms");
  r.perLayer("churn.kill_ms", median(churn.kill_ms), "ms");
  r.perLayer("gen.late_p99_ms", quantile(serve.late_ms, 0.99), "ms");
  r.perLayer("gen.late_max_ms", quantile(serve.late_ms, 1.0), "ms");

  r.perLayer("self.spec.round_us", selfMed("spec.round", kUs), "us");
  r.perLayer("self.serve.request_us", selfMed("serve.request", kUs), "us");
  r.perLayer("self.gen.build_us", selfMed("gen.build", kUs), "us");
  r.perLayer("self.churn.cycle_us", selfMed("churn.cycle", kUs), "us");
}

std::string jsonMetrics(const std::map<std::string, Report::Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += strf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(), m.value,
                m.unit.c_str());
  }
  return out + "}";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void writeDetail(const Args& a, const Report& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string problems = "[";
  for (const std::string& p : r.problems()) {
    if (problems.size() > 1) problems += ", ";
    problems += jsonString(p);
  }
  problems += "]";
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
               "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"problems\": %s,\n"
               " \"end_to_end\": %s,\n \"per_layer\": %s}\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
               a.trace ? 1 : 0, r.correct() ? "true" : "false",
               static_cast<unsigned long long>(r.attempted()),
               static_cast<unsigned long long>(r.failed()), problems.c_str(),
               jsonMetrics(r.endToEnd()).c_str(), jsonMetrics(r.perLayer()).c_str());
  std::fclose(f);
}

int run(const Args& args, i64 t_process) {
  tracer().enable(args.trace);
  Report report;
  Rng spec_rng(args.seed * 3 + 1), serve_rng(args.seed * 3 + 2);
  Rng warm_rng(0x5eed);

  auto p = std::make_unique<Platform>();
  const size_t n_spec = specWorkloads().size();
  SpecResult warm_spec(n_spec), spec(n_spec);
  ServeResult serve;
  ChurnResult warm_churn, churn;
  double compile_idle_ms = 0;
  {
    SpanScope setup("setup", 0, 0);
    {
      SpanScope s("setup.install", setup.id(), 0);
      p->installBundles();
    }
    {
      SpanScope s("setup.warmup", setup.id(), 0);
      runSpec(*p, warm_rng, kWarmSpecRounds, warm_spec, report);
      warmServe(*p, warm_rng, kWarmServeRequests, report);
      runChurn(*p, kWarmChurnCycles, 0, warm_churn, report);
    }
    SpanScope s("exec.compile_idle", setup.id(), 0);
    const i64 t0 = nowNs();
    if (!exec::waitCompileIdle(*p->vm, kCompileIdleTimeoutMs)) {
      report.fail("compile queue never went idle");
    }
    compile_idle_ms = nsToMs(nowNs() - t0);
  }
  const i64 t_ready = nowNs();
  const double setup_s = static_cast<double>(t_ready - t_process) / 1e9;

  // The run is cut into rounds of about a second. Each round gives its
  // share of --seconds to the workload's phase and then runs one slice of
  // each other phase, so every metric's samples spread over the whole run
  // rather than over one stretch of it.
  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds)));
  const double round_s = args.seconds / rounds;
  HeapCounters main_heap;
  for (int r = 0; r < rounds; ++r) {
    const HeapCounters h0 = HeapCounters::read(*p->vm);
    if (args.workload == "spec") {
      const i64 round_end = nowNs() + static_cast<i64>(round_s * 1e9);
      runSpec(*p, spec_rng, kMainSpecRoundsPerRound, spec, report);
      if (const i64 now = nowNs(); now < round_end) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(round_end - now));
      }
    } else if (args.workload == "serve") {
      runServe(*p, serve_rng, round_s * kMainServeOpenShare,
               round_s * (1 - kMainServeOpenShare), serve, report);
    } else {
      const int cycles = kMainChurnCycles * (r + 1) / rounds - kMainChurnCycles * r / rounds;
      runChurn(*p, cycles, static_cast<i64>(round_s * 1e9) / std::max(cycles, 1), churn,
               report);
    }
    main_heap += HeapCounters::read(*p->vm) - h0;
    if (args.workload != "spec") {
      runSpec(*p, spec_rng, kSliceSpecRounds, spec, report);
    }
    if (args.workload != "serve") {
      runServe(*p, serve_rng, kSliceServeOpenS, kSliceServeClosedS, serve, report);
    }
    if (args.workload != "churn") {
      runChurn(*p, kSliceChurnCycles, 0, churn, report);
    }
  }

  checkChargeConservation(*p->vm, report);
  const double rss_mib = peakRssMib();
  addEndToEnd(report, setup_s, rss_mib, p->spec, spec);

  std::vector<Span> spans;
  if (args.trace) {
    spans = tracer().collect();
    std::vector<Span> timed;
    for (const Span& s : spans) {
      if (s.start_ns >= t_ready) timed.push_back(s);
    }
    addPerLayer(report, SpanIndex(std::move(timed)), *p->vm, p->spec, spec, serve, churn,
                compile_idle_ms, main_heap);
  }

  const std::vector<SpecWorkload> workloads = p->spec;
  p.reset();
  for (size_t a = 0; a < n_spec; ++a) {
    warm_spec.sums[a].insert(warm_spec.sums[a].end(), spec.sums[a].begin(),
                             spec.sums[a].end());
  }
  checkSpec(workloads, warm_spec, report);

  if (!args.out_dir.empty()) {
    const std::string stem = strf("%s/%s-seed%llu-trace%d", args.out_dir.c_str(),
                                  args.workload.c_str(),
                                  static_cast<unsigned long long>(args.seed),
                                  args.trace ? 1 : 0);
    writeDetail(args, report, stem + ".json");
    // A traced serve run holds over 100 MB of spans: keep only each
    // workload's latest, so repeated traced runs do not fill the disk.
    if (args.trace) {
      writeSpans(spans, strf("%s/%s.spans.csv", args.out_dir.c_str(),
                             args.workload.c_str()));
    }
  }
  for (const std::string& problem : report.problems()) {
    std::fprintf(stderr, "platbench: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              jsonMetrics(args.trace ? report.perLayer() : report.endToEnd()).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace platbench

int main(int argc, char** argv) {
  const ijvm::i64 t_process = platbench::nowNs();
  platbench::Args args;
  if (!platbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: platbench --workload spec|serve|churn --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--inject corrupt-reply|lose-reply|"
                 "throw-handler|leave-hostile|corrupt-spec]\n");
    return 2;
  }
  return platbench::run(args, t_process);
}
