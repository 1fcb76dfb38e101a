// The booted platform and the three phases the workloads are made of.
//
// Every run boots the same platform and warms up all three phases; the
// workload decides which phase gets the run's --seconds and which two run
// a short fixed slice (main.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "comm/serializer.h"
#include "osgi/framework.h"
#include "workloads/spec.h"

namespace platbench {

extern Inject g_inject;

struct Platform {
  Platform();
  ~Platform();
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // Installs the seven SPEC-analog bundles, the serving client and its four
  // server bundles, and the churn cycle's shared service API.
  void installBundles();

  std::unique_ptr<ijvm::VM> vm;
  std::unique_ptr<ijvm::Framework> fw;

  // spec: one bundle isolate per analog, in specWorkloads() order.
  std::vector<ijvm::SpecWorkload> spec;
  std::vector<ijvm::Bundle*> spec_bundles;

  // serve
  ijvm::Bundle* client = nullptr;
  std::vector<ijvm::Bundle*> servers;
  ijvm::JThread* gen = nullptr;  // generator, attached to the client
  ijvm::JClass* req_cls = nullptr;
  ijvm::JClass* int_array_cls = nullptr;

  // Ids that stay unique across the run: serve requests (span correlation)
  // and churn cycles (bundle names).
  u64 next_request = 0;
  int next_cycle = 0;
};

// ---- spec ----
struct SpecResult {
  explicit SpecResult(size_t n)
      : ms(n), sums(n), invocations(n, 0), back_edges(n, 0), runs(n, 0) {}
  std::vector<std::vector<double>> ms;  // wall time of each run(default_size)
  std::vector<std::vector<i32>> sums;   // checksum of each run
  std::vector<u64> invocations;         // guest invocations, summed over runs
  std::vector<u64> back_edges;          // loop back-edges, summed over runs
  std::vector<u64> runs;
};
// Runs `rounds` rounds, each every analog once in a seeded order.
void runSpec(Platform& p, Rng& rng, int rounds, SpecResult& out, Report& report);
// Span names of the analogs, in specWorkloads() order.
const char* specSpanName(size_t analog);

// ---- serve ----
// Open-loop rate: about 5% of the closed-loop rate on a 4-core host with
// three pool workers, so a host stall does not turn into a backlog.
inline constexpr double kOfferedRate = 1000;  // req/s
inline constexpr int kClosedWindow = 32;      // in-flight requests, closed loop
struct ServeResult {
  std::vector<double> latency_ms;  // open loop: scheduled send -> verified reply
  std::vector<double> p50_ms;      // open loop: median latency per call
  std::vector<double> late_ms;     // open loop: generator send - scheduled send
  std::vector<double> closed_rps;  // closed loop: completed req/s per call
  u64 bytes_donated = 0;
  u64 bytes_copied = 0;
  u64 steals = 0;
};
void runServe(Platform& p, Rng& rng, double open_s, double closed_s,
              ServeResult& out, Report& report);
// Sends `requests` requests with the closed loop's window, as fast as they
// complete, and checks their replies: the warm-up, bound by work, not by
// time.
void warmServe(Platform& p, Rng& rng, int requests, Report& report);

// ---- churn ----
inline constexpr int kCallsPerCycle = 1000;
struct ChurnResult {
  std::vector<double> cycle_ms;
  std::vector<double> kill_ms;  // kill request -> hostile's last thread gone
};
// Runs `cycles` lifecycle cycles; cycle i starts no earlier than
// i * period_ns after the first (0: back to back).
void runChurn(Platform& p, int cycles, i64 period_ns, ChurnResult& out,
              Report& report);

}  // namespace platbench
