// VM-wide event tracing (docs/observability.md).
//
// Everything interesting the platform does -- compile request/build/
// install, demotion/retire/reclaim, OSR transfers and refusals, deopts,
// GC phases, safepoint drains, governor ticks and actions, isolate
// start/terminate, channel sends -- is recorded as a typed event with a
// monotonic timestamp, the emitting thread and the isolate it concerns.
//
// Recording discipline (the reason this can stay on in production):
//   * one fixed-size ring buffer per thread, created lazily on the
//     thread's first event and owned by a process-wide registry that
//     hands an exited thread's ring to the next new thread
//     (obs/seq_ring.h, shared with the sampling profiler);
//   * a thread only ever writes its *own* ring -- emission is a seqlock
//     slot publish (invalidate, fence, fill, release-store the
//     sequence), no lock, no allocation, no CAS;
//   * the ring wraps: old events are overwritten, the newest N survive.
//     Nothing on the hot path ever blocks on the trace;
//   * readers (snapshotTrace / dumpChromeTrace) walk every ring and drop
//     slots whose sequence changed mid-read -- a torn slot is skipped,
//     never mis-reported.
//
// Events at per-bytecode frequency are deliberately absent: the cheapest
// possible emit still costs a clock read, so the trace records *platform*
// actions (compiles, pauses, kills), and the one genuinely hot path that
// is traced -- the inter-isolate call -- is sampled (1 in 256) rather
// than recorded per call. bench_fig1_micro's trace-overhead row holds
// the total under 2%.
//
// Compile the whole subsystem out with -DIJVM_DISABLE_TRACE: every emit
// collapses to an empty inline function and the exporters write empty
// (but well-formed) traces.
#pragma once

#include <string>
#include <vector>

#include "obs/histogram.h"
#include "support/common.h"

namespace ijvm::obs {

// Event taxonomy (docs/observability.md has the prose version). Keep in
// sync with evName/evCategory in trace.cpp.
enum class Ev : u8 {
  None = 0,
  // -- compile pipeline (exec/jit.cpp, exec/compile_manager.cpp) --
  CompileRequest,  // promote-to-JIT request latched (a = method name id)
  CompileBuild,    // span: buildJitCode (a = method name id)
  CompileInstall,  // code published at a mutator drain point (b = bytes)
  JitDemote,       // installed -> retired, budget/governor (a = name id)
  JitDeopt,        // compiled execution hit an unbound site (a = name id)
  JitReclaim,      // a reclamation pass freed retired code (a = count)
  EraAdvance,      // retired code armed with a new era (a = era, b = armed)
  OsrTransfer,     // live frame entered compiled code mid-call (a = name id)
  OsrRefused,      // transfer refused with code present (a = name id)
  // -- memory management (runtime/vm.cpp, heap/heap.cpp) --
  GcPause,       // span: the whole stop-the-world collection
  GcMark,        // span: mark + first-reference charging
  GcAccounting,  // span: policy-specific accounting pass
  GcSweep,       // span: sweep of the unmarked
  // -- safepoints (runtime/safepoint.cpp) --
  SafepointStop,  // span: stop request -> all mutators parked
  // -- platform lifecycle (runtime/vm.cpp) --
  IsolateStart,      // isolate created (isolate = new id)
  IsolateTerminate,  // span: terminateIsolate stop/poison/patch
  // -- admin (admin/governor.cpp) --
  GovernorTick,  // one evaluation pass (a = tick number, b = event count)
  GovernorWarn,  // rule tripped without acting (a = rule label id)
  GovernorAct,   // rule acted: kill/promote/demote (a = rule label id)
  // -- communication (runtime/interpreter.cpp, stdlib/channels.cpp) --
  InterIsolateCall,  // span, sampled 1/256 (isolate = callee)
  ChannelSend,       // bytes pushed into a channel queue (a = bytes)
  ChannelSendBatch,  // vectored send (a = bytes, b = frames coalesced)
  CommDonate,        // transferGraph donated ownership (isolate = receiver,
                     // a = bytes donated, b = objects donated)
  // -- mutator pool (runtime/mutator_pool.cpp) --
  MutatorTask,  // span: one pool task (isolate = scheduled-for, a = worker)
  // -- metrics (obs/profiler.cpp) --
  MetricCounter,  // periodic counter sample for Perfetto counter tracks
                  // (a = interned metric name id, b = value; exported as
                  // "ph":"C" so era-lag, queue depth and CPU share are
                  // graphable against the B/E spans on one timeline)
  Count,
};

enum class Ph : u8 { Instant, Begin, End };

// The latency histograms fed from paired begin/end sites (histogram.h).
// Keep in sync with latName in trace.cpp.
enum class Lat : u8 {
  SafepointTimeToStop,  // stop request -> every mutator parked
  GcPause,              // full stop-the-world collection
  CompileQueueWait,     // request latched -> build started
  CompileBuild,         // buildJitCode wall time
  InterIsolateCall,     // migrated call, entry to return (sampled)
  ChannelSend,          // channel push wall time
  ReclaimEraLag,        // eras (NOT ns) past target when code was freed
  DonatedBytes,         // bytes (NOT ns) donated per transferGraph call
  Count,
};

const char* evName(Ev e);
const char* latName(Lat l);

// One decoded trace event (snapshotTrace order: timestamp-ascending).
struct TraceEvent {
  u64 ts_ns = 0;  // monotonic, common epoch across threads
  u32 tid = 0;    // trace-local thread id (dense, stable per thread)
  i32 isolate = -1;  // isolate the event concerns; -1 = platform-wide
  Ev ev = Ev::None;
  Ph ph = Ph::Instant;
  u64 a = 0;  // event-specific payload (see Ev comments)
  u64 b = 0;
};

#ifndef IJVM_DISABLE_TRACE

// Monotonic nanoseconds on the obs layer's common epoch (obs/clock.h --
// shared with the sampling profiler, so span and sample timestamps are
// directly comparable).
u64 traceNowNs();

bool traceEnabled();
void setTraceEnabled(bool on);

// Records one event on the calling thread's ring. Cheap (clock read +
// seqlock publish) and wait-free; safe from any thread at any time.
void emit(Ev ev, Ph ph, i32 isolate, u64 a = 0, u64 b = 0);
// emit() with a pre-read timestamp (span ends that already took the
// clock for the histogram record).
void emitAt(u64 ts_ns, Ev ev, Ph ph, i32 isolate, u64 a = 0, u64 b = 0);

// Feeds one duration into the given histogram.
void recordLatency(Lat l, u64 ns);
HistSnapshot latencySnapshot(Lat l);

// Interns a string for use as an event payload (compile events carry the
// method name this way: the ring slot stays fixed-size and
// allocation-free; the exporter resolves ids back to strings). Interning
// takes a lock -- call it on cold paths only (compile requests, governor
// rules), never per-bytecode.
u32 internTraceName(const std::string& name);
std::string traceNameOf(u32 id);

// Names the calling thread's ring in exports ("compiler", "governor").
void setTraceThreadName(const std::string& name);

// Ring capacity (slots per thread) for rings created *after* the call;
// existing rings keep their size. Tests shrink it to force wrap.
void setTraceRingCapacity(u32 slots);

// All currently-readable events, merged across threads and sorted by
// timestamp. Concurrent emitters are fine: torn slots are skipped.
std::vector<TraceEvent> snapshotTrace();

// Chrome trace-event JSON (load in Perfetto / chrome://tracing). Spans
// whose End was lost to ring wrap -- or that were still open when the
// trace was dumped, e.g. an isolate terminated mid-span -- are closed at
// the trace's end so the file always balances. Returns false only when
// the file cannot be written.
bool dumpChromeTrace(const std::string& path);

// Forgets all recorded events, histograms and interned names. Rings are
// retired (each owner gets a ring again at its next emit), never freed:
// a thread mid-emit keeps writing into memory that stays valid. Tests
// call this between cases; it is not meant for production use.
void resetTrace();

// RAII begin/end pair; optionally feeds a histogram with the span's
// duration at destruction.
class TraceSpan {
 public:
  TraceSpan(Ev ev, i32 isolate, u64 a = 0, Lat hist = Lat::Count)
      : ev_(ev), isolate_(isolate), a_(a), hist_(hist) {
    if (traceEnabled()) {
      armed_ = true;
      t0_ = traceNowNs();
      emitAt(t0_, ev_, Ph::Begin, isolate_, a_);
    }
  }
  ~TraceSpan() {
    if (!armed_) return;
    const u64 t1 = traceNowNs();
    emitAt(t1, ev_, Ph::End, isolate_, a_);
    if (hist_ != Lat::Count) recordLatency(hist_, t1 - t0_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  u64 startNs() const { return t0_; }

 private:
  Ev ev_;
  i32 isolate_;
  u64 a_;
  Lat hist_;
  u64 t0_ = 0;
  bool armed_ = false;
};

#else  // IJVM_DISABLE_TRACE

// Compiled-out stubs: emission sites stay written exactly as in the
// enabled build and cost nothing (callers' argument computation folds
// away -- every payload is a scalar already at hand).
inline u64 traceNowNs() { return 0; }
inline bool traceEnabled() { return false; }
inline void setTraceEnabled(bool) {}
inline void emit(Ev, Ph, i32, u64 = 0, u64 = 0) {}
inline void emitAt(u64, Ev, Ph, i32, u64 = 0, u64 = 0) {}
inline void recordLatency(Lat, u64) {}
inline HistSnapshot latencySnapshot(Lat) { return {}; }
inline u32 internTraceName(const std::string&) { return 0; }
inline std::string traceNameOf(u32) { return {}; }
inline void setTraceThreadName(const std::string&) {}
inline void setTraceRingCapacity(u32) {}
inline std::vector<TraceEvent> snapshotTrace() { return {}; }
bool dumpChromeTrace(const std::string& path);  // writes an empty trace
inline void resetTrace() {}

class TraceSpan {
 public:
  TraceSpan(Ev, i32, u64 = 0, Lat = Lat::Count) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  u64 startNs() const { return 0; }
};

#endif  // IJVM_DISABLE_TRACE

}  // namespace ijvm::obs
