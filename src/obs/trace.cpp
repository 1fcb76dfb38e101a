// Trace recording and export. Contract in trace.h / docs/observability.md.
#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "obs/clock.h"
#include "obs/seq_ring.h"
#include "support/strf.h"

namespace ijvm::obs {

const char* evName(Ev e) {
  switch (e) {
    case Ev::None: return "none";
    case Ev::CompileRequest: return "compile.request";
    case Ev::CompileBuild: return "compile.build";
    case Ev::CompileInstall: return "compile.install";
    case Ev::JitDemote: return "jit.demote";
    case Ev::JitDeopt: return "jit.deopt";
    case Ev::JitReclaim: return "jit.reclaim";
    case Ev::EraAdvance: return "jit.era-advance";
    case Ev::OsrTransfer: return "osr.transfer";
    case Ev::OsrRefused: return "osr.refused";
    case Ev::GcPause: return "gc.pause";
    case Ev::GcMark: return "gc.mark";
    case Ev::GcAccounting: return "gc.accounting";
    case Ev::GcSweep: return "gc.sweep";
    case Ev::SafepointStop: return "safepoint.stop";
    case Ev::IsolateStart: return "isolate.start";
    case Ev::IsolateTerminate: return "isolate.terminate";
    case Ev::GovernorTick: return "governor.tick";
    case Ev::GovernorWarn: return "governor.warn";
    case Ev::GovernorAct: return "governor.act";
    case Ev::InterIsolateCall: return "call.inter-isolate";
    case Ev::ChannelSend: return "channel.send";
    case Ev::ChannelSendBatch: return "channel.send-batch";
    case Ev::CommDonate: return "comm.donate";
    case Ev::MutatorTask: return "mutator.task";
    case Ev::MetricCounter: return "metric.counter";
    case Ev::Count: break;
  }
  return "?";
}

const char* latName(Lat l) {
  switch (l) {
    case Lat::SafepointTimeToStop: return "safepoint time-to-stop";
    case Lat::GcPause: return "gc pause";
    case Lat::CompileQueueWait: return "compile queue-wait";
    case Lat::CompileBuild: return "compile build";
    case Lat::InterIsolateCall: return "inter-isolate call (sampled)";
    case Lat::ChannelSend: return "channel send";
    case Lat::ReclaimEraLag: return "reclaim era-lag (eras)";
    case Lat::DonatedBytes: return "donated bytes per send (bytes)";
    case Lat::Count: break;
  }
  return "?";
}

#ifndef IJVM_DISABLE_TRACE

namespace {

const char* evCategory(Ev e) {
  switch (e) {
    case Ev::CompileRequest:
    case Ev::CompileBuild:
    case Ev::CompileInstall:
    case Ev::JitDemote:
    case Ev::JitDeopt:
    case Ev::JitReclaim:
    case Ev::EraAdvance:
    case Ev::OsrTransfer:
    case Ev::OsrRefused:
      return "jit";
    case Ev::GcPause:
    case Ev::GcMark:
    case Ev::GcAccounting:
    case Ev::GcSweep:
      return "gc";
    case Ev::SafepointStop:
      return "safepoint";
    case Ev::IsolateStart:
    case Ev::IsolateTerminate:
      return "isolate";
    case Ev::GovernorTick:
    case Ev::GovernorWarn:
    case Ev::GovernorAct:
      return "governor";
    case Ev::InterIsolateCall:
    case Ev::ChannelSend:
    case Ev::ChannelSendBatch:
    case Ev::CommDonate:
      return "comm";
    case Ev::MutatorTask:
      return "pool";
    case Ev::MetricCounter:
      return "metrics";
    default:
      return "vm";
  }
}

constexpr u32 kDefaultRingSlots = 8192;

// One ring record: an event without its tid (the ring's tid is stamped
// at read time). Padding-free, as SeqRing requires.
struct TraceRecord {
  u64 ts;
  u64 a;
  u64 b;
  i32 isolate;
  Ev ev;
  Ph ph;
  u16 unused = 0;
};

struct TraceState {
  std::mutex mu;  // guards the name interner
  std::unordered_map<std::string, u32> name_ids;
  std::deque<std::string> names;  // id -> string (id 0 = "")
  RingSet<TraceRecord> rings{kDefaultRingSlots};
  std::atomic<bool> enabled{true};
  LatencyHistogram hists[static_cast<size_t>(Lat::Count)];
};

TraceState& state() {
  static TraceState* s = new TraceState();  // never destroyed: emitters may
  return *s;                                // outlive static teardown order
}

}  // namespace

// The obs layer's shared epoch (obs/clock.h): profiler samples and trace
// spans must be directly comparable, so the trace keeps no private t0.
u64 traceNowNs() { return monoNowNs(); }

bool traceEnabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void setTraceEnabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

void emit(Ev ev, Ph ph, i32 isolate, u64 a, u64 b) {
  if (!traceEnabled()) return;  // before the clock read
  state().rings.write(TraceRecord{traceNowNs(), a, b, isolate, ev, ph});
}

void emitAt(u64 ts_ns, Ev ev, Ph ph, i32 isolate, u64 a, u64 b) {
  if (!traceEnabled()) return;
  state().rings.write(TraceRecord{ts_ns, a, b, isolate, ev, ph});
}

void recordLatency(Lat l, u64 ns) {
  if (l >= Lat::Count || !traceEnabled()) return;
  state().hists[static_cast<size_t>(l)].record(ns);
}

HistSnapshot latencySnapshot(Lat l) {
  if (l >= Lat::Count) return {};
  return state().hists[static_cast<size_t>(l)].snapshot();
}

u32 internTraceName(const std::string& name) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.name_ids.find(name);
  if (it != st.name_ids.end()) return it->second;
  if (st.names.empty()) st.names.push_back("");  // id 0 = unnamed
  const u32 id = static_cast<u32>(st.names.size());
  st.names.push_back(name);
  st.name_ids.emplace(name, id);
  return id;
}

std::string traceNameOf(u32 id) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (id == 0 || id >= st.names.size()) return {};
  return st.names[id];
}

void setTraceThreadName(const std::string& name) {
  state().rings.setName(name);
}

void setTraceRingCapacity(u32 slots) { state().rings.setCapacity(slots); }

std::vector<TraceEvent> snapshotTrace() {
  std::vector<TraceEvent> out;
  state().rings.readAll([&out](u32 tid, const TraceRecord& r) {
    out.push_back(TraceEvent{r.ts, tid, r.isolate, r.ev, r.ph, r.a, r.b});
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return out;
}

void resetTrace() {
  TraceState& st = state();
  st.rings.reset();  // retired, not freed: owners may be mid-emit
  std::lock_guard<std::mutex> lock(st.mu);
  st.name_ids.clear();
  st.names.clear();
  for (auto& h : st.hists) h.reset();
  // The clock epoch (obs/clock.h) is deliberately NOT re-based: profiler
  // samples recorded across a reset must stay comparable to new spans.
}

// ---- Chrome trace-event export ----------------------------------------

namespace {

void appendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += strf("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

// A Perfetto counter-track sample ("ph":"C"): one named series per
// metric, value in args. Emitted by the sampling profiler's window roll
// (obs/profiler.cpp) so era-lag, queue depth and CPU share graph on the
// same timeline as the B/E spans.
std::string chromeCounter(const TraceEvent& e) {
  std::string name = traceNameOf(static_cast<u32>(e.a));
  if (name.empty()) name = "metric";
  std::string row = strf("{\"name\":\"");
  appendJsonEscaped(&row, name);
  row += strf("\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":%.3f,"
              "\"pid\":1,\"tid\":%u,\"args\":{\"value\":%llu}}",
              static_cast<double>(e.ts_ns) / 1000.0, e.tid,
              static_cast<unsigned long long>(e.b));
  return row;
}

// One trace-event JSON object. `ph` is the Chrome phase letter.
std::string chromeEvent(const TraceEvent& e, char ph, u64 dur_ns) {
  std::string row = strf(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
      "\"pid\":1,\"tid\":%u",
      evName(e.ev), evCategory(e.ev), ph,
      static_cast<double>(e.ts_ns) / 1000.0, e.tid);
  if (ph == 'X') row += strf(",\"dur\":%.3f", static_cast<double>(dur_ns) / 1000.0);
  if (ph == 'i') row += ",\"s\":\"t\"";
  row += strf(",\"args\":{\"isolate\":%d", e.isolate);
  // Compile/OSR/governor payloads carry an interned name in `a`; for any
  // other event `a` is a plain number (bytes, counts) and must not be
  // resolved even if it happens to collide with a name id.
  const bool a_is_name =
      e.ev == Ev::CompileRequest || e.ev == Ev::CompileBuild ||
      e.ev == Ev::CompileInstall || e.ev == Ev::JitDemote ||
      e.ev == Ev::JitDeopt || e.ev == Ev::OsrTransfer ||
      e.ev == Ev::OsrRefused || e.ev == Ev::GovernorWarn ||
      e.ev == Ev::GovernorAct || e.ev == Ev::IsolateStart;
  const std::string named =
      a_is_name ? traceNameOf(static_cast<u32>(e.a)) : std::string();
  if (!named.empty()) {
    row += ",\"target\":\"";
    appendJsonEscaped(&row, named);
    row += "\"";
  } else if (e.a != 0) {
    row += strf(",\"a\":%llu", static_cast<unsigned long long>(e.a));
  }
  if (e.b != 0) row += strf(",\"b\":%llu", static_cast<unsigned long long>(e.b));
  row += "}}";
  return row;
}

}  // namespace

bool dumpChromeTrace(const std::string& path) {
  std::vector<TraceEvent> events = snapshotTrace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  auto put = [&](const std::string& row) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fputs(row.c_str(), f);
  };

  // Thread-name metadata so Perfetto labels the tracks.
  state().rings.forEachRing([&put](const RingSet<TraceRecord>::Ring& r) {
    std::string name = r.name.empty() ? strf("thread-%u", r.tid) : r.name;
    std::string row =
        strf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
             "\"args\":{\"name\":\"",
             r.tid);
    appendJsonEscaped(&row, name);
    row += "\"}}";
    put(row);
  });

  // Begin/End balancing per thread: a Begin whose End was overwritten by
  // ring wrap (or never emitted -- e.g. an isolate terminated mid-span and
  // the spanning thread unwound without reaching its end site) is closed
  // at the trace's final timestamp; an End whose Begin wrapped away is
  // dropped. Chrome/Perfetto reject unbalanced B/E pairs outright, so the
  // exporter -- not the emitters -- owns this invariant.
  u64 last_ts = 0;
  for (const TraceEvent& e : events) last_ts = std::max(last_ts, e.ts_ns);
  std::unordered_map<u32, std::vector<TraceEvent>> open;  // tid -> B stack
  for (const TraceEvent& e : events) {
    if (e.ev == Ev::MetricCounter) {
      put(chromeCounter(e));
      continue;
    }
    switch (e.ph) {
      case Ph::Instant:
        put(chromeEvent(e, 'i', 0));
        break;
      case Ph::Begin:
        open[e.tid].push_back(e);
        put(chromeEvent(e, 'B', 0));
        break;
      case Ph::End: {
        auto& stack = open[e.tid];
        // An End only matches a Begin of the same event type somewhere in
        // this thread's open stack; otherwise its Begin was lost to wrap
        // and the End must be dropped, not emitted against someone else's
        // span.
        bool has_begin = false;
        for (const TraceEvent& b : stack) has_begin |= b.ev == e.ev;
        if (!has_begin) break;
        // Close any inner spans whose End was lost (wrap can eat an inner
        // End while keeping the outer one).
        while (stack.back().ev != e.ev) {
          TraceEvent fix = stack.back();
          stack.pop_back();
          fix.ts_ns = e.ts_ns;
          put(chromeEvent(fix, 'E', 0));
        }
        stack.pop_back();
        put(chromeEvent(e, 'E', 0));
        break;
      }
    }
  }
  for (auto& [tid, stack] : open) {
    while (!stack.empty()) {
      TraceEvent fix = stack.back();
      stack.pop_back();
      fix.ts_ns = last_ts;
      put(chromeEvent(fix, 'E', 0));
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  std::fclose(f);
  return true;
}

#else  // IJVM_DISABLE_TRACE

bool dumpChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n", f);
  std::fclose(f);
  return true;
}

#endif  // IJVM_DISABLE_TRACE

}  // namespace ijvm::obs
