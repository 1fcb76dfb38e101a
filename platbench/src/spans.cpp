#include "spans.h"

#include <cstdio>

namespace platbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::myBuffer() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    mine = buffers_.back().get();
  }
  return *mine;
}

void Tracer::record(u64 id, const char* name, i64 start_ns, i64 end_ns,
                    u64 parent, u64 corr) {
  if (!on_ || id == 0) return;
  Buffer& b = myBuffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(Span{name, id, parent, corr, start_ns, end_ns});
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    std::lock_guard<std::mutex> block(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans)) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_id_[spans_[i].id] = i;
    if (spans_[i].parent != 0) children_[spans_[i].parent].push_back(i);
  }
}

std::vector<double> SpanIndex::durations(const std::string& name,
                                         const std::string& parent) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (!parent.empty()) {
      auto it = by_id_.find(s.parent);
      if (it == by_id_.end() || parent != spans_[it->second].name) continue;
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> SpanIndex::selfTimes(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    std::vector<std::pair<i64, i64>> cover;
    if (auto it = children_.find(s.id); it != children_.end()) {
      for (size_t c : it->second) {
        const i64 lo = std::max(spans_[c].start_ns, s.start_ns);
        const i64 hi = std::min(spans_[c].end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    i64 covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const i64 from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return out;
}

bool writeSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  i64 t0 = 0;
  for (const Span& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::fputs("id,parent,corr,name,start_ns,end_ns\n", f);
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.corr), s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace platbench
