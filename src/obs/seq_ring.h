// The obs layer's one seqlock ring and one per-thread ring registry
// (docs/concurrency.md, "Seqlock rings"). The trace (obs/trace.cpp) and
// the sampling profiler (obs/profiler.cpp) both record through these.
//
// SeqRing<T>: a fixed-size ring of trivially copyable records with one
// writer (the owning thread) and any number of concurrent readers. A
// record is stored as relaxed atomic words behind a per-slot sequence;
// readers skip slots whose sequence moved while they copied them, so a
// torn record is dropped, never reported. The ring wraps: the newest
// `capacity` records survive.
//
// RingSet<T>: the registry that hands each OS thread its own SeqRing. A
// thread finds its ring through a thread-local cache keyed by (set id,
// reset epoch), so the hot path takes no lock. A ring outlives its
// thread: an exited thread's records stay readable until a new thread
// needs a ring and the registry hands it a dead thread's one (cleared,
// with a fresh tid) instead of allocating -- the ring of the thread that
// exited first, so the latest exited threads' records last longest. Ring
// memory is therefore bounded by the peak number of live recording
// threads, not by every thread that ever recorded.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "support/common.h"

namespace ijvm::obs {

template <class T>
class SeqRing {
  // Every byte of T is value: no padding that memcpy would copy as
  // indeterminate words (give records explicit filler fields instead).
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::has_unique_object_representations_v<T>,
                "SeqRing records must be trivially copyable, padding-free");
  static constexpr size_t kWords = (sizeof(T) + sizeof(u64) - 1) / sizeof(u64);

  struct Slot {
    std::atomic<u64> seq{0};  // 0 = empty or mid-write, else write index + 1
    std::atomic<u64> words[kWords] = {};
  };

 public:
  explicit SeqRing(u32 capacity) { clear(capacity); }

  u32 capacity() const { return cap_; }

  // Owner thread only. Wait-free: no lock, no CAS, no allocation.
  void write(const T& rec) {
    u64 w[kWords] = {};
    std::memcpy(w, &rec, sizeof(T));
    const u64 idx = next_++;
    Slot& s = slots_[idx % cap_];
    s.seq.store(0, std::memory_order_relaxed);  // invalidate for readers
    // Orders the invalidation before every payload store below; without
    // it a reader could see a new payload word yet still read the old
    // sequence after its acquire fence (docs/concurrency.md).
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kWords; ++i) {
      s.words[i].store(w[i], std::memory_order_relaxed);
    }
    s.seq.store(idx + 1, std::memory_order_release);  // publish
  }

  // Calls f(const T&) for every slot read consistently; any thread.
  template <class F>
  void readAll(F&& f) const {
    for (u32 i = 0; i < cap_; ++i) {
      const Slot& s = slots_[i];
      const u64 seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0) continue;  // empty or mid-write
      u64 w[kWords];
      for (size_t j = 0; j < kWords; ++j) {
        w[j] = s.words[j].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq) continue;  // torn
      T rec;
      std::memcpy(&rec, w, sizeof(T));
      f(rec);
    }
  }

  // Empties the ring and sizes it to `capacity` slots. Only while no
  // thread writes or reads it (RingSet holds its lock and the ring has no
  // live owner).
  void clear(u32 capacity) {
    slots_ = std::make_unique<Slot[]>(capacity);  // every seq 0: empty
    cap_ = capacity;
    next_ = 0;
  }

 private:
  std::unique_ptr<Slot[]> slots_;
  u32 cap_ = 0;
  u64 next_ = 0;  // records ever written; owner-only
};

template <class T>
class RingSet {
 public:
  struct Ring {
    Ring(u32 tid_, u32 capacity) : tid(tid_), data(capacity) {}
    u32 tid;           // dense, never reused: a reused ring gets a new one
    std::string name;  // export label ("" = unnamed); under the set's lock
    SeqRing<T> data;
    // The owner thread's exit stamp, shared with its thread-local cache:
    // 0 while the owner lives, then its place in the order of exits.
    std::shared_ptr<std::atomic<u64>> owner;
  };

  explicit RingSet(u32 capacity) : capacity_(capacity) {}
  RingSet(const RingSet&) = delete;
  RingSet& operator=(const RingSet&) = delete;

  // Appends one record to the calling thread's ring.
  void write(const T& rec) { mine().data.write(rec); }

  // Names the calling thread's ring in exports.
  void setName(const std::string& name) {
    Ring& r = mine();
    std::lock_guard<std::mutex> lock(mu_);
    r.name = name;
  }

  // Capacity (slots) for rings created or reused after the call.
  void setCapacity(u32 slots) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = slots > 0 ? slots : 1;
  }

  // Forgets every record: rings move to a retired list, unreadable but
  // never freed, because an owner may be mid-write. Each owner acquires
  // a ring again at its next write; a retired ring is reused once its
  // owner comes back for a ring or exits.
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& r : rings_) retired_.push_back(std::move(r));
    rings_.clear();
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Calls f(const Ring&) for every readable ring, under the set's lock.
  template <class F>
  void forEachRing(F&& f) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) f(*r);
  }

  // Calls f(tid, const T&) for every consistent record of every readable
  // ring. Concurrent writers are fine: torn slots are skipped.
  template <class F>
  void readAll(F&& f) const {
    forEachRing([&f](const Ring& r) {
      r.data.readAll([&f, &r](const T& rec) { f(r.tid, rec); });
    });
  }

  // Rings allocated, readable and retired (tests bound it).
  size_t ringCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rings_.size() + retired_.size();
  }

 private:
  // The calling thread's ring; acquired on first use and after reset().
  Ring& mine() {
    Cache& c = cache();
    if (c.ring != nullptr && c.set == id_ &&
        c.epoch == epoch_.load(std::memory_order_acquire)) {
      return *c.ring;
    }
    return acquire(c);
  }

  // One per thread per record type. Its destructor runs at thread exit
  // and only stamps the exit, so it never touches a set (which may
  // already be gone).
  struct Cache {
    u64 set = 0;
    u64 epoch = 0;
    Ring* ring = nullptr;
    std::shared_ptr<std::atomic<u64>> alive;
    ~Cache() {
      if (alive) alive->store(nextExit(), std::memory_order_release);
    }
  };

  static Cache& cache() {
    static thread_local Cache c;
    return c;
  }

  static u64 nextId() {
    static std::atomic<u64> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  // Exit stamps start at 1 (0 = alive).
  static u64 nextExit() {
    static std::atomic<u64> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Ring& acquire(Cache& c) {
    if (!c.alive) c.alive = std::make_shared<std::atomic<u64>>(0);
    std::lock_guard<std::mutex> lock(mu_);
    Ring* got = nullptr;
    // This epoch's ring of ours, when the thread comes back from another
    // set: keep appending to it.
    for (auto& r : rings_) {
      if (r->owner == c.alive) got = r.get();
    }
    if (got == nullptr) got = reuse(c.alive);
    if (got == nullptr) {
      rings_.push_back(std::make_unique<Ring>(next_tid_++, capacity_));
      got = rings_.back().get();
      got->owner = c.alive;
    }
    c.set = id_;
    c.epoch = epoch_.load(std::memory_order_relaxed);
    c.ring = got;
    return *got;
  }

  // A ring no thread writes any more -- our own retired ring, or one
  // whose owner exited -- cleared and handed to `me`; nullptr when none.
  // Retired rings go first (nothing readable is lost), then the readable
  // ring whose owner exited first. The acquire load pairs with the
  // exiting owner's release store, so its last writes happen before the
  // clear.
  Ring* reuse(const std::shared_ptr<std::atomic<u64>>& me) {
    auto exitStamp = [](const Ring& r) {
      return r.owner->load(std::memory_order_acquire);
    };
    Ring* got = nullptr;
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if ((*it)->owner == me || exitStamp(**it) != 0) {
        rings_.push_back(std::move(*it));
        retired_.erase(it);
        got = rings_.back().get();
        break;
      }
    }
    if (got == nullptr) {
      u64 oldest = ~0ull;
      for (auto& r : rings_) {
        const u64 stamp = exitStamp(*r);
        if (stamp != 0 && stamp < oldest) {
          oldest = stamp;
          got = r.get();
        }
      }
    }
    if (got == nullptr) return nullptr;
    got->data.clear(capacity_);
    got->tid = next_tid_++;
    got->name.clear();
    got->owner = me;
    return got;
  }

  const u64 id_ = nextId();  // never reused: a stale cache cannot match
  std::atomic<u64> epoch_{1};
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Ring>> rings_;    // readable
  std::deque<std::unique_ptr<Ring>> retired_;  // unreadable, awaiting reuse
  u32 capacity_;
  u32 next_tid_ = 1;
};

}  // namespace ijvm::obs
