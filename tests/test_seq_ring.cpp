// The obs layer's one seqlock ring (src/obs/seq_ring.h), which records
// both the trace and the sampling profiler:
//   * SeqRing wrap keeps the newest slots;
//   * a reader racing the writer never accepts a torn payload (every
//     payload word carries the write index; an accepted record whose
//     words disagree is a torn read). Runs under the TSan CI leg;
//   * RingSet reuses the ring of an exited thread instead of allocating,
//     so short-lived threads leave a bounded ring count, while an exited
//     thread's records stay readable until its ring is handed on (the
//     earliest exited thread's ring first);
//   * reset, capacity changes, a thread moving between sets and a set
//     dying before its threads all keep the registry coherent.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/seq_ring.h"

namespace ijvm {
namespace {

using obs::RingSet;
using obs::SeqRing;

struct Rec {
  u64 v = 0;
};

// Eight words, so a torn read has many places to show.
struct WideRec {
  u64 w[8] = {};
};

std::vector<u64> values(const SeqRing<Rec>& ring) {
  std::vector<u64> out;
  ring.readAll([&out](const Rec& r) { out.push_back(r.v); });
  std::sort(out.begin(), out.end());
  return out;
}

// (tid, value) of every readable record in the set.
std::vector<std::pair<u32, u64>> records(const RingSet<Rec>& set) {
  std::vector<std::pair<u32, u64>> out;
  set.readAll([&out](u32 tid, const Rec& r) { out.emplace_back(tid, r.v); });
  std::sort(out.begin(), out.end());
  return out;
}

// Runs `fn` on a fresh thread and joins it (its thread-local ring cache
// has been destroyed by the time join returns).
template <class F>
void onThread(F fn) {
  std::thread(fn).join();
}

TEST(SeqRing, WrapKeepsTheNewestSlots) {
  SeqRing<Rec> ring(8);
  EXPECT_TRUE(values(ring).empty());
  for (u64 i = 1; i <= 100; ++i) ring.write(Rec{i});
  std::vector<u64> want;
  for (u64 i = 93; i <= 100; ++i) want.push_back(i);
  EXPECT_EQ(values(ring), want);
}

TEST(SeqRing, ClearEmptiesAndResizes) {
  SeqRing<Rec> ring(8);
  for (u64 i = 1; i <= 5; ++i) ring.write(Rec{i});
  ring.clear(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(values(ring).empty());
  for (u64 i = 1; i <= 5; ++i) ring.write(Rec{i});
  EXPECT_EQ(values(ring), (std::vector<u64>{3, 4, 5}));
}

TEST(SeqRing, ConcurrentReaderNeverAcceptsATornPayload) {
  // A small ring so the writer laps the reader constantly.
  SeqRing<WideRec> ring(4);
  constexpr u64 kWrites = 200000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (u64 i = 1; i <= kWrites; ++i) {
      WideRec r;
      for (u64& w : r.w) w = i;
      ring.write(r);
    }
    done.store(true, std::memory_order_release);
  });
  u64 accepted = 0;
  u64 torn = 0;
  while (!done.load(std::memory_order_acquire)) {
    ring.readAll([&](const WideRec& r) {
      ++accepted;
      for (u64 w : r.w) torn += w != r.w[0] ? 1 : 0;
    });
  }
  writer.join();
  EXPECT_EQ(torn, 0u);
  // After the writer stopped every slot reads back whole: the newest four.
  std::vector<u64> last;
  ring.readAll([&](const WideRec& r) { last.push_back(r.w[0]); });
  std::sort(last.begin(), last.end());
  EXPECT_EQ(last, (std::vector<u64>{kWrites - 3, kWrites - 2, kWrites - 1,
                                    kWrites}));
  EXPECT_GT(accepted, 0u);
}

TEST(RingSet, ShortLivedThreadsReuseOneRing) {
  RingSet<Rec> set(16);
  std::vector<u32> tids;
  for (u64 i = 1; i <= 64; ++i) {
    onThread([&set, i] { set.write(Rec{i}); });
    const auto got = records(set);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].second, i);
    tids.push_back(got[0].first);
  }
  // One ring served all 64 threads, each under its own tid.
  EXPECT_EQ(set.ringCount(), 1u);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST(RingSet, ExitedThreadStaysReadableUntilItsRingIsReused) {
  RingSet<Rec> set(16);
  onThread([&set] {
    for (u64 i = 1; i <= 3; ++i) set.write(Rec{i});
  });
  const auto dead = records(set);
  ASSERT_EQ(dead.size(), 3u);
  EXPECT_EQ(dead[0].second, 1u);
  EXPECT_EQ(dead[2].second, 3u);

  // The next new thread is handed the dead thread's ring: the old
  // records go, and the new ones carry a fresh tid.
  onThread([&set] { set.write(Rec{42}); });
  const auto after = records(set);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].second, 42u);
  EXPECT_NE(after[0].first, dead[0].first);
  EXPECT_EQ(set.ringCount(), 1u);
}

// With several dead rings, the one whose owner exited first is reused,
// so the most recently exited thread's records last longest. The ring
// allocated first is the later exiter's, so reuse in allocation order
// would pick the wrong one.
TEST(RingSet, ReuseTakesTheRingOfTheEarliestExitedThread) {
  RingSet<Rec> set(16);
  std::mutex m;
  std::condition_variable cv;
  bool wrote = false;
  bool release = false;
  std::thread last([&] {  // allocates first, exits last
    set.write(Rec{2});
    std::unique_lock<std::mutex> lock(m);
    wrote = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return wrote; });
  }
  onThread([&set] { set.write(Rec{1}); });  // exits first
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  last.join();
  ASSERT_EQ(set.ringCount(), 2u);

  onThread([&set] { set.write(Rec{3}); });
  std::vector<u64> seen;
  for (const auto& rec : records(set)) seen.push_back(rec.second);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<u64>{2, 3}));
  EXPECT_EQ(set.ringCount(), 2u);
}

TEST(RingSet, LiveOwnersKeepTheirRings) {
  RingSet<Rec> set(16);
  std::mutex m;
  std::condition_variable cv;
  bool wrote = false;
  bool release = false;
  std::thread holder([&] {
    set.write(Rec{1});
    std::unique_lock<std::mutex> lock(m);
    wrote = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return wrote; });
  }
  onThread([&set] { set.write(Rec{2}); });
  EXPECT_EQ(set.ringCount(), 2u);
  const auto got = records(set);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].first, got[1].first);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

TEST(RingSet, ResetForgetsAndTheOwnerGetsItsRetiredRingBack) {
  RingSet<Rec> set(16);
  set.write(Rec{1});
  set.reset();
  EXPECT_TRUE(records(set).empty());
  set.write(Rec{2});
  const auto got = records(set);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, 2u);
  EXPECT_EQ(set.ringCount(), 1u);
}

TEST(RingSet, CapacityAppliesToReusedRings) {
  RingSet<Rec> set(16);
  onThread([&set] { set.write(Rec{1}); });
  set.setCapacity(4);
  onThread([&set] {
    for (u64 i = 1; i <= 10; ++i) set.write(Rec{i});
  });
  const auto got = records(set);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().second, 7u);
  EXPECT_EQ(got.back().second, 10u);
}

TEST(RingSet, ThreadMovingBetweenSetsKeepsItsRecords) {
  RingSet<Rec> a(16);
  RingSet<Rec> b(16);
  a.write(Rec{1});
  b.write(Rec{2});
  a.write(Rec{3});
  const auto got = records(a);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, got[1].first);
  EXPECT_EQ(a.ringCount(), 1u);
  EXPECT_EQ(records(b).size(), 1u);
}

TEST(RingSet, SetMayDieBeforeItsThreads) {
  auto set = std::make_unique<RingSet<Rec>>(16);
  std::mutex m;
  std::condition_variable cv;
  int stage = 0;
  std::thread t([&] {
    set->write(Rec{1});
    std::unique_lock<std::mutex> lock(m);
    stage = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return stage == 2; });
    // The set is gone; a new one at any address starts this thread over.
    RingSet<Rec> fresh(16);
    fresh.write(Rec{5});
    EXPECT_EQ(records(fresh).size(), 1u);
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return stage == 1; });
    set = nullptr;
    stage = 2;
  }
  cv.notify_all();
  t.join();  // the thread's cache destructor must not touch the dead set
}

}  // namespace
}  // namespace ijvm
