// Tests for util::Fifo, the device queue of sim::Core, fpga::Pcap and
// fpga::SdCard: FIFO order, no allocation while a queue stays empty, and
// bounded storage when a queue is busy for a long time without draining.
//
// Allocations are counted by replacing the global operator new for this
// test binary (the same hook bench/micro_substrate.cpp uses); ctest runs
// each test in its own process, and the counter is only read around
// single-threaded regions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fpga/params.h"
#include "fpga/pcap.h"
#include "fpga/storage.h"
#include "sim/core.h"
#include "sim/simulator.h"
#include "util/fifo.h"

namespace {

std::atomic<std::int64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

std::int64_t alloc_calls() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

}  // namespace

// Every unaligned form is replaced, the nothrow ones too (std::stable_sort
// takes its buffer through them), so each allocation is released by the
// matching deallocation even under AddressSanitizer.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vs {
namespace {

TEST(Fifo, PopsInPushOrder) {
  util::Fifo<std::string> q;
  q.push_back("a");
  q.push_back("b");
  EXPECT_EQ(q.pop_front(), "a");
  q.push_back("c");
  EXPECT_EQ(q.size(), 2u);
  std::vector<std::string> seen(q.begin(), q.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(q.pop_front(), "b");
  EXPECT_EQ(q.pop_front(), "c");
  EXPECT_TRUE(q.empty());
  q.push_back("d");
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.begin(), q.end());
}

TEST(Fifo, OrderSurvivesCompaction) {
  util::Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  // Two pushes per pop for a while, then drain: every compaction must keep
  // the live elements in order.
  for (int step = 0; step < 1000; ++step) {
    q.push_back(next_in++);
    if (step % 2 == 1) {
      ASSERT_EQ(q.pop_front(), next_out++);
    }
  }
  while (!q.empty()) ASSERT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, EmptyQueuesAllocateNothing) {
  sim::Simulator sim;
  fpga::BoardParams params;
  const std::int64_t before = alloc_calls();
  {
    util::Fifo<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 0u);
    q.clear();
    // The three device queues, constructed and never used.
    sim::Core core(sim, "c0");
    fpga::Pcap pcap(sim);
    fpga::SdCard sd(sim, params);
    EXPECT_EQ(core.backlog() + pcap.backlog() + sd.backlog(), 0u);
  }
  EXPECT_EQ(alloc_calls() - before, 0);
}

TEST(Fifo, SteadyPushPopAllocatesNothing) {
  util::Fifo<int> q;
  // The first cycle grows the storage to the steady depth of two.
  q.push_back(0);
  q.push_back(0);
  (void)q.pop_front();
  (void)q.pop_front();
  const std::int64_t before = alloc_calls();
  for (int i = 0; i < 1000; ++i) {
    q.push_back(i);
    q.push_back(i);
    EXPECT_EQ(q.pop_front(), i);
    EXPECT_EQ(q.pop_front(), i);
  }
  EXPECT_EQ(alloc_calls() - before, 0);
}

TEST(Fifo, StorageStaysBoundedWithoutDraining) {
  // The backlog never drops below two and never exceeds three, so the head
  // index never resets by draining: only compaction keeps storage bounded.
  util::Fifo<int> q;
  q.push_back(0);
  q.push_back(1);
  for (int i = 2; i < 100000; ++i) {
    q.push_back(i);
    ASSERT_EQ(q.pop_front(), i - 2);
  }
  EXPECT_EQ(q.size(), 2u);
  EXPECT_LE(q.capacity(), 4u);
}

TEST(Fifo, PcapUnderSustainedContentionStopsAllocating) {
  // One 1 ms load requested every 1 ms on top of an initial burst of three:
  // the PCAP FIFO stays two to three deep for the whole run and never
  // drains. After warm-up its storage must not grow, so the run allocates
  // nothing at all (event closures are inline, the event slab is warm).
  sim::Simulator sim;
  sim::Core core(sim, "c0");
  fpga::Pcap pcap(sim);
  for (int i = 0; i < 3; ++i) pcap.request(sim::ms(1), core, [] {});
  int ticks = 10000;
  std::size_t min_backlog = ~std::size_t{0};
  std::int64_t warm = -1;
  struct Tick {
    sim::Simulator* sim;
    sim::Core* core;
    fpga::Pcap* pcap;
    int* ticks;
    std::size_t* min_backlog;
    std::int64_t* warm;
    void operator()() const {
      pcap->request(sim::ms(1), *core, [] {});
      if (--*ticks == 9900) *warm = alloc_calls();
      if (*ticks < 9900 && pcap->backlog() < *min_backlog) {
        *min_backlog = pcap->backlog();
      }
      if (*ticks > 0) sim->schedule(sim::ms(1), *this);
    }
  };
  sim.schedule(sim::ms(1),
               Tick{&sim, &core, &pcap, &ticks, &min_backlog, &warm});
  sim.run(sim::seconds(10.0));
  ASSERT_GE(warm, 0);
  EXPECT_GE(min_backlog, 1u);  // contention never let the queue drain
  EXPECT_EQ(alloc_calls() - warm, 0);
}

}  // namespace
}  // namespace vs
