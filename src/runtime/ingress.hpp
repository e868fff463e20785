// Lock-free bounded queues for the open-loop service mode.
//
// Two shapes, both fixed-capacity rings whose slots carry their own
// sequence numbers (Vyukov's scheme), so neither ever allocates after
// construction and a full queue reports failure instead of growing —
// boundedness is the first line of overload defense (docs/service_mode.md):
//
//   BoundedMpscQueue  — the ingress ring. Any number of submitter threads
//                       push; the dispatcher thread is the only popper.
//   SpscRing          — the dispatcher → worker inboxes. Exactly one
//                       producer (the dispatcher) and one consumer (the
//                       owning worker).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/aligned.hpp"

namespace eewa::rt {

/// Round `n` up to the next power of two (min 2) so ring indices can be
/// masked instead of taken modulo.
inline std::size_t ring_capacity_for(std::size_t n) {
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Bounded multi-producer single-consumer ring (Vyukov sequence cells).
/// push() is wait-free in the common case (one fetch_add-free CAS loop on
/// the tail); pop() is single-consumer and does no RMW at all. A full
/// ring fails the push — callers decide between backpressure and
/// shedding; the queue itself never blocks and never allocates.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : mask_(ring_capacity_for(capacity) - 1),
        cells_(new Cell[mask_ + 1]) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side (any thread). False when the ring is full.
  bool push(T&& value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed older item
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (one thread only). False when empty.
  bool pop(T& out) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) !=
        static_cast<std::intptr_t>(pos + 1)) {
      return false;
    }
    out = std::move(cell.value);
    // head_ moves before the cell is handed back to producers, so
    // size_approx() never reads more than capacity() items.
    head_.store(pos + 1, std::memory_order_release);
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact only when producers are quiet). Any
  /// thread may call it: head_ is atomic so readers off the consumer
  /// thread (drain_service, idle parkers) do not race the pop.
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(util::kCacheLine) std::atomic<std::size_t> tail_{0};
  // Written only by the consumer; atomic because size_approx() reads it
  // from other threads.
  alignas(util::kCacheLine) std::atomic<std::size_t> head_{0};
};

/// Bounded single-producer single-consumer ring. The dispatcher (sole
/// producer) hands service tasks to a worker (sole consumer); both sides
/// are a load + a store, no RMW anywhere.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(ring_capacity_for(capacity) - 1),
        cells_(new T[mask_ + 1]) {}

  std::size_t capacity() const { return mask_ + 1; }

  bool push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    cells_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(cells_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t mask_;
  std::unique_ptr<T[]> cells_;
  alignas(util::kCacheLine) std::atomic<std::size_t> tail_{0};
  alignas(util::kCacheLine) std::atomic<std::size_t> head_{0};
};

}  // namespace eewa::rt
