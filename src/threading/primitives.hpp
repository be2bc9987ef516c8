/**
 * @file
 * Low-level thread synchronization primitives.
 *
 * The paper's runtime "includes low-level implementations of thread
 * synchronization primitives" (section 3.4) to keep the speculation
 * engine's coordination cheap. This module provides the bounded MPMC
 * queue behind the thread pool's injector and the thread executor's
 * record freelist.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>

namespace stats::threading {

/**
 * Bounded lock-free multi-producer/multi-consumer queue
 * (Vyukov-style ring of sequenced cells).
 *
 * @tparam T element type; moved in and out.
 */
template <class T>
class MpmcBoundedQueue
{
  public:
    /** Capacity is rounded up to a power of two; must be >= 2. */
    explicit MpmcBoundedQueue(std::size_t capacity)
    {
        std::size_t size = 2;
        while (size < capacity)
            size <<= 1;
        _mask = size - 1;
        _cells = std::make_unique<Cell[]>(size);
        for (std::size_t i = 0; i < size; ++i)
            _cells[i].sequence.store(i, std::memory_order_relaxed);
        _enqueuePos.store(0, std::memory_order_relaxed);
        _dequeuePos.store(0, std::memory_order_relaxed);
    }

    /** Try to enqueue; false when the queue is full. */
    bool
    tryPush(T value)
    {
        return tryPushFrom(value);
    }

    /**
     * Try to enqueue by moving out of `value`; `value` is only
     * consumed on success, so a caller can fall back to another queue
     * (the thread pool's overflow list) when the ring is full.
     */
    bool
    tryPushFrom(T &value)
    {
        Cell *cell;
        std::size_t pos = _enqueuePos.load(std::memory_order_relaxed);
        for (;;) {
            cell = &_cells[pos & _mask];
            const std::size_t seq =
                cell->sequence.load(std::memory_order_acquire);
            const auto diff = static_cast<std::ptrdiff_t>(seq) -
                              static_cast<std::ptrdiff_t>(pos);
            if (diff == 0) {
                if (_enqueuePos.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (diff < 0) {
                return false; // Full; `value` untouched.
            } else {
                pos = _enqueuePos.load(std::memory_order_relaxed);
            }
        }
        cell->value = std::move(value);
        cell->sequence.store(pos + 1, std::memory_order_release);
        return true;
    }

    /** Try to dequeue; empty optional when no element is ready. */
    std::optional<T>
    tryPop()
    {
        Cell *cell;
        std::size_t pos = _dequeuePos.load(std::memory_order_relaxed);
        for (;;) {
            cell = &_cells[pos & _mask];
            const std::size_t seq =
                cell->sequence.load(std::memory_order_acquire);
            const auto diff = static_cast<std::ptrdiff_t>(seq) -
                              static_cast<std::ptrdiff_t>(pos + 1);
            if (diff == 0) {
                if (_dequeuePos.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (diff < 0) {
                return std::nullopt; // Empty.
            } else {
                pos = _dequeuePos.load(std::memory_order_relaxed);
            }
        }
        T value = std::move(cell->value);
        cell->sequence.store(pos + _mask + 1,
                             std::memory_order_release);
        return value;
    }

    std::size_t capacity() const { return _mask + 1; }

    /**
     * Racy occupancy estimate (never negative); good enough for
     * emptiness heuristics like the pool's park/wake protocol.
     */
    std::size_t
    approxSize() const
    {
        const std::size_t enq =
            _enqueuePos.load(std::memory_order_relaxed);
        const std::size_t deq =
            _dequeuePos.load(std::memory_order_relaxed);
        return enq > deq ? enq - deq : 0;
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> sequence{0};
        T value{};
    };

    std::unique_ptr<Cell[]> _cells;
    std::size_t _mask = 0;
    // One cache line each: producers and consumers on different cores
    // would otherwise invalidate each other's position, and the
    // read-only `_cells`/`_mask`, on every operation.
    alignas(64) std::atomic<std::size_t> _enqueuePos;
    alignas(64) std::atomic<std::size_t> _dequeuePos;
};

} // namespace stats::threading
