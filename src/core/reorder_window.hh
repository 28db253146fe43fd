/**
 * @file
 * The pipeline's deterministic reorder stage: a bounded,
 * sequence-numbered hand-off between a pool of preprocessor threads
 * and one serving thread.
 *
 * With several preprocessor threads racing, prepared windows arrive
 * in scheduling order, not stream order — but the LAORAM determinism
 * contract (serial runTrace == pipelined run, byte for byte) requires
 * the serving thread to consume windows in exact stream order.
 * ReorderWindow restores that order: producers push items tagged with
 * a sequence number, the consumer pops them strictly in sequence, and
 * a bounded capacity window provides the backpressure that keeps
 * preprocessing from running arbitrarily far ahead.
 *
 * Deadlock freedom: provided sequence numbers are claimed
 * contiguously (0, 1, 2, ...) and every claimed number is eventually
 * pushed (or the window closed), the producer holding the *lowest*
 * outstanding sequence number is always admitted — its distance to
 * the consumer's cursor is zero, which is within any capacity — so
 * the stage cannot wedge no matter how producers interleave. This is
 * why the preprocessor pool pushes into the reorder window directly:
 * inserting another queue in front of it (one relay thread feeding
 * the window) breaks the invariant and can deadlock.
 */

#ifndef LAORAM_CORE_REORDER_WINDOW_HH
#define LAORAM_CORE_REORDER_WINDOW_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::core {

/**
 * Bounded blocking reorder buffer; safe for concurrent push/pop/close
 * (many producers, one consumer).
 */
template <typename T>
class ReorderWindow
{
  public:
    /** Consumer-side wait accounting (all fields monotonic). */
    struct Stats
    {
        /** Total consumer wait inside pop()/popDeferred(). */
        std::int64_t popWaitNs = 0;

        /**
         * The reorder-specific share of popWaitNs: time the consumer
         * waited for the next-in-sequence item while *later* items
         * were already buffered — the head-of-line stall that only
         * exists because preprocessing runs out of order.
         */
        std::int64_t headOfLineWaitNs = 0;

        std::uint64_t headOfLineWaits = 0; ///< waits counted above
        std::uint64_t delivered = 0;       ///< items popped in sequence
        std::uint64_t maxOccupancy = 0;    ///< peak buffered items
    };

    /**
     * RAII hand-off ticket returned by popDeferred(): releasing it (or
     * letting it go out of scope, including during stack unwinding)
     * wakes the producers blocked on the slot the pop vacated.
     * Splitting the pop from the wakeup lets the consumer timestamp
     * its hand-off first: on a shared core, notify can immediately
     * preempt the consumer in favour of a producer, and an undeferred
     * wakeup would bill that producer work to the consumer's measured
     * wait. Because the token releases on unwind, a consumer that
     * throws mid-window cannot strand the producers waiting on a full
     * window — a real deadlock once sibling consumers in a serving
     * pool keep the window open.
     */
    class ReleaseToken
    {
      public:
        ReleaseToken() = default;
        ~ReleaseToken() { release(); }

        ReleaseToken(ReleaseToken &&other) noexcept
            : window(std::exchange(other.window, nullptr))
        {
        }

        ReleaseToken &
        operator=(ReleaseToken &&other) noexcept
        {
            if (this != &other) {
                release();
                window = std::exchange(other.window, nullptr);
            }
            return *this;
        }

        ReleaseToken(const ReleaseToken &) = delete;
        ReleaseToken &operator=(const ReleaseToken &) = delete;

        /** Wake blocked producers now instead of at destruction. */
        void
        release()
        {
            if (window != nullptr) {
                window->notFull.notify_all();
                window = nullptr;
            }
        }

        /** True while the token still owes the producer wakeup. */
        bool held() const { return window != nullptr; }

      private:
        friend class ReorderWindow<T>;
        explicit ReleaseToken(ReorderWindow<T> *w) : window(w) {}

        ReorderWindow<T> *window = nullptr;
    };

    /**
     * @param firstSeq the sequence number the consumer cursor starts
     *        at — 0 for fresh streams, the resume window index when a
     *        restored engine continues a trace mid-stream.
     */
    explicit ReorderWindow(std::size_t capacity,
                           std::uint64_t firstSeq = 0)
        : slots(capacity), cap(capacity), nextSeq(firstSeq)
    {
        LAORAM_ASSERT(capacity >= 1,
                      "reorder window needs capacity >= 1");
    }

    ReorderWindow(const ReorderWindow &) = delete;
    ReorderWindow &operator=(const ReorderWindow &) = delete;

    /**
     * Block until @p seq fits inside the window (seq < consumer
     * cursor + capacity), then buffer @p item under it.
     *
     * @return false iff the window was closed (item dropped)
     */
    bool
    push(std::uint64_t seq, T item)
    {
        std::unique_lock<std::mutex> lock(mu);
        LAORAM_ASSERT(seq >= nextSeq, "sequence ", seq,
                      " already delivered (cursor ", nextSeq, ")");
        notFull.wait(lock,
                     [&] { return closed || seq - nextSeq < cap; });
        if (closed)
            return false;
        Slot &slot = slots[seq % cap];
        LAORAM_ASSERT(!slot.occupied, "duplicate sequence ", seq);
        slot.item = std::move(item);
        slot.occupied = true;
        ++occupancy;
        st.maxOccupancy = std::max(st.maxOccupancy, occupancy);
        const bool ready = seq == nextSeq;
        lock.unlock();
        if (ready)
            notReady.notify_one();
        return true;
    }

    /**
     * Block until the next-in-sequence item is available, or the
     * window is closed with that item missing.
     *
     * After close(), the contiguous run of already-buffered items is
     * still drained in order; the first sequence gap ends the stream
     * (out-of-order leftovers past a gap can never be delivered
     * deterministically and are dropped with the window).
     *
     * @return true with @p out filled, or false on exhaustion
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!waitForNext(lock))
            return false;
        takeNext(out);
        lock.unlock();
        notFull.notify_all();
        return true;
    }

    /**
     * Like pop(), but defers the producer wakeup to @p token (see
     * ReleaseToken for why).
     *
     * @return true with @p out and @p token filled, or false on
     *         exhaustion (token left empty)
     */
    bool
    popDeferred(T &out, ReleaseToken &token)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!waitForNext(lock)) {
            token = ReleaseToken(); // exhaustion leaves the token empty
            return false;
        }
        takeNext(out);
        lock.unlock();
        token = ReleaseToken(this);
        return true;
    }

    /** End-of-stream: wake all waiters; further push() calls fail. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        notFull.notify_all();
        notReady.notify_all();
    }

    std::size_t capacity() const { return cap; }

    /** Next sequence number the consumer will deliver. */
    std::uint64_t
    nextSequence() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return nextSeq;
    }

    /** Items currently buffered (in or out of order). */
    std::uint64_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return occupancy;
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return st;
    }

  private:
    struct Slot
    {
        T item;
        bool occupied = false;
    };

    /**
     * Wait (accumulating stats) until slots[nextSeq] is present;
     * false when the window closed without it. Caller holds @p lock.
     */
    bool
    waitForNext(std::unique_lock<std::mutex> &lock)
    {
        while (!slots[nextSeq % cap].occupied) {
            if (closed)
                return false;
            // Classify the coming wait: if anything is buffered, the
            // consumer is stalled purely by out-of-order arrival
            // (head-of-line), not by an empty pipeline. Sampled at
            // wait entry; a mid-wait arrival keeps the entry label —
            // a deliberate, documented approximation.
            const bool headOfLine = occupancy > 0;
            const WallClock::time_point t0 = WallClock::now();
            notReady.wait(lock);
            const std::int64_t waited = elapsedNs(t0, WallClock::now());
            st.popWaitNs += waited;
            if (headOfLine) {
                st.headOfLineWaitNs += waited;
                ++st.headOfLineWaits;
            }
        }
        return true;
    }

    /** Move slots[nextSeq] into @p out and advance the cursor. */
    void
    takeNext(T &out)
    {
        Slot &slot = slots[nextSeq % cap];
        out = std::move(slot.item);
        slot.item = T{};
        slot.occupied = false;
        --occupancy;
        ++nextSeq;
        ++st.delivered;
    }

    mutable std::mutex mu;
    std::condition_variable notFull;
    std::condition_variable notReady;
    std::vector<Slot> slots;
    std::size_t cap;
    std::uint64_t nextSeq = 0;
    std::uint64_t occupancy = 0;
    bool closed = false;
    Stats st;

    /** Publishes st and occupancy; declared after what it reads. */
    obs::MetricsSource source{[this](obs::PullSink &out) {
        const Stats now = stats();
        out.level("pipeline.reorder.buffered",
                  "prepared windows buffered in reorder stages", size());
        out.counter("pipeline.reorder.hol_waits",
                    "consumer waits with later windows buffered",
                    now.headOfLineWaits);
        out.counter("pipeline.reorder.hol_wait_ns",
                    "time spent in head-of-line waits",
                    static_cast<std::uint64_t>(now.headOfLineWaitNs));
    }};
};

} // namespace laoram::core

#endif // LAORAM_CORE_REORDER_WINDOW_HH
