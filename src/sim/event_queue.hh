/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are callbacks scheduled at absolute ticks. Ties are broken by
 * insertion order so execution is fully deterministic. Events can be
 * cancelled through the EventId handle returned at scheduling time
 * (used heavily by timeouts: epoll timeouts, TCP retransmission timers,
 * and the CPU model's completion event, which is re-armed on every
 * submit and completion).
 *
 * Storage is allocation-free per event: event states live in a pooled
 * slab (a chunked deque recycled through a free list) and callbacks are
 * stored inline in a fixed-size buffer instead of a heap-backed
 * std::function. An indexed binary heap orders lightweight
 * (tick, seq, slot) entries; a dense per-slot position array lets
 * cancel() remove an entry from the middle of the heap at once, so the
 * heap only ever holds live events. A cancelled slot's captures are
 * destroyed at the start of the next popAndRun(), never inside the
 * canceller's frame, and cancel() allocates nothing.
 *
 * EventId::requeue() moves a pending event in place to the key a cancel
 * plus a fresh schedule would give it (the CPU model's completion
 * event, DESIGN.md §16). Two calls serve timers that stand for a chain
 * of elided events (the CPU model's lone runs, DESIGN.md §15):
 * EventId::retime() moves a pending event to another tick and keeps its
 * seq, so it keeps its place among same-tick events scheduled before
 * and after it, and EventId::scheduledAfterRunning() tells whether the
 * event now running precedes a pending one in the tie order.
 */

#ifndef REQOBS_SIM_EVENT_QUEUE_HH
#define REQOBS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace reqobs::sim {

class EventQueue;

/**
 * Non-allocating callback holder for event slab slots. Any callable up
 * to kCapacity bytes is stored inline; larger captures fail to compile
 * (wrap oversized state in a shared_ptr at the call site).
 */
class InlineCallback
{
  public:
    static constexpr std::size_t kCapacity = 96;

    InlineCallback() = default;
    ~InlineCallback() { reset(); }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fd = std::decay_t<F>;
        static_assert(sizeof(Fd) <= kCapacity,
                      "event callback captures too much state for the "
                      "inline buffer; capture a shared_ptr instead");
        static_assert(alignof(Fd) <= alignof(std::max_align_t));
        reset();
        ::new (static_cast<void *>(buf_)) Fd(std::forward<F>(fn));
        invoke_ = [](void *p) { (*static_cast<Fd *>(p))(); };
        destroy_ = [](void *p) { static_cast<Fd *>(p)->~Fd(); };
    }

    void operator()() { invoke_(buf_); }

    void
    reset()
    {
        if (destroy_)
            destroy_(buf_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char buf_[kCapacity];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

/**
 * Handle to a scheduled event. Default-constructed handles are inert.
 * Copies refer to the same underlying event: cancelling any copy
 * cancels the event. A handle refers to a (slot, generation) pair, so
 * handles to already-fired events stay harmless after the slot is
 * recycled. Handles must not outlive their EventQueue.
 */
class EventId
{
  public:
    EventId() = default;

    /** True if the handle refers to an event that has not yet fired. */
    bool pending() const;

    /** Cancel the event if still pending; harmless otherwise. */
    void cancel();

    /**
     * Move the event to tick @p when if still pending; harmless
     * otherwise (also on its own handle inside its callback). The event
     * keeps its seq: on its new tick it runs after the events scheduled
     * before it and ahead of those scheduled after it.
     * @pre when >= the tick of the last popped event (panics otherwise).
     */
    void retime(Tick when);

    /**
     * As retime(), but the event takes the next seq: it runs where a
     * cancel plus a schedule of the same callback would put it.
     * @return true if the event was pending and moved.
     */
    bool requeue(Tick when);

    /**
     * True if the event is pending and the callback now running was
     * scheduled before it, so on a shared tick the running one goes
     * first. False outside any callback.
     */
    bool scheduledAfterRunning() const;

  private:
    friend class EventQueue;

    EventId(EventQueue *queue, std::uint32_t slot, std::uint32_t gen)
        : queue_(queue), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Min-heap of events ordered by (tick, insertion sequence).
 *
 * The queue does not own a clock; Simulation advances time to the tick of
 * each popped event. popAndRun() never runs an event scheduled in the past
 * relative to the previously popped one (monotonic time is an invariant,
 * checked in debug builds).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p fn at absolute tick @p when. @pre when >= lastPopped. */
    template <typename Fn>
    EventId
    schedule(Tick when, Fn &&fn)
    {
        const std::uint32_t slot = prepare(when);
        State &st = slab_[slot];
        st.cb.emplace(std::forward<Fn>(fn));
        return EventId(this, slot, st.gen);
    }

    /** Tick of the earliest pending event, or kTickMax if none. */
    Tick nextTick() const { return heap_.empty() ? kTickMax : heap_[0].when; }

    /** True if no pending events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events (cancelled ones are never counted). */
    std::size_t size() const { return heap_.size(); }

    /**
     * Pop the earliest event and run it.
     * @param[out] now Set to the event's tick before the callback runs.
     * @return false if the queue was empty.
     */
    bool popAndRun(Tick &now);

    /** Total events executed so far (for stats/debugging). */
    std::uint64_t executedCount() const { return executed_; }

    /** Slab slots currently held (live + free); capacity diagnostics. */
    std::size_t slabSize() const { return slab_.size(); }

  private:
    friend class EventId;

    /** One pooled event state. Addresses are stable (deque chunks). */
    struct State
    {
        std::uint32_t gen = 0;
        /** Next slot on the cancelled list (fits in cb's alignment pad). */
        std::uint32_t nextCancelled = 0;
        InlineCallback cb;
    };

    /** What the heap orders: the full key plus the slab slot. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        /** Strict (when, seq) order; seqs are unique, so it is total. */
        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** pos_ value of a slot with no heap entry (fired, cancelled, free). */
    static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};
    /** End of the cancelled list. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    /** runningSeq_ outside any callback: after every real seq. */
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    std::deque<State> slab_;
    std::vector<std::uint32_t> free_;
    /**
     * Head of the cancelled slots whose captures the next pop destroys,
     * linked through State::nextCancelled so that cancel() never
     * allocates (destructors cancel events, too).
     */
    std::uint32_t cancelled_ = kNoSlot;
    /** Binary min-heap on (when, seq); holds exactly the pending events. */
    std::vector<HeapEntry> heap_;
    /** Heap index of each slot's entry, or kNotQueued. */
    std::vector<std::uint32_t> pos_;
    std::uint64_t nextSeq_ = 0;
    /** Seq of the event whose callback is running, or kNoSeq. */
    std::uint64_t runningSeq_ = kNoSeq;
    std::uint64_t executed_ = 0;
    Tick lastPopped_ = 0;

    /** Validate @p when, claim a slot, push the heap entry. */
    std::uint32_t prepare(Tick when);

    /** Return a fired/cancelled slot to the free list (bumps gen). */
    void release(std::uint32_t slot);

    /** Remove the heap entry at index @p i, restoring the heap. */
    void removeAt(std::size_t i);

    /** Fill the hole at index @p i with @p e, moving it up as needed. */
    void siftUp(std::size_t i, HeapEntry e);

    /** Fill the hole at index @p i with @p e, moving it either way. */
    void refill(std::size_t i, HeapEntry e);

    bool slotPending(std::uint32_t slot, std::uint32_t gen) const;
    void cancelSlot(std::uint32_t slot, std::uint32_t gen);
    /** retime(), or requeue() if @p fresh_seq. */
    bool rekeySlot(std::uint32_t slot, std::uint32_t gen, Tick when,
                   bool fresh_seq);
    bool slotAfterRunning(std::uint32_t slot, std::uint32_t gen) const;
};

} // namespace reqobs::sim

#endif // REQOBS_SIM_EVENT_QUEUE_HH
