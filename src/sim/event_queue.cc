#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace reqobs::sim {

bool
EventId::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

void
EventId::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

void
EventId::retime(Tick when)
{
    if (queue_)
        queue_->rekeySlot(slot_, gen_, when, /*fresh_seq=*/false);
}

bool
EventId::requeue(Tick when)
{
    return queue_ && queue_->rekeySlot(slot_, gen_, when, /*fresh_seq=*/true);
}

bool
EventId::scheduledAfterRunning() const
{
    return queue_ && queue_->slotAfterRunning(slot_, gen_);
}

std::uint32_t
EventQueue::prepare(Tick when)
{
    if (when < lastPopped_)
        panic("EventQueue: scheduling into the past (%lld < %lld)",
              (long long)when, (long long)lastPopped_);
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
        pos_.push_back(kNotQueued);
    }
    heap_.emplace_back();
    siftUp(heap_.size() - 1, HeapEntry{when, nextSeq_++, slot});
    return slot;
}

void
EventQueue::release(std::uint32_t slot)
{
    State &st = slab_[slot];
    st.cb.reset();
    // Invalidate outstanding handles to this slot before it is reused.
    ++st.gen;
    free_.push_back(slot);
}

void
EventQueue::siftUp(std::size_t i, HeapEntry e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!e.before(heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        pos_[heap_[i].slot] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    heap_[i] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(i);
}

void
EventQueue::removeAt(std::size_t i)
{
    pos_[heap_[i].slot] = kNotQueued;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size())
        refill(i, last);
}

void
EventQueue::refill(std::size_t i, HeapEntry e)
{
    // Sink the hole to a leaf along the smaller children first (one
    // comparison per level), then let the entry climb from there, above
    // i if it must. The last entry, which removeAt() moves, nearly
    // always belongs near the bottom.
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child]))
            ++child;
        heap_[i] = heap_[child];
        pos_[heap_[i].slot] = static_cast<std::uint32_t>(i);
        i = child;
    }
    siftUp(i, e);
}

bool
EventQueue::popAndRun(Tick &now)
{
    // Destroy the captures of events cancelled since the last pop. A
    // destructor may cancel further events, so drain until empty.
    while (cancelled_ != kNoSlot) {
        const std::uint32_t slot = cancelled_;
        cancelled_ = slab_[slot].nextCancelled;
        release(slot);
    }
    if (heap_.empty())
        return false;
    const HeapEntry top = heap_[0];
    // Leaving the heap first makes a callback cancelling itself through
    // a retained handle a no-op. The slot is only released after the
    // callback returns, so self-rescheduling callbacks never see their
    // own captures destroyed (slab addresses are stable even if
    // scheduling grows the slab mid-callback).
    removeAt(0);
    if (top.when < lastPopped_)
        panic("EventQueue: time went backwards");
    lastPopped_ = top.when;
    now = top.when;
    ++executed_;
    const std::uint64_t outer = runningSeq_;
    runningSeq_ = top.seq;
    slab_[top.slot].cb();
    runningSeq_ = outer;
    release(top.slot);
    return true;
}

bool
EventQueue::slotPending(std::uint32_t slot, std::uint32_t gen) const
{
    return slot < pos_.size() && pos_[slot] != kNotQueued &&
           slab_[slot].gen == gen;
}

void
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    if (!slotPending(slot, gen))
        return;
    removeAt(pos_[slot]);
    slab_[slot].nextCancelled = cancelled_;
    cancelled_ = slot;
}

bool
EventQueue::rekeySlot(std::uint32_t slot, std::uint32_t gen, Tick when,
                      bool fresh_seq)
{
    if (!slotPending(slot, gen))
        return false;
    if (when < lastPopped_)
        panic("EventQueue: moving an event into the past (%lld < %lld)",
              (long long)when, (long long)lastPopped_);
    HeapEntry e = heap_[pos_[slot]];
    e.when = when;
    if (fresh_seq)
        e.seq = nextSeq_++;
    refill(pos_[slot], e);
    return true;
}

bool
EventQueue::slotAfterRunning(std::uint32_t slot, std::uint32_t gen) const
{
    return slotPending(slot, gen) && runningSeq_ < heap_[pos_[slot]].seq;
}

} // namespace reqobs::sim
