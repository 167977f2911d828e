#include "net/tcp.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reqobs::net {

TcpPipe::TcpPipe(sim::Simulation &sim, const NetemConfig &netem,
                 const TcpConfig &tcp, sim::Rng rng, DeliverFn deliver,
                 fault::FaultInjector *fault)
    : sim_(sim), qdisc_(netem, rng), tcp_(tcp), deliver_(std::move(deliver)),
      fault_(fault), alive_(std::make_shared<bool>(true))
{
    if (!deliver_)
        sim::fatal("TcpPipe: null deliver function");
}

void
TcpPipe::send(kernel::Message &&msg)
{
    const sim::Tick now = sim_.now();
    ++sent_;
    const sim::Tick serial = static_cast<sim::Tick>(
        static_cast<double>(msg.bytes) / tcp_.bytesPerUs * 1e3);
    rttEstimate_ = std::max(tcp_.minRttEstimate,
                            2 * qdisc_.config().delay);

    // Sample the (re)transmission sequence up front. The first drop on a
    // busy connection (another segment within ~1 RTT generates dup-ACKs)
    // recovers by fast retransmit in about one RTT; everything else
    // costs an RTO with exponential backoff.
    const bool fast_eligible =
        lastSend_ >= 0 && (now - lastSend_) <= rttEstimate_;
    lastSend_ = now;

    sim::Tick rto_wait = 0;
    // Link flap: a segment sent into a down link sits in the qdisc until
    // the link comes back (time-driven, no RNG — keeps determinism).
    if (fault_)
        rto_wait += fault_->linkDownRemaining(now);
    NetemQdisc::Verdict verdict = qdisc_.process();
    unsigned attempts = 0;
    unsigned rto_attempts = 0; ///< RTO-based retries; indexes the backoff
    if (verdict.dropped && fast_eligible && attempts < tcp_.maxRetries) {
        ++retx_;
        ++fastRetx_;
        ++attempts;
        rto_wait += rttEstimate_;
        verdict = qdisc_.process();
    }
    while (verdict.dropped && attempts < tcp_.maxRetries) {
        ++retx_;
        ++attempts;
        rto_wait += synRetransmitTimeout(tcp_, rto_attempts++);
        verdict = qdisc_.process();
    }
    // ACK loss: on a sparse flow there is no follow-up traffic for the
    // cumulative ACK to piggyback on, so losing the ACK also costs the
    // sender an RTO before it retransmits. Busy flows repair this with
    // the next segment's ACK for free.
    if (!fast_eligible) {
        while (attempts < tcp_.maxRetries && qdisc_.process().dropped) {
            ++retx_;
            ++attempts;
            rto_wait += synRetransmitTimeout(tcp_, rto_attempts++);
        }
    }
    // After maxRetries the segment goes through regardless: connections
    // do not abort in these experiments, they just stall badly.

    sim::Tick arrival = sim_.now() + serial + rto_wait + verdict.delay;
    // In-order delivery: nothing overtakes an earlier segment.
    arrival = std::max(arrival, lastArrival_ + 1);
    lastArrival_ = arrival;

    auto alive = alive_;
    sim_.scheduleAt(arrival, [this, alive, msg = std::move(msg)]() mutable {
        if (!*alive)
            return;
        ++delivered_;
        deliver_(std::move(msg));
    });
}

} // namespace reqobs::net
