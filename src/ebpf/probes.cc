#include "ebpf/probes.hh"

#include "ebpf/assembler.hh"
#include "sim/logging.hh"

namespace reqobs::ebpf::probes {

namespace {

/**
 * Emit the common application filter:
 *   r6 = ctx->pid_tgid; if ((r6 >> 32) != tgid) goto out;
 * Leaves pid_tgid in r6.
 */
void
emitTgidFilter(ProgramBuilder &b, std::uint32_t tgid)
{
    b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid))
        .mov(R7, R6)
        .rshImm(R7, 32)
        .jneImm(R7, static_cast<std::int32_t>(tgid), "out");
}

/**
 * Emit the tenant-match prologue, the multi-tenant generalisation of
 * emitTgidFilter: resolve the event's tgid against the tenant set via
 * an unrolled jeq chain and leave the dense tenant slot in r7 (and
 * pid_tgid in r6); non-tenant events jump to "out". With
 * @p match_poll, tenant i's stub additionally requires ctx->id
 * (pre-loaded into r8 by the caller) to equal that tenant's own poll
 * syscall — tenants may wait on different syscalls.
 */
void emitTenantSlot(ProgramBuilder &b, const TenantSet &tenants,
                    bool match_poll);

void
emitTenantFilter(ProgramBuilder &b, const TenantSet &tenants,
                 bool match_poll)
{
    b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid));
    emitTenantSlot(b, tenants, match_poll);
}

/**
 * The slot-resolution half of emitTenantFilter, for probes that must
 * load ctx->pid_tgid themselves (e.g. before a helper call clobbers
 * r1): expects pid_tgid already in r6.
 */
void
emitTenantSlot(ProgramBuilder &b, const TenantSet &tenants,
               bool match_poll)
{
    b.mov(R7, R6).rshImm(R7, 32);
    for (std::size_t i = 0; i < tenants.tgids.size(); ++i)
        b.jeqImm(R7, static_cast<std::int32_t>(tenants.tgids[i]),
                 "tenant" + std::to_string(i));
    b.ja("out");
    for (std::size_t i = 0; i < tenants.tgids.size(); ++i) {
        b.label("tenant" + std::to_string(i));
        if (match_poll)
            b.jneImm(R8,
                     static_cast<std::int32_t>(tenants.pollSyscalls[i]),
                     "out");
        b.movImm(R7, static_cast<std::int32_t>(i)).ja("tenant_body");
    }
    b.label("tenant_body");
}

/**
 * Duration accumulate body shared by the single- and multi-tenant exit
 * probes: r0 points at the SyscallStats slot, r8 holds the duration.
 */
void
emitDurationBody(ProgramBuilder &b, unsigned shift)
{
    // stats->count++;
    b.ldxdw(R3, R0, offsetof(SyscallStats, count))
        .addImm(R3, 1)
        .stxdw(R0, offsetof(SyscallStats, count), R3);
    // stats->sum_ns += duration;
    b.ldxdw(R3, R0, offsetof(SyscallStats, sumNs))
        .add(R3, R8)
        .stxdw(R0, offsetof(SyscallStats, sumNs), R3);
    // q = duration >> shift; stats->sumsq_q += q * q;
    b.mov(R4, R8)
        .rshImm(R4, static_cast<std::int32_t>(shift))
        .mov(R5, R4)
        .mul(R5, R4)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumSqQ))
        .add(R3, R5)
        .stxdw(R0, offsetof(SyscallStats, sumSqQ), R3);
}

/**
 * Delta accumulate body shared by the single- and multi-tenant exit
 * probes: r0 points at the SyscallStats slot, r9 holds ctx->ts.
 */
void
emitDeltaBody(ProgramBuilder &b, unsigned shift, bool guarded)
{
    // last = stats->last_ts; stats->last_ts = now;
    b.ldxdw(R3, R0, offsetof(SyscallStats, lastTs))
        .stxdw(R0, offsetof(SyscallStats, lastTs), R9)
        .jeqImm(R3, 0, "out"); // first event seeds the chain
    // Jittered timestamps can run backwards; a u64 delta would wrap to
    // ~2^64. Drop the inverted pair (last_ts already reseeded above).
    if (guarded)
        b.jgt(R3, R9, "out");
    // delta = now - last;
    b.mov(R2, R9).sub(R2, R3);
    // count++, sum += delta
    b.ldxdw(R3, R0, offsetof(SyscallStats, count))
        .addImm(R3, 1)
        .stxdw(R0, offsetof(SyscallStats, count), R3)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumNs))
        .add(R3, R2)
        .stxdw(R0, offsetof(SyscallStats, sumNs), R3);
    // q = delta >> shift; sumsq += q*q  (Eq. 2's E[x^2] accumulator)
    b.rshImm(R2, static_cast<std::int32_t>(shift))
        .mov(R4, R2)
        .mul(R4, R2)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumSqQ))
        .add(R3, R4)
        .stxdw(R0, offsetof(SyscallStats, sumSqQ), R3);
}

} // namespace

namespace emit {

std::vector<Insn>
durationEnter(std::uint32_t tgid, std::int64_t syscall, int start_fd)
{
    ProgramBuilder b;
    emitTgidFilter(b, tgid);
    // Filter the syscall of interest (args->id in the paper's listing).
    b.ldxdw(R8, R1, offsetof(TraceCtx, id))
        .jneImm(R8, static_cast<std::int32_t>(syscall), "out");
    // u64 t = bpf_ktime_get_ns();
    b.call(helper::kKtimeGetNs);
    // start.update(&pid_tgid, &t);
    b.stxdw(R10, -8, R6)  // key = pid_tgid
        .stxdw(R10, -16, R0) // value = t
        .ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
durationExit(std::uint32_t tgid, std::int64_t syscall, int start_fd,
             int stats_fd, unsigned shift, bool guarded)
{
    ProgramBuilder b;
    emitTgidFilter(b, tgid);
    b.ldxdw(R8, R1, offsetof(TraceCtx, id))
        .jneImm(R8, static_cast<std::int32_t>(syscall), "out");
    // u64 end_ns = ctx->ts (the tracepoint timestamp).
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts));
    // u64 *start_ns = start.lookup(&pid_tgid);
    b.stxdw(R10, -8, R6)
        .ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    b.ldxdw(R3, R0, 0);
    // Clock jitter can order the exit timestamp before the entry one;
    // the u64 subtraction would then register an astronomical duration.
    // Skip the sample (the stale start slot is overwritten by the
    // thread's next entry).
    if (guarded)
        b.jgt(R3, R9, "out");
    // duration = end_ns - *start_ns;   (keep in callee-saved r8)
    b.mov(R8, R9).sub(R8, R3);
    // start.delete(&pid_tgid);  (key buffer still on the stack)
    b.ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapDeleteElem);
    // stats = &stats_array[0];
    b.stImm(R10, -24, 0, BPF_W)
        .ldMapFd(R1, stats_fd)
        .mov(R2, R10)
        .addImm(R2, -24)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    emitDurationBody(b, shift);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
deltaExit(std::uint32_t tgid, const std::vector<std::int64_t> &family,
          int stats_fd, unsigned shift, bool guarded)
{
    if (family.empty())
        sim::fatal("emit::deltaExit: empty syscall family");

    ProgramBuilder b;
    // Family match first: cheap rejection of unrelated syscalls.
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    for (std::int64_t id : family)
        b.jeqImm(R8, static_cast<std::int32_t>(id), "match");
    b.ja("out");
    b.label("match");
    emitTgidFilter(b, tgid);
    // Failed syscalls (EINTR restarts, EAGAIN polls with data racing
    // away) are not request completions; counting their exits inflates
    // Eq. 1. The guarded variant filters on ret >= 0.
    if (guarded) {
        b.ldxdw(R2, R1, offsetof(TraceCtx, ret)).jsltImm(R2, 0, "out");
    }
    // now = ctx->ts
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts));
    // stats = &stats_array[0];
    b.stImm(R10, -4, 0, BPF_W)
        .ldMapFd(R1, stats_fd)
        .mov(R2, R10)
        .addImm(R2, -4)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    emitDeltaBody(b, shift, guarded);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
tenantDeltaExit(const TenantSet &tenants,
                const std::vector<std::int64_t> &family, int stats_fd,
                unsigned shift, bool guarded)
{
    if (family.empty())
        sim::fatal("emit::tenantDeltaExit: empty syscall family");
    if (tenants.tgids.empty())
        sim::fatal("emit::tenantDeltaExit: empty tenant set");

    ProgramBuilder b;
    // Family match first: cheap rejection of unrelated syscalls.
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    for (std::int64_t id : family)
        b.jeqImm(R8, static_cast<std::int32_t>(id), "match");
    b.ja("out");
    b.label("match");
    emitTenantFilter(b, tenants, /*match_poll=*/false); // slot in r7
    if (guarded) {
        b.ldxdw(R2, R1, offsetof(TraceCtx, ret)).jsltImm(R2, 0, "out");
    }
    // now = ctx->ts
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts));
    // stats = &stats_array[slot];
    b.stx(R10, -4, R7, BPF_W)
        .ldMapFd(R1, stats_fd)
        .mov(R2, R10)
        .addImm(R2, -4)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    emitDeltaBody(b, shift, guarded);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
tenantHeavyHitter(const TenantSet &tenants,
                  const std::vector<std::int64_t> &family, int sketch_fd)
{
    if (family.empty())
        sim::fatal("emit::tenantHeavyHitter: empty syscall family");
    if (tenants.tgids.empty())
        sim::fatal("emit::tenantHeavyHitter: empty tenant set");

    ProgramBuilder b;
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    for (std::int64_t id : family)
        b.jeqImm(R8, static_cast<std::int32_t>(id), "match");
    b.ja("out");
    b.label("match");
    emitTenantFilter(b, tenants, /*match_poll=*/false); // slot in r7
    // key = tenant slot; resident keys increment their count in place
    // (no pipe traversal), misses insert value 1 through the pipe.
    b.stx(R10, -4, R7, BPF_W)
        .ldMapFd(R1, sketch_fd)
        .mov(R2, R10)
        .addImm(R2, -4)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "insert")
        .ldxdw(R3, R0, 0)
        .addImm(R3, 1)
        .stxdw(R0, 0, R3)
        .ja("out");
    b.label("insert")
        .stImm(R10, -16, 1, BPF_DW)
        .ldMapFd(R1, sketch_fd)
        .mov(R2, R10)
        .addImm(R2, -4)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, 0) // BPF_ANY
        .call(helper::kMapUpdateElem);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
tenantDurationEnter(const TenantSet &tenants, int start_fd)
{
    if (tenants.tgids.empty() ||
        tenants.pollSyscalls.size() != tenants.tgids.size())
        sim::fatal("emit::tenantDurationEnter: malformed tenant set");

    ProgramBuilder b;
    // ctx->id in r8 before the prologue: each tenant stub matches its
    // own poll syscall.
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    emitTenantFilter(b, tenants, /*match_poll=*/true);
    // u64 t = bpf_ktime_get_ns();
    b.call(helper::kKtimeGetNs);
    // start.update(&pid_tgid, &t);  — pid_tgid already identifies the
    // tenant's thread, so one shared start map serves every tenant.
    b.stxdw(R10, -8, R6)
        .stxdw(R10, -16, R0)
        .ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
tenantDurationExit(const TenantSet &tenants, int start_fd, int stats_fd,
                   unsigned shift, bool guarded)
{
    if (tenants.tgids.empty() ||
        tenants.pollSyscalls.size() != tenants.tgids.size())
        sim::fatal("emit::tenantDurationExit: malformed tenant set");

    ProgramBuilder b;
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    emitTenantFilter(b, tenants, /*match_poll=*/true); // slot in r7
    // u64 end_ns = ctx->ts.
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts));
    // u64 *start_ns = start.lookup(&pid_tgid);
    b.stxdw(R10, -8, R6)
        .ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    b.ldxdw(R3, R0, 0);
    if (guarded)
        b.jgt(R3, R9, "out");
    // duration = end_ns - *start_ns;  (r8 is free once the id matched)
    b.mov(R8, R9).sub(R8, R3);
    // start.delete(&pid_tgid);  (key buffer still on the stack)
    b.ldMapFd(R1, start_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapDeleteElem);
    // stats = &stats_array[slot];
    b.stx(R10, -24, R7, BPF_W)
        .ldMapFd(R1, stats_fd)
        .mov(R2, R10)
        .addImm(R2, -24)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    emitDurationBody(b, shift);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

// Byte-identical to runqlatWakeup (key ctx->id, value ctx->ts, BPF_ANY):
// both compile to the native "stamp_update" kernel.
std::vector<Insn>
frontDoorIngress(int ingress_fd)
{
    ProgramBuilder b;
    // Read ctx fields before r1 is clobbered by the helper setup.
    b.ldxdw(R2, R1, offsetof(TraceCtx, id))
        .stxdw(R10, -8, R2) // key = flow id
        .ldxdw(R3, R1, offsetof(TraceCtx, ts))
        .stxdw(R10, -16, R3); // value = ingress ts
    // ingress.update(&flow, &ts) — BPF_ANY: a retransmitted SYN restarts
    // the flow's front-door clock at its latest wire arrival.
    b.ldMapFd(R1, ingress_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
frontDoorAccept(const TenantSet &tenants, int ingress_fd, int hist_fd,
                unsigned shift)
{
    if (tenants.tgids.empty())
        sim::fatal("emit::frontDoorAccept: empty tenant set");

    ProgramBuilder b;
    b.ldxdw(R8, R1, offsetof(TraceCtx, id))  // flow id
        .ldxdw(R9, R1, offsetof(TraceCtx, ts)); // accept ts
    emitTenantFilter(b, tenants, /*match_poll=*/false); // slot in r7
    // u64 *ingress_ns = ingress.lookup(&flow);
    b.stxdw(R10, -8, R8)
        .ldMapFd(R1, ingress_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    b.ldxdw(R3, R0, 0);
    // latency = accept_ts - ingress_ts;  (r8 is free once keyed)
    b.mov(R8, R9).sub(R8, R3);
    // ingress.delete(&flow);  (key buffer still on the stack)
    b.ldMapFd(R1, ingress_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapDeleteElem);
    // bucket = floor(log2(latency >> shift)), clamped to the table:
    // an unrolled threshold chain (verifier-friendly, no loops).
    b.rshImm(R8, static_cast<std::int32_t>(shift)).movImm(R6, 0);
    for (unsigned k = 1; k < kFrontDoorBuckets; ++k) {
        b.jltImm(R8, static_cast<std::int32_t>(1u << k), "bucket");
        b.movImm(R6, static_cast<std::int32_t>(k));
    }
    b.label("bucket");
    // hist = &hist_array[slot * kFrontDoorBuckets + bucket]; (*hist)++;
    b.lshImm(R7, 4).add(R7, R6);
    b.stx(R10, -16, R7, BPF_W)
        .ldMapFd(R1, hist_fd)
        .mov(R2, R10)
        .addImm(R2, -16)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out")
        .ldxdw(R3, R0, 0)
        .addImm(R3, 1)
        .stxdw(R0, 0, R3);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

// Byte-identical to frontDoorIngress: both compile to the native
// "stamp_update" kernel.
std::vector<Insn>
runqlatWakeup(int stamp_fd)
{
    ProgramBuilder b;
    // Read ctx fields before r1 is clobbered by the helper setup.
    b.ldxdw(R2, R1, offsetof(TraceCtx, id))
        .stxdw(R10, -8, R2) // key = woken tid
        .ldxdw(R3, R1, offsetof(TraceCtx, ts))
        .stxdw(R10, -16, R3); // value = wakeup ts
    // stamp.update(&tid, &ts) — BPF_ANY: a re-wakeup restarts the wait
    // clock, exactly as runqlat.bpf.c's trace_enqueue does.
    b.ldMapFd(R1, stamp_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
runqlatSwitch(const TenantSet &tenants, int stamp_fd, int hist_fd,
              unsigned shift)
{
    if (tenants.tgids.empty())
        sim::fatal("emit::runqlatSwitch: empty tenant set");

    ProgramBuilder b;
    // Read every ctx field up front: the prev re-stamp's helper call
    // clobbers r1-r5, and it must run before the tenant filter decides
    // the incoming task's fate (prev and next are unrelated threads).
    b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid)) // next pid_tgid
        .ldxdw(R8, R1, offsetof(TraceCtx, id))   // prev tid
        .ldxdw(R9, R1, offsetof(TraceCtx, ts))   // switch ts
        .ldxdw(R2, R1, offsetof(TraceCtx, ret)); // prev state
    // A preempted prev (state 0) stays runnable: its wait starts now.
    b.jneImm(R2, 0, "next")
        .stxdw(R10, -8, R8)
        .stxdw(R10, -16, R9)
        .ldMapFd(R1, stamp_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
    b.label("next");
    emitTenantSlot(b, tenants, /*match_poll=*/false); // slot in r7
    // key = next tid = low half of pid_tgid (idle's 0 misses the hash).
    b.mov(R8, R6).lshImm(R8, 32).rshImm(R8, 32).stxdw(R10, -8, R8);
    // u64 *wake_ns = stamp.lookup(&tid);
    b.ldMapFd(R1, stamp_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out");
    b.ldxdw(R3, R0, 0);
    // wait = switch_ts - wake_ns;  (r8 is free once keyed)
    b.mov(R8, R9).sub(R8, R3);
    // stamp.delete(&tid);  (key buffer still on the stack)
    b.ldMapFd(R1, stamp_fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapDeleteElem);
    // bucket = floor(log2(wait >> shift)), clamped to the table: the
    // same unrolled threshold chain as the front-door histogram.
    b.rshImm(R8, static_cast<std::int32_t>(shift)).movImm(R6, 0);
    for (unsigned k = 1; k < kRunqlatBuckets; ++k) {
        b.jltImm(R8, static_cast<std::int32_t>(1u << k), "bucket");
        b.movImm(R6, static_cast<std::int32_t>(k));
    }
    b.label("bucket");
    // hist = &hist_array[slot * kRunqlatBuckets + bucket]; (*hist)++;
    b.lshImm(R7, 4).add(R7, R6);
    b.stx(R10, -16, R7, BPF_W)
        .ldMapFd(R1, hist_fd)
        .mov(R2, R10)
        .addImm(R2, -16)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out")
        .ldxdw(R3, R0, 0)
        .addImm(R3, 1)
        .stxdw(R0, 0, R3);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

std::vector<Insn>
streamProbe(std::uint32_t tgid, bool exit_point, int ring_fd)
{
    ProgramBuilder b;
    emitTgidFilter(b, tgid);
    // Assemble a StreamRecord at r10-40.
    b.ldxdw(R2, R1, offsetof(TraceCtx, id))
        .stxdw(R10, -40, R2)
        .stxdw(R10, -32, R6) // pid_tgid (from the filter)
        .ldxdw(R2, R1, offsetof(TraceCtx, ts))
        .stxdw(R10, -24, R2)
        .ldxdw(R2, R1, offsetof(TraceCtx, ret))
        .stxdw(R10, -16, R2)
        .stImm(R10, -8, exit_point ? 1 : 0, BPF_DW);
    b.ldMapFd(R1, ring_fd)
        .mov(R2, R10)
        .addImm(R2, -40)
        .movImm(R3, sizeof(StreamRecord))
        .movImm(R4, 0)
        .call(helper::kRingbufOutput);
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

} // namespace emit

DurationMaps
createDurationMaps(EbpfRuntime &rt, const std::string &prefix)
{
    DurationMaps m;
    m.startFd = rt.createHashMap(sizeof(std::uint64_t), sizeof(std::uint64_t),
                                 16384, prefix + ".start");
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), 1, prefix + ".stats");
    return m;
}

ProgramSpec
buildDurationEnter(EbpfRuntime &rt, std::uint32_t tgid, std::int64_t syscall,
                   const DurationMaps &maps)
{
    ProgramSpec spec;
    spec.name = "duration_enter";
    spec.insns = emit::durationEnter(tgid, syscall, maps.startFd);
    spec.maps = rt.mapTable();
    return spec;
}

ProgramSpec
buildDurationExit(EbpfRuntime &rt, std::uint32_t tgid, std::int64_t syscall,
                  const DurationMaps &maps, unsigned shift, bool guarded)
{
    ProgramSpec spec;
    spec.name = "duration_exit";
    spec.insns = emit::durationExit(tgid, syscall, maps.startFd, maps.statsFd,
                                    shift, guarded);
    spec.maps = rt.mapTable();
    return spec;
}

DeltaMaps
createDeltaMaps(EbpfRuntime &rt, const std::string &prefix)
{
    DeltaMaps m;
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), 1, prefix + ".stats");
    return m;
}

ProgramSpec
buildDeltaExit(EbpfRuntime &rt, std::uint32_t tgid,
               const std::vector<std::int64_t> &family, const DeltaMaps &maps,
               unsigned shift, bool guarded)
{
    ProgramSpec spec;
    spec.name = "delta_exit";
    spec.insns = emit::deltaExit(tgid, family, maps.statsFd, shift, guarded);
    spec.maps = rt.mapTable();
    return spec;
}

DeltaMaps
createTenantDeltaMaps(EbpfRuntime &rt, std::uint32_t tenants,
                      const std::string &prefix)
{
    DeltaMaps m;
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), tenants, prefix + ".stats");
    return m;
}

ProgramSpec
buildTenantDeltaExit(EbpfRuntime &rt, const TenantSet &tenants,
                     const std::vector<std::int64_t> &family,
                     const DeltaMaps &maps, unsigned shift, bool guarded)
{
    ProgramSpec spec;
    spec.name = "tenant_delta_exit";
    spec.insns =
        emit::tenantDeltaExit(tenants, family, maps.statsFd, shift, guarded);
    spec.maps = rt.mapTable();
    return spec;
}

int
createTenantSketchMap(EbpfRuntime &rt, std::uint32_t stages,
                      std::uint32_t width, const std::string &prefix)
{
    return rt.createSketchMap(sizeof(std::uint32_t), stages, width,
                              prefix + ".hh");
}

ProgramSpec
buildTenantHeavyHitter(EbpfRuntime &rt, const TenantSet &tenants,
                       const std::vector<std::int64_t> &family, int sketch_fd)
{
    ProgramSpec spec;
    spec.name = "tenant_heavy_hitter";
    spec.insns = emit::tenantHeavyHitter(tenants, family, sketch_fd);
    spec.maps = rt.mapTable();
    return spec;
}

DurationMaps
createTenantDurationMaps(EbpfRuntime &rt, std::uint32_t tenants,
                         const std::string &prefix)
{
    DurationMaps m;
    m.startFd = rt.createHashMap(sizeof(std::uint64_t), sizeof(std::uint64_t),
                                 16384, prefix + ".start");
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), tenants, prefix + ".stats");
    return m;
}

ProgramSpec
buildTenantDurationEnter(EbpfRuntime &rt, const TenantSet &tenants,
                         const DurationMaps &maps)
{
    ProgramSpec spec;
    spec.name = "tenant_duration_enter";
    spec.insns = emit::tenantDurationEnter(tenants, maps.startFd);
    spec.maps = rt.mapTable();
    return spec;
}

ProgramSpec
buildTenantDurationExit(EbpfRuntime &rt, const TenantSet &tenants,
                        const DurationMaps &maps, unsigned shift,
                        bool guarded)
{
    ProgramSpec spec;
    spec.name = "tenant_duration_exit";
    spec.insns = emit::tenantDurationExit(tenants, maps.startFd, maps.statsFd,
                                          shift, guarded);
    spec.maps = rt.mapTable();
    return spec;
}

// The accept emitter computes slot * kFrontDoorBuckets as a shift.
static_assert(kFrontDoorBuckets == 16,
              "frontDoorAccept hardcodes lsh 4 for the slot stride");

FrontDoorMaps
createFrontDoorMaps(EbpfRuntime &rt, std::uint32_t tenants,
                    const std::string &prefix)
{
    FrontDoorMaps m;
    m.ingressFd = rt.createHashMap(sizeof(std::uint64_t),
                                   sizeof(std::uint64_t), 16384,
                                   prefix + ".ingress");
    m.histFd = rt.createArrayMap(sizeof(std::uint64_t),
                                 tenants * kFrontDoorBuckets,
                                 prefix + ".hist");
    return m;
}

ProgramSpec
buildFrontDoorIngress(EbpfRuntime &rt, const FrontDoorMaps &maps)
{
    ProgramSpec spec;
    spec.name = "frontdoor_ingress";
    spec.insns = emit::frontDoorIngress(maps.ingressFd);
    spec.maps = rt.mapTable();
    return spec;
}

ProgramSpec
buildFrontDoorAccept(EbpfRuntime &rt, const TenantSet &tenants,
                     const FrontDoorMaps &maps, unsigned shift)
{
    ProgramSpec spec;
    spec.name = "frontdoor_accept";
    spec.insns = emit::frontDoorAccept(tenants, maps.ingressFd, maps.histFd,
                                       shift);
    spec.maps = rt.mapTable();
    return spec;
}

std::vector<std::uint64_t>
readFrontDoorHist(EbpfRuntime &rt, const FrontDoorMaps &maps,
                  std::uint32_t slot)
{
    std::vector<std::uint64_t> hist(kFrontDoorBuckets, 0);
    auto &arr = rt.arrayAt(maps.histFd);
    for (unsigned k = 0; k < kFrontDoorBuckets; ++k)
        hist[k] = arr.at<std::uint64_t>(slot * kFrontDoorBuckets + k);
    return hist;
}

// The switch emitter computes slot * kRunqlatBuckets as a shift.
static_assert(kRunqlatBuckets == 16,
              "runqlatSwitch hardcodes lsh 4 for the slot stride");

RunqlatMaps
createRunqlatMaps(EbpfRuntime &rt, std::uint32_t tenants,
                  const std::string &prefix)
{
    RunqlatMaps m;
    m.stampFd = rt.createHashMap(sizeof(std::uint64_t),
                                 sizeof(std::uint64_t), 16384,
                                 prefix + ".stamp");
    m.histFd = rt.createArrayMap(sizeof(std::uint64_t),
                                 tenants * kRunqlatBuckets,
                                 prefix + ".hist");
    return m;
}

ProgramSpec
buildRunqlatWakeup(EbpfRuntime &rt, const RunqlatMaps &maps)
{
    ProgramSpec spec;
    spec.name = "runqlat_wakeup";
    spec.insns = emit::runqlatWakeup(maps.stampFd);
    spec.maps = rt.mapTable();
    return spec;
}

ProgramSpec
buildRunqlatSwitch(EbpfRuntime &rt, const TenantSet &tenants,
                   const RunqlatMaps &maps, unsigned shift)
{
    ProgramSpec spec;
    spec.name = "runqlat_switch";
    spec.insns = emit::runqlatSwitch(tenants, maps.stampFd, maps.histFd,
                                     shift);
    spec.maps = rt.mapTable();
    return spec;
}

std::vector<std::uint64_t>
readRunqlatHist(EbpfRuntime &rt, const RunqlatMaps &maps, std::uint32_t slot)
{
    std::vector<std::uint64_t> hist(kRunqlatBuckets, 0);
    auto &arr = rt.arrayAt(maps.histFd);
    for (unsigned k = 0; k < kRunqlatBuckets; ++k)
        hist[k] = arr.at<std::uint64_t>(slot * kRunqlatBuckets + k);
    return hist;
}

std::uint64_t
runqlatQuantile(const std::vector<std::uint64_t> &hist, double q,
                unsigned shift)
{
    return frontDoorQuantile(hist, q, shift);
}

std::uint64_t
frontDoorQuantile(const std::vector<std::uint64_t> &hist, double q,
                  unsigned shift)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : hist)
        total += c;
    if (total == 0)
        return 0;
    const double target = q * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (unsigned k = 0; k < hist.size(); ++k) {
        cum += hist[k];
        if (static_cast<double>(cum) >= target)
            return 1ull << (k + 1 + shift); // bucket upper bound
    }
    return 1ull << (hist.size() + shift);
}

StreamMaps
createStreamMaps(EbpfRuntime &rt, std::uint32_t capacity_bytes,
                 const std::string &prefix)
{
    StreamMaps m;
    m.ringFd = rt.createRingBuf(capacity_bytes, prefix + ".ring");
    return m;
}

ProgramSpec
buildStreamProbe(EbpfRuntime &rt, std::uint32_t tgid, bool exit_point,
                 const StreamMaps &maps)
{
    ProgramSpec spec;
    spec.name = exit_point ? "stream_exit" : "stream_enter";
    spec.insns = emit::streamProbe(tgid, exit_point, maps.ringFd);
    spec.maps = rt.mapTable();
    return spec;
}

} // namespace reqobs::ebpf::probes
