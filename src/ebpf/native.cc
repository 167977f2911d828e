/**
 * @file
 * Shape-specialised native kernels and the recogniser that maps library
 * probes onto them (see native.hh for the contract).
 *
 * Every kernel retires the exact instruction count the interpreter
 * would on the same control-flow path: the counters are accumulated
 * incrementally, one `n += k` per emitted run of straight-line
 * bytecode, mirroring the structure of the probes::emit functions
 * line for line. Fault-injection draws happen at the same helper-call
 * sites in the same order, so differential runs with a shared
 * fault-injector RNG stay aligned across engines.
 */

#include "ebpf/native.hh"

#include <cstring>

#include "ebpf/map_dispatch.hh"
#include "ebpf/probes.hh"
#include "fault/fault.hh"

namespace reqobs::ebpf {

namespace {

/** Sign-extend a 32-bit jump immediate the way the VM does. */
inline std::uint64_t
sx(std::int32_t v)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

inline const std::uint8_t *
bytes(const void *p)
{
    return static_cast<const std::uint8_t *>(p);
}

/** Map update with the VM's injected-pressure gate (-E2BIG on hash). */
inline void
gatedMapUpdate(Map *m, const std::uint8_t *key, const std::uint8_t *val,
               std::uint64_t flags, ExecEnv &env, NativeResult &res)
{
    int rc;
    if (env.fault && m->type() == MapType::Hash &&
        env.fault->injectMapUpdateFail())
        rc = -7; // -E2BIG
    else
        rc = mapUpdateHot(m, key, val, flags);
    if (rc < 0)
        ++res.mapUpdateFails;
}

/** Ring-buffer output with the VM's injected-drop gate (-ENOSPC). */
inline void
gatedRingbufOutput(RingBufMap *rb, const std::uint8_t *data,
                   std::uint32_t len, ExecEnv &env, NativeResult &res)
{
    int rc;
    if (env.fault && env.fault->injectRingbufDrop()) {
        rb->noteDrop(); // capacity pressure: record lost
        rc = -28;       // -ENOSPC
    } else {
        rc = rb->output(data, len);
    }
    if (rc == -28)
        ++res.ringbufDrops;
}

/**
 * Duration accumulate body (13 insns, counted by the caller): the
 * native form of probes.cc emitDurationBody. @p s points at a
 * SyscallStats slot.
 */
inline void
accumulateDuration(std::uint8_t *s, std::uint64_t dur, unsigned shift)
{
    std::uint64_t v;
    std::memcpy(&v, s + 0, 8);
    v += 1;
    std::memcpy(s + 0, &v, 8);
    std::memcpy(&v, s + 8, 8);
    v += dur;
    std::memcpy(s + 8, &v, 8);
    const std::uint64_t q = dur >> (shift & 63);
    std::memcpy(&v, s + 16, 8);
    v += q * q;
    std::memcpy(s + 16, &v, 8);
}

/**
 * Delta accumulate body, the native form of emitDeltaBody. Returns the
 * instructions retired inside the body (3 first-event, 4 inverted-pair
 * under guard, 17 full, 18 full guarded). last_ts is reseeded before
 * the zero check, exactly as the bytecode stores before branching.
 */
inline std::uint64_t
runDeltaBody(std::uint8_t *s, std::uint64_t now, unsigned shift,
             bool guarded)
{
    std::uint64_t last;
    std::memcpy(&last, s + 24, 8);
    std::memcpy(s + 24, &now, 8);
    if (last == 0)
        return 3; // ldxdw, stxdw, jeq taken: first event seeds the chain
    if (guarded && last > now)
        return 4; // + jgt taken: drop the inverted pair
    const std::uint64_t delta = now - last;
    std::uint64_t v;
    std::memcpy(&v, s + 0, 8);
    v += 1;
    std::memcpy(s + 0, &v, 8);
    std::memcpy(&v, s + 8, 8);
    v += delta;
    std::memcpy(s + 8, &v, 8);
    const std::uint64_t q = delta >> (shift & 63);
    std::memcpy(&v, s + 16, 8);
    v += q * q;
    std::memcpy(s + 16, &v, 8);
    return guarded ? 18 : 17;
}

/**
 * Family jeq chain: @p n accumulates one insn per tested comparand,
 * plus the fall-through ja on a miss. The leading ldxdw r8 is counted
 * by the caller.
 */
inline bool
matchFamily(const std::vector<std::uint64_t> &fam, std::uint64_t id,
            std::uint64_t &n)
{
    for (std::size_t i = 0; i < fam.size(); ++i) {
        ++n; // jeq family[i]
        if (id == fam[i])
            return true;
    }
    ++n; // ja out
    return false;
}

/**
 * Tenant-match prologue (probes.cc emitTenantFilter): returns the dense
 * tenant slot, or -1 when the event falls through to "out" (non-tenant
 * tgid, or poll-syscall mismatch under @p match_poll). @p n accumulates
 * the executed instructions.
 */
inline int
matchTenant(const NativeProgram &p, std::uint64_t tgid_hi, std::uint64_t id,
            bool match_poll, std::uint64_t &n)
{
    n += 3; // ldxdw r6, mov r7, rsh r7
    for (std::size_t t = 0; t < p.tenantCmp.size(); ++t) {
        ++n; // jeq tenant t
        if (tgid_hi == p.tenantCmp[t]) {
            if (match_poll) {
                ++n; // jne poll syscall
                if (id != p.pollCmp[t])
                    return -1;
            }
            n += 2; // movImm r7 slot, ja tenant_body
            return static_cast<int>(t);
        }
    }
    ++n; // ja out
    return -1;
}

/**
 * Slot-resolution half of the tenant prologue for probes that preload
 * pid_tgid into r6 themselves (probes.cc emitTenantSlot): same chain as
 * matchTenant minus the leading ldxdw.
 */
inline int
matchTenantSlot(const NativeProgram &p, std::uint64_t tgid_hi,
                std::uint64_t &n)
{
    n += 2; // mov r7, rsh r7 (pid_tgid preloaded in r6)
    for (std::size_t t = 0; t < p.tenantCmp.size(); ++t) {
        ++n; // jeq tenant t
        if (tgid_hi == p.tenantCmp[t]) {
            n += 2; // movImm r7 slot, ja tenant_body
            return static_cast<int>(t);
        }
    }
    ++n; // ja out
    return -1;
}

/**
 * Unrolled log2 threshold chain over 16 buckets (the front-door /
 * runqlat histogram idiom): returns the bucket index and accumulates
 * the retired chain instructions exactly as the bytecode would — one
 * jlt per tested threshold, plus the movImm behind every untaken one.
 */
inline unsigned
log2Bucket16(std::uint64_t v, std::uint64_t &n)
{
    for (unsigned k = 1; k < 16; ++k) {
        ++n; // jlt 1<<k (taken: r6 still holds k-1)
        if (v < (1ull << k))
            return k - 1;
        ++n; // movImm r6 = k
    }
    return 15;
}

// --------------------------------------------------------------- kernels

void
runDurationEnter(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
                 NativeResult &res)
{
    std::uint64_t n = 4; // ldxdw r6, mov r7, rsh, jne tgid
    if ((ctx.pidTgid >> 32) == p.tgidCmp) {
        n += 2; // ldxdw r8 id, jne syscall
        if (ctx.id == p.syscallCmp) {
            // ktime, 2 key/value stores, ld_map_fd, 4 arg insns, mov
            // flags, call update
            n += 10;
            const std::uint64_t key = ctx.pidTgid;
            const std::uint64_t val = env.nowNs;
            gatedMapUpdate(p.start, bytes(&key), bytes(&val), BPF_ANY, env,
                           res);
        }
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runDurationExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
                NativeResult &res)
{
    std::uint64_t n = 4; // tgid filter
    do {
        if ((ctx.pidTgid >> 32) != p.tgidCmp)
            break;
        n += 2; // ldxdw r8 id, jne syscall
        if (ctx.id != p.syscallCmp)
            break;
        n += 1; // ldxdw r9 = ctx->ts
        const std::uint64_t key = ctx.pidTgid;
        n += 6; // stxdw key, ld_map_fd, mov, add, call lookup, jeq null
        std::uint8_t *sv = mapLookupHot(p.start, bytes(&key));
        if (!sv)
            break;
        n += 1; // ldxdw r3 = *start_ns
        std::uint64_t startNs;
        std::memcpy(&startNs, sv, 8);
        if (p.guarded) {
            n += 1; // jgt: skip clock-inverted sample
            if (startNs > ctx.ts)
                break;
        }
        n += 2; // mov r8, sub
        const std::uint64_t dur = ctx.ts - startNs;
        n += 4; // delete: ld_map_fd, mov, add, call
        mapEraseHot(p.start, bytes(&key));
        n += 6; // st idx0, ld_map_fd, mov, add, call lookup, jeq null
        const std::uint32_t idx = 0;
        std::uint8_t *slot = mapLookupHot(p.stats, bytes(&idx));
        if (!slot)
            break;
        n += 13; // duration body
        accumulateDuration(slot, dur, p.shift);
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runDeltaExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
             NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    do {
        if (!matchFamily(p.familyCmp, ctx.id, n))
            break;
        n += 4; // tgid filter
        if ((ctx.pidTgid >> 32) != p.tgidCmp)
            break;
        if (p.guarded) {
            n += 2; // ldxdw ret, jslt: failed syscalls excluded
            if (ctx.ret < 0)
                break;
        }
        n += 1; // ldxdw r9 = ctx->ts
        n += 6; // st idx0, ld_map_fd, mov, add, call lookup, jeq null
        const std::uint32_t idx = 0;
        std::uint8_t *slot = mapLookupHot(p.stats, bytes(&idx));
        if (!slot)
            break;
        n += runDeltaBody(slot, ctx.ts, p.shift, p.guarded);
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDeltaExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
                   NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    do {
        if (!matchFamily(p.familyCmp, ctx.id, n))
            break;
        const int t =
            matchTenant(p, ctx.pidTgid >> 32, 0, /*match_poll=*/false, n);
        if (t < 0)
            break;
        if (p.guarded) {
            n += 2; // ldxdw ret, jslt
            if (ctx.ret < 0)
                break;
        }
        n += 1; // ldxdw r9 = ctx->ts
        n += 6; // stx slot, ld_map_fd, mov, add, call lookup, jeq null
        const std::uint32_t idx = static_cast<std::uint32_t>(t);
        std::uint8_t *slot = mapLookupHot(p.stats, bytes(&idx));
        if (!slot)
            break;
        n += runDeltaBody(slot, ctx.ts, p.shift, p.guarded);
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantHeavyHitter(const NativeProgram &p, const TraceCtx &ctx,
                     ExecEnv &env, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    do {
        if (!matchFamily(p.familyCmp, ctx.id, n))
            break;
        const int t =
            matchTenant(p, ctx.pidTgid >> 32, 0, /*match_poll=*/false, n);
        if (t < 0)
            break;
        n += 6; // stx key, ld_map_fd, mov, add, call lookup, jeq insert
        const std::uint32_t key = static_cast<std::uint32_t>(t);
        std::uint8_t *v = mapLookupHot(p.sketch, bytes(&key));
        if (v) {
            n += 4; // ldxdw, addImm, stxdw, ja out: resident increment
            std::uint64_t c;
            std::memcpy(&c, v, 8);
            c += 1;
            std::memcpy(v, &c, 8);
        } else {
            // stImm 1, ld_map_fd, mov, add, mov, add, movImm flags, call
            n += 8;
            const std::uint64_t one = 1;
            gatedMapUpdate(p.sketch, bytes(&key), bytes(&one), 0, env, res);
        }
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDurationEnter(const NativeProgram &p, const TraceCtx &ctx,
                       ExecEnv &env, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id (pre-prologue: stubs match poll)
    const int t =
        matchTenant(p, ctx.pidTgid >> 32, ctx.id, /*match_poll=*/true, n);
    if (t >= 0) {
        // ktime, 2 stores, ld_map_fd, 4 arg insns, mov flags, call
        n += 10;
        const std::uint64_t key = ctx.pidTgid;
        const std::uint64_t val = env.nowNs;
        gatedMapUpdate(p.start, bytes(&key), bytes(&val), BPF_ANY, env, res);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDurationExit(const NativeProgram &p, const TraceCtx &ctx,
                      ExecEnv &, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    do {
        const int t =
            matchTenant(p, ctx.pidTgid >> 32, ctx.id, /*match_poll=*/true, n);
        if (t < 0)
            break;
        n += 1; // ldxdw r9 = ctx->ts
        const std::uint64_t key = ctx.pidTgid;
        n += 6; // stxdw key, ld_map_fd, mov, add, call lookup, jeq null
        std::uint8_t *sv = mapLookupHot(p.start, bytes(&key));
        if (!sv)
            break;
        n += 1; // ldxdw r3 = *start_ns
        std::uint64_t startNs;
        std::memcpy(&startNs, sv, 8);
        if (p.guarded) {
            n += 1; // jgt
            if (startNs > ctx.ts)
                break;
        }
        n += 2; // mov r8, sub
        const std::uint64_t dur = ctx.ts - startNs;
        n += 4; // delete: ld_map_fd, mov, add, call
        mapEraseHot(p.start, bytes(&key));
        n += 6; // stx slot, ld_map_fd, mov, add, call lookup, jeq null
        const std::uint32_t idx = static_cast<std::uint32_t>(t);
        std::uint8_t *slot = mapLookupHot(p.stats, bytes(&idx));
        if (!slot)
            break;
        n += 13; // duration body
        accumulateDuration(slot, dur, p.shift);
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

/** stamp[ctx->id] = ctx->ts: runqlat's wakeup half and the front-door
 *  ingress probe, which emit the same bytecode. */
void
runStampUpdate(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
               NativeResult &res)
{
    // 2 ctx loads + 2 stores, ld_map_fd, 4 arg insns, mov flags, call
    std::uint64_t n = 11;
    const std::uint64_t key = ctx.id;
    const std::uint64_t val = ctx.ts;
    gatedMapUpdate(p.start, bytes(&key), bytes(&val), BPF_ANY, env, res);
    res.insns += n + 2; // out: mov r0, exit
}

void
runRunqlatSwitch(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
                 NativeResult &res)
{
    std::uint64_t n = 5; // 4 ctx loads + jne prev-state
    if (ctx.ret == 0) {
        // Preempted prev: 2 stores, ld_map_fd, 4 arg insns, mov flags,
        // call update
        n += 9;
        const std::uint64_t key = ctx.id;
        const std::uint64_t val = ctx.ts;
        gatedMapUpdate(p.start, bytes(&key), bytes(&val), BPF_ANY, env,
                       res);
    }
    do {
        const int t = matchTenantSlot(p, ctx.pidTgid >> 32, n);
        if (t < 0)
            break;
        n += 4; // mov r8, lsh, rsh, stxdw key
        const std::uint64_t key = ctx.pidTgid & 0xffffffffull;
        n += 5; // ld_map_fd, mov, add, call lookup, jeq null
        std::uint8_t *sv = mapLookupHot(p.start, bytes(&key));
        if (!sv)
            break;
        n += 1; // ldxdw r3 = *wake_ns
        std::uint64_t wakeNs;
        std::memcpy(&wakeNs, sv, 8);
        n += 2; // mov r8, sub
        const std::uint64_t wait = ctx.ts - wakeNs;
        n += 4; // delete: ld_map_fd, mov, add, call
        mapEraseHot(p.start, bytes(&key));
        n += 2; // rsh shift, movImm r6 0
        const unsigned bucket = log2Bucket16(wait >> (p.shift & 63), n);
        n += 2; // lsh r7, add
        const std::uint32_t idx =
            static_cast<std::uint32_t>(t) * probes::kRunqlatBuckets +
            bucket;
        n += 6; // stx idx, ld_map_fd, mov, add, call lookup, jeq null
        std::uint8_t *slot = mapLookupHot(p.hist, bytes(&idx));
        if (!slot)
            break;
        n += 3; // ldxdw, addImm, stxdw
        std::uint64_t c;
        std::memcpy(&c, slot, 8);
        c += 1;
        std::memcpy(slot, &c, 8);
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runStream(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
          NativeResult &res)
{
    std::uint64_t n = 4; // tgid filter
    if ((ctx.pidTgid >> 32) == p.tgidCmp) {
        // 8 record-assembly insns + ld_map_fd, mov, add, 2 movImm, call
        n += 14;
        probes::StreamRecord rec;
        rec.id = ctx.id;
        rec.pidTgid = ctx.pidTgid;
        rec.ts = ctx.ts;
        rec.ret = ctx.ret;
        rec.point = p.exitPoint ? 1 : 0;
        gatedRingbufOutput(p.ring, bytes(&rec), sizeof(rec), env, res);
    }
    res.insns += n + 2; // out: mov r0, exit
}

// ------------------------------------------------------------ recogniser

constexpr std::uint8_t kJneK = BPF_JMP | BPF_JNE | BPF_K;
constexpr std::uint8_t kJeqK = BPF_JMP | BPF_JEQ | BPF_K;
constexpr std::uint8_t kRshK = BPF_ALU64 | BPF_RSH | BPF_K;

/**
 * The candidate parameters every recogniser keys on, scanned once per
 * program. Each recogniser re-emits from them and compares bytes, so a
 * wrong guess can only fail to match, never mis-compile.
 */
struct Features
{
    /** Immediates of jne/jeq-by-constant on r7 / r8, stream order. */
    std::vector<std::int32_t> jneR7, jneR8, jeqR7, jeqR8;
    /** Map fds referenced by ld_map_fd pseudo instructions. */
    std::vector<int> fds;
    /**
     * Immediate of the last rsh-by-constant: the filter prologue right
     * shifts by 32, every accumulate body shifts by the probe's
     * quantisation amount afterwards — so for the shapes that need it,
     * the last one is the shift.
     */
    int shift = -1;
};

Features
scan(const std::vector<Insn> &insns)
{
    Features f;
    for (std::size_t i = 0; i < insns.size(); ++i) {
        const Insn &in = insns[i];
        if (in.opcode == kJneK && in.dst == R7)
            f.jneR7.push_back(in.imm);
        else if (in.opcode == kJneK && in.dst == R8)
            f.jneR8.push_back(in.imm);
        else if (in.opcode == kJeqK && in.dst == R7)
            f.jeqR7.push_back(in.imm);
        else if (in.opcode == kJeqK && in.dst == R8)
            f.jeqR8.push_back(in.imm);
        else if (in.opcode == kRshK)
            f.shift = in.imm;
        else if (i + 1 < insns.size() && in.cls() == BPF_LD &&
                 in.memSize() == BPF_DW && in.src == BPF_PSEUDO_MAP_FD)
            f.fds.push_back(in.imm);
    }
    return f;
}

bool
sameInsns(const std::vector<Insn> &a, const std::vector<Insn> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Insn)) == 0);
}

Map *
findMap(const ProgramSpec &spec, int fd)
{
    auto it = spec.maps.find(fd);
    return it == spec.maps.end() ? nullptr : it->second;
}

/** pid_tgid (u64) -> ts (u64) start map. */
bool
startMapOk(const Map *m)
{
    return m && m->keySize() == 8 && m->valueSize() == 8;
}

/** index (u32) -> SyscallStats stats array. */
bool
statsMapOk(const Map *m)
{
    return m && m->keySize() == 4 &&
           m->valueSize() == sizeof(probes::SyscallStats);
}

/** slot (u32) -> count (u64) sketch. */
bool
sketchMapOk(const Map *m)
{
    return m && m->keySize() == 4 && m->valueSize() == 8;
}

/** index (u32) -> count (u64) log2-histogram array. */
bool
histMapOk(const Map *m)
{
    return m && m->keySize() == 4 && m->valueSize() == 8;
}

std::vector<std::uint64_t>
sxAll(const std::vector<std::int32_t> &v)
{
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (std::int32_t x : v)
        out.push_back(sx(x));
    return out;
}

bool
matchDurationEnter(const ProgramSpec &spec, const Features &f,
                   NativeProgram *out)
{
    if (f.jneR7.size() != 1 || f.jneR8.size() != 1 || f.fds.size() != 1)
        return false;
    if (!sameInsns(spec.insns, probes::emit::durationEnter(
                                   static_cast<std::uint32_t>(f.jneR7[0]),
                                   f.jneR8[0], f.fds[0])))
        return false;
    Map *start = findMap(spec, f.fds[0]);
    if (!startMapOk(start))
        return false;
    out->fn = runDurationEnter;
    out->shape = "duration_enter";
    out->tgidCmp = sx(f.jneR7[0]);
    out->syscallCmp = sx(f.jneR8[0]);
    out->start = start;
    return true;
}

bool
matchDurationExit(const ProgramSpec &spec, const Features &f,
                  NativeProgram *out)
{
    if (f.jneR7.size() != 1 || f.jneR8.size() != 1 || f.fds.size() != 3 ||
        f.shift < 0)
        return false;
    for (bool g : {false, true}) {
        if (!sameInsns(spec.insns,
                       probes::emit::durationExit(
                           static_cast<std::uint32_t>(f.jneR7[0]),
                           f.jneR8[0], f.fds[0], f.fds[2],
                           static_cast<unsigned>(f.shift), g)))
            continue;
        Map *start = findMap(spec, f.fds[0]);
        Map *stats = findMap(spec, f.fds[2]);
        if (!startMapOk(start) || !statsMapOk(stats))
            return false;
        out->fn = runDurationExit;
        out->shape = "duration_exit";
        out->tgidCmp = sx(f.jneR7[0]);
        out->syscallCmp = sx(f.jneR8[0]);
        out->shift = static_cast<unsigned>(f.shift);
        out->guarded = g;
        out->start = start;
        out->stats = stats;
        return true;
    }
    return false;
}

bool
matchDeltaExit(const ProgramSpec &spec, const Features &f,
               NativeProgram *out)
{
    if (f.jeqR8.empty() || f.jneR7.size() != 1 || f.fds.size() != 1 ||
        f.shift < 0)
        return false;
    const std::vector<std::int64_t> family(f.jeqR8.begin(), f.jeqR8.end());
    for (bool g : {false, true}) {
        if (!sameInsns(spec.insns,
                       probes::emit::deltaExit(
                           static_cast<std::uint32_t>(f.jneR7[0]), family,
                           f.fds[0], static_cast<unsigned>(f.shift), g)))
            continue;
        Map *stats = findMap(spec, f.fds[0]);
        if (!statsMapOk(stats))
            return false;
        out->fn = runDeltaExit;
        out->shape = "delta_exit";
        out->tgidCmp = sx(f.jneR7[0]);
        out->shift = static_cast<unsigned>(f.shift);
        out->guarded = g;
        out->stats = stats;
        out->familyCmp = sxAll(f.jeqR8);
        return true;
    }
    return false;
}

/** Tenant set as re-emission input: tgids from the jeq chain, polls
 * from the stub jne chain (empty unless the shape matches polls). */
probes::TenantSet
tenantSetFrom(const std::vector<std::int32_t> &tgids,
              const std::vector<std::int32_t> &polls)
{
    probes::TenantSet ts;
    for (std::int32_t t : tgids)
        ts.tgids.push_back(static_cast<std::uint32_t>(t));
    if (polls.empty())
        ts.pollSyscalls.assign(tgids.size(), 0); // unused by the emitter
    else
        for (std::int32_t p : polls)
            ts.pollSyscalls.push_back(p);
    return ts;
}

bool
matchTenantDeltaExit(const ProgramSpec &spec, const Features &f,
                     NativeProgram *out)
{
    if (f.jeqR8.empty() || f.jeqR7.empty() || f.fds.size() != 1 ||
        f.shift < 0)
        return false;
    const std::vector<std::int64_t> family(f.jeqR8.begin(), f.jeqR8.end());
    const probes::TenantSet ts = tenantSetFrom(f.jeqR7, {});
    for (bool g : {false, true}) {
        if (!sameInsns(spec.insns, probes::emit::tenantDeltaExit(
                                       ts, family, f.fds[0],
                                       static_cast<unsigned>(f.shift), g)))
            continue;
        Map *stats = findMap(spec, f.fds[0]);
        if (!statsMapOk(stats))
            return false;
        out->fn = runTenantDeltaExit;
        out->shape = "tenant_delta_exit";
        out->shift = static_cast<unsigned>(f.shift);
        out->guarded = g;
        out->stats = stats;
        out->familyCmp = sxAll(f.jeqR8);
        out->tenantCmp = sxAll(f.jeqR7);
        return true;
    }
    return false;
}

bool
matchTenantHeavyHitter(const ProgramSpec &spec, const Features &f,
                       NativeProgram *out)
{
    if (f.jeqR8.empty() || f.jeqR7.empty() || f.fds.size() != 2)
        return false;
    const std::vector<std::int64_t> family(f.jeqR8.begin(), f.jeqR8.end());
    if (!sameInsns(spec.insns,
                   probes::emit::tenantHeavyHitter(tenantSetFrom(f.jeqR7, {}),
                                                   family, f.fds[0])))
        return false;
    Map *sketch = findMap(spec, f.fds[0]);
    if (!sketchMapOk(sketch))
        return false;
    out->fn = runTenantHeavyHitter;
    out->shape = "tenant_heavy_hitter";
    out->sketch = sketch;
    out->familyCmp = sxAll(f.jeqR8);
    out->tenantCmp = sxAll(f.jeqR7);
    return true;
}

bool
matchTenantDurationEnter(const ProgramSpec &spec, const Features &f,
                         NativeProgram *out)
{
    if (f.jeqR7.empty() || f.jneR8.size() != f.jeqR7.size() ||
        f.fds.size() != 1)
        return false;
    if (!sameInsns(spec.insns, probes::emit::tenantDurationEnter(
                                   tenantSetFrom(f.jeqR7, f.jneR8),
                                   f.fds[0])))
        return false;
    Map *start = findMap(spec, f.fds[0]);
    if (!startMapOk(start))
        return false;
    out->fn = runTenantDurationEnter;
    out->shape = "tenant_duration_enter";
    out->start = start;
    out->tenantCmp = sxAll(f.jeqR7);
    out->pollCmp = sxAll(f.jneR8);
    return true;
}

bool
matchTenantDurationExit(const ProgramSpec &spec, const Features &f,
                        NativeProgram *out)
{
    if (f.jeqR7.empty() || f.jneR8.size() != f.jeqR7.size() ||
        f.fds.size() != 3 || f.shift < 0)
        return false;
    const probes::TenantSet ts = tenantSetFrom(f.jeqR7, f.jneR8);
    for (bool g : {false, true}) {
        if (!sameInsns(spec.insns, probes::emit::tenantDurationExit(
                                       ts, f.fds[0], f.fds[2],
                                       static_cast<unsigned>(f.shift), g)))
            continue;
        Map *start = findMap(spec, f.fds[0]);
        Map *stats = findMap(spec, f.fds[2]);
        if (!startMapOk(start) || !statsMapOk(stats))
            return false;
        out->fn = runTenantDurationExit;
        out->shape = "tenant_duration_exit";
        out->shift = static_cast<unsigned>(f.shift);
        out->guarded = g;
        out->start = start;
        out->stats = stats;
        out->tenantCmp = sxAll(f.jeqR7);
        out->pollCmp = sxAll(f.jneR8);
        return true;
    }
    return false;
}

bool
matchStream(const ProgramSpec &spec, const Features &f, NativeProgram *out)
{
    if (f.jneR7.size() != 1 || f.fds.size() != 1)
        return false;
    for (bool exit_point : {false, true}) {
        if (!sameInsns(spec.insns, probes::emit::streamProbe(
                                       static_cast<std::uint32_t>(f.jneR7[0]),
                                       exit_point, f.fds[0])))
            continue;
        Map *ring = findMap(spec, f.fds[0]);
        if (!ring || ring->type() != MapType::RingBuf)
            return false;
        out->fn = runStream;
        out->shape = exit_point ? "stream_exit" : "stream_enter";
        out->tgidCmp = sx(f.jneR7[0]);
        out->exitPoint = exit_point;
        out->ring = static_cast<RingBufMap *>(ring);
        return true;
    }
    return false;
}

bool
matchStampUpdate(const ProgramSpec &spec, const Features &f,
                 NativeProgram *out)
{
    if (f.fds.size() != 1)
        return false;
    if (!sameInsns(spec.insns, probes::emit::runqlatWakeup(f.fds[0])))
        return false;
    Map *stamp = findMap(spec, f.fds[0]);
    if (!startMapOk(stamp))
        return false;
    out->fn = runStampUpdate;
    out->shape = "stamp_update";
    out->start = stamp;
    return true;
}

bool
matchRunqlatSwitch(const ProgramSpec &spec, const Features &f,
                   NativeProgram *out)
{
    if (f.jeqR7.empty() || f.fds.size() != 4 || f.shift < 0)
        return false;
    // Stream order: prev re-stamp, lookup, delete (all the stamp map),
    // then the histogram.
    if (f.fds[0] != f.fds[1] || f.fds[0] != f.fds[2])
        return false;
    if (!sameInsns(spec.insns,
                   probes::emit::runqlatSwitch(
                       tenantSetFrom(f.jeqR7, {}), f.fds[0], f.fds[3],
                       static_cast<unsigned>(f.shift))))
        return false;
    Map *stamp = findMap(spec, f.fds[0]);
    Map *hist = findMap(spec, f.fds[3]);
    if (!startMapOk(stamp) || !histMapOk(hist))
        return false;
    out->fn = runRunqlatSwitch;
    out->shape = "runqlat_switch";
    out->shift = static_cast<unsigned>(f.shift);
    out->start = stamp;
    out->hist = hist;
    out->tenantCmp = sxAll(f.jeqR7);
    return true;
}

} // namespace

bool
compileNative(const ProgramSpec &spec, NativeProgram *out)
{
    // Every recogniser is tried, whatever the program is called: the
    // byte-exact re-emission check is the only authority.
    using Matcher =
        bool (*)(const ProgramSpec &, const Features &, NativeProgram *);
    static constexpr Matcher kMatchers[] = {
        matchDurationEnter,       matchDurationExit,
        matchDeltaExit,           matchTenantDeltaExit,
        matchTenantHeavyHitter,   matchTenantDurationEnter,
        matchTenantDurationExit,  matchStream,
        matchStampUpdate,         matchRunqlatSwitch,
    };
    const Features f = scan(spec.insns);
    *out = NativeProgram{};
    for (Matcher m : kMatchers)
        if (m(spec, f, out))
            return true;
    return false;
}

} // namespace reqobs::ebpf
