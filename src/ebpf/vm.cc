#include "ebpf/vm.hh"

#include <cstdio>
#include <cstring>

#include "ebpf/map_dispatch.hh"
#include "fault/fault.hh"

namespace reqobs::ebpf {

namespace {

int
accessSize(std::uint8_t size_field)
{
    switch (size_field) {
      case BPF_B: return 1;
      case BPF_H: return 2;
      case BPF_W: return 4;
      case BPF_DW: return 8;
    }
    return 0;
}

RunResult &
failRun(RunResult &res, std::size_t pc, const char *msg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "insn %zu: %s", pc, msg);
    res.aborted = true;
    res.error = buf;
    return res;
}

} // namespace

Vm::Vm(std::uint64_t max_insns) : maxInsns_(max_insns), stack_(512, 0)
{
    regions_.reserve(8);
    regions_.resize(2);
    regions_[0] = Region{stack_.data(), stack_.size(), true};
}

void
Vm::beginRun(std::uint8_t *ctx, std::uint32_t ctx_len)
{
    std::memset(stack_.data(), 0, stack_.size());
    // In-place assignment instead of clear+push_back keeps this
    // allocation-free and branch-light on the per-event hot path. The
    // stack region is invariant, so only the ctx slot is rewritten once
    // both slots exist (the constructor sizes the vector).
    regions_.resize(2);
    regions_[1] = Region{ctx, ctx_len, false};
}

void
Vm::addMapValueRegion(std::uint8_t *base, std::size_t size)
{
    // Repeated lookups of the same entry dominate, and the match is
    // almost always the most recently added region — scan backwards and
    // skip the fixed stack/ctx slots, which are never map values.
    for (std::size_t i = regions_.size(); i > 2;) {
        const Region &r = regions_[--i];
        if (r.base == base && r.size == size)
            return;
    }
    regions_.push_back(Region{base, size, true});
}

std::uint8_t *
Vm::checkAccess(std::uint64_t addr, int len, bool write) const
{
    for (const Region &r : regions_) {
        const std::uint64_t base = reinterpret_cast<std::uint64_t>(r.base);
        if (addr >= base && addr + len <= base + r.size) {
            if (write && !r.writable)
                return nullptr;
            return reinterpret_cast<std::uint8_t *>(addr);
        }
    }
    return nullptr;
}

RunResult
Vm::run(const ProgramSpec &prog, std::uint8_t *ctx, std::uint32_t ctx_len,
        ExecEnv &env)
{
    RunResult res;
    std::uint64_t reg[kNumRegs] = {};
    beginRun(ctx, ctx_len);

    reg[R1] = reinterpret_cast<std::uint64_t>(ctx);
    reg[R10] = reinterpret_cast<std::uint64_t>(stack_.data() + stack_.size());

    std::size_t pc = 0;
    for (;;) {
        if (pc >= prog.insns.size())
            return failRun(res, pc, "pc out of bounds");
        if (res.insns++ >= maxInsns_)
            return failRun(res, pc, "instruction budget exhausted");

        const Insn &insn = prog.insns[pc];
        const std::uint8_t cls = insn.cls();

        if (cls == BPF_ALU64 || cls == BPF_ALU) {
            const std::uint8_t op = insn.aluOp();
            std::uint64_t src = insn.isImmSrc()
                                    ? static_cast<std::uint64_t>(
                                          static_cast<std::int64_t>(insn.imm))
                                    : reg[insn.src];
            std::uint64_t &dst = reg[insn.dst];
            if (cls == BPF_ALU)
                src &= 0xffffffffu;
            std::uint64_t a = cls == BPF_ALU ? (dst & 0xffffffffu) : dst;
            switch (op) {
              case BPF_MOV: a = src; break;
              case BPF_ADD: a += src; break;
              case BPF_SUB: a -= src; break;
              case BPF_MUL: a *= src; break;
              case BPF_DIV: a = src ? a / src : 0; break;
              case BPF_MOD: a = src ? a % src : a; break;
              case BPF_OR: a |= src; break;
              case BPF_AND: a &= src; break;
              case BPF_XOR: a ^= src; break;
              case BPF_LSH: a <<= (src & (cls == BPF_ALU ? 31 : 63)); break;
              case BPF_RSH: a >>= (src & (cls == BPF_ALU ? 31 : 63)); break;
              case BPF_ARSH:
                if (cls == BPF_ALU) {
                    a = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a) >> (src & 31));
                } else {
                    a = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(a) >> (src & 63));
                }
                break;
              case BPF_NEG: a = ~a + 1; break;
              default:
                return failRun(res, pc, "bad ALU op");
            }
            dst = cls == BPF_ALU ? (a & 0xffffffffu) : a;
            ++pc;
            continue;
        }

        if (cls == BPF_LD) {
            // LD_IMM64 (two slots).
            if (insn.memSize() != BPF_DW || pc + 1 >= prog.insns.size())
                return failRun(res, pc, "bad ld_imm64");
            if (insn.src == BPF_PSEUDO_MAP_FD) {
                auto it = prog.maps.find(insn.imm);
                if (it == prog.maps.end())
                    return failRun(res, pc, "unknown map fd");
                reg[insn.dst] = reinterpret_cast<std::uint64_t>(it->second);
            } else {
                reg[insn.dst] =
                    static_cast<std::uint32_t>(insn.imm) |
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         prog.insns[pc + 1].imm))
                     << 32);
            }
            pc += 2;
            continue;
        }

        if (cls == BPF_LDX) {
            const int len = accessSize(insn.memSize());
            const std::uint64_t addr = reg[insn.src] + insn.off;
            const std::uint8_t *p = checkAccess(addr, len, false);
            if (!p)
                return failRun(res, pc, "invalid load address");
            std::uint64_t v = 0;
            std::memcpy(&v, p, len);
            reg[insn.dst] = v;
            ++pc;
            continue;
        }

        if (cls == BPF_STX || cls == BPF_ST) {
            const int len = accessSize(insn.memSize());
            const std::uint64_t addr = reg[insn.dst] + insn.off;
            std::uint8_t *p = checkAccess(addr, len, true);
            if (!p)
                return failRun(res, pc, "invalid store address");
            const std::uint64_t v =
                cls == BPF_STX ? reg[insn.src]
                               : static_cast<std::uint64_t>(
                                     static_cast<std::int64_t>(insn.imm));
            std::memcpy(p, &v, len);
            ++pc;
            continue;
        }

        if (cls == BPF_JMP) {
            const std::uint8_t op = insn.aluOp();
            if (op == BPF_EXIT) {
                res.r0 = reg[R0];
                totalInsns_ += res.insns;
                return res;
            }
            if (op == BPF_CALL) {
                const char *err = nullptr;
                switch (insn.imm) {
                  case helper::kKtimeGetNs:
                    reg[R0] = env.nowNs;
                    break;
                  case helper::kGetCurrentPidTgid:
                    reg[R0] = env.pidTgid;
                    break;
                  case helper::kGetPrandomU32:
                    reg[R0] = env.rng
                                  ? static_cast<std::uint32_t>(env.rng->next())
                                  : 0;
                    break;
                  case helper::kMapLookupElem:
                    err = callMapLookup(reg);
                    break;
                  case helper::kMapUpdateElem:
                    err = callMapUpdate(reg, env, res);
                    break;
                  case helper::kMapDeleteElem:
                    err = callMapDelete(reg);
                    break;
                  case helper::kRingbufOutput:
                    err = callRingbufOutput(reg, env, res);
                    break;
                  default:
                    return failRun(res, pc, "unknown helper");
                }
                if (err)
                    return failRun(res, pc, err);
                reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;
                ++pc;
                continue;
            }

            const std::uint64_t a = reg[insn.dst];
            const std::uint64_t b =
                insn.isImmSrc() ? static_cast<std::uint64_t>(
                                      static_cast<std::int64_t>(insn.imm))
                                : reg[insn.src];
            const std::int64_t sa = static_cast<std::int64_t>(a);
            const std::int64_t sb = static_cast<std::int64_t>(b);
            bool taken;
            switch (op) {
              case BPF_JA: taken = true; break;
              case BPF_JEQ: taken = a == b; break;
              case BPF_JNE: taken = a != b; break;
              case BPF_JGT: taken = a > b; break;
              case BPF_JGE: taken = a >= b; break;
              case BPF_JLT: taken = a < b; break;
              case BPF_JLE: taken = a <= b; break;
              case BPF_JSGT: taken = sa > sb; break;
              case BPF_JSGE: taken = sa >= sb; break;
              case BPF_JSLT: taken = sa < sb; break;
              case BPF_JSLE: taken = sa <= sb; break;
              case BPF_JSET: taken = (a & b) != 0; break;
              default:
                return failRun(res, pc, "bad jump op");
            }
            pc = taken ? pc + 1 + insn.off : pc + 1;
            continue;
        }

        return failRun(res, pc, "unsupported instruction class");
    }
}

const char *
Vm::callMapLookup(std::uint64_t *reg)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    if (!key)
        return "map_lookup: bad key pointer";
    std::uint8_t *val = mapLookupHot(map, key);
    reg[R0] = reinterpret_cast<std::uint64_t>(val);
    if (val)
        addMapValueRegion(val, map->valueSize());
    return nullptr;
}

const char *
Vm::callMapUpdate(std::uint64_t *reg, ExecEnv &env, RunResult &res)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    const std::uint8_t *val = checkAccess(reg[R3], map->valueSize(), false);
    if (!key || !val)
        return "map_update: bad pointer";
    // Injected map pressure mimics a full hash table (-E2BIG); array
    // slots cannot fill, so only hash updates are eligible.
    int rc;
    if (env.fault && map->type() == MapType::Hash &&
        env.fault->injectMapUpdateFail()) {
        rc = -7; // -E2BIG
    } else {
        rc = mapUpdateHot(map, key, val, reg[R4]);
    }
    if (rc < 0)
        ++res.mapUpdateFails;
    reg[R0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(rc));
    return nullptr;
}

const char *
Vm::callMapDelete(std::uint64_t *reg)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    if (!key)
        return "map_delete: bad key pointer";
    reg[R0] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(mapEraseHot(map, key)));
    return nullptr;
}

const char *
Vm::callRingbufOutput(std::uint64_t *reg, ExecEnv &env, RunResult &res)
{
    auto *rb = reinterpret_cast<RingBufMap *>(reg[R1]);
    const std::uint32_t len = static_cast<std::uint32_t>(reg[R3]);
    const std::uint8_t *data =
        checkAccess(reg[R2], static_cast<int>(len), false);
    if (!data)
        return "ringbuf_output: bad data pointer";
    int rc;
    if (env.fault && env.fault->injectRingbufDrop()) {
        rb->noteDrop(); // capacity pressure: record lost
        rc = -28;       // -ENOSPC
    } else {
        rc = rb->output(data, len);
    }
    if (rc == -28)
        ++res.ringbufDrops;
    reg[R0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(rc));
    return nullptr;
}

} // namespace reqobs::ebpf
