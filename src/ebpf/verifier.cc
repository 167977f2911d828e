#include "ebpf/verifier.hh"

#include <array>
#include <bit>
#include <bitset>
#include <cstdio>
#include <vector>

#include "ebpf/helpers.hh"

namespace reqobs::ebpf {

namespace {

/** Abstract type of a register value. */
enum class RegType : std::uint8_t
{
    Uninit,
    Scalar,
    PtrCtx,
    PtrStack,
    PtrMapHandle,
    PtrMapValueOrNull,
    PtrMapValue,
};

/** Abstract register contents. */
struct RegState
{
    RegType type = RegType::Uninit;
    const Map *map = nullptr; ///< for handle / (nullable) value pointers
    std::int32_t off = 0;     ///< pointer offset from the base
    bool known = false;       ///< scalar with compile-time-known value
    std::uint64_t value = 0;

    bool
    operator==(const RegState &o) const
    {
        return type == o.type && map == o.map && off == o.off &&
               known == o.known && (!known || value == o.value);
    }
};

/** Abstract machine state at one program point. */
struct VState
{
    std::array<RegState, kNumRegs> regs;
    std::bitset<64> stackInit; ///< 8-byte slots, slot 0 = [-8, 0)

    bool
    operator==(const VState &o) const
    {
        return regs == o.regs && stackInit == o.stackInit;
    }

    /** Agrees with operator==: a value counts only when known. */
    std::uint64_t
    hash() const
    {
        std::uint64_t h = stackInit.to_ullong();
        for (const RegState &r : regs) {
            const std::uint64_t w =
                (static_cast<std::uint64_t>(r.type) |
                 static_cast<std::uint64_t>(r.known) << 8 |
                 static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.off))
                     << 32) +
                reinterpret_cast<std::uintptr_t>(r.map) +
                (r.known ? r.value * 0x9E3779B97F4A7C15ULL : 0);
            h = std::rotl(h, 7) ^ w;
        }
        return h;
    }
};

/**
 * Every distinct state one verification enqueued, indexed by enqueue
 * order. The states enqueued at one pc form a chain from head[pc]
 * through their links; a link carries its state's pc and hash, and the
 * hash is compared before operator==.
 */
struct Arena
{
    static constexpr std::uint32_t kNone = ~0u;

    struct Link
    {
        std::uint64_t hash;
        std::uint32_t next; ///< state enqueued before it at its pc
        std::uint32_t pc;
    };

    std::vector<VState> states;
    std::vector<Link> links;
    std::vector<std::uint32_t> head; ///< per pc: last state enqueued
    std::vector<std::uint32_t> work; ///< LIFO stack of arena indices
};

/** Verification engine: one pass over all reachable paths. */
class Engine
{
  public:
    Engine(const ProgramSpec &prog, const VerifierLimits &limits,
           Arena &arena)
        : prog_(prog), limits_(limits), arena_(arena)
    {}

    VerifyResult
    run()
    {
        VerifyResult res;
        if (prog_.insns.empty())
            return fail(0, "empty program");
        if (prog_.insns.size() > limits_.maxInsns)
            return fail(0, "program too large (%zu > %zu insns)",
                        prog_.insns.size(), limits_.maxInsns);

        arena_.states.clear();
        arena_.links.clear();
        arena_.work.clear();
        arena_.head.assign(prog_.insns.size(), Arena::kNone);
        VState init;
        init.regs[R1].type = RegType::PtrCtx;
        init.regs[R10].type = RegType::PtrStack;
        // r10 points at the top of the (empty) frame; offsets are negative.
        enqueue(0, init);

        while (!arena_.work.empty()) {
            const std::uint32_t i = arena_.work.back();
            arena_.work.pop_back();
            const std::size_t pc = arena_.links[i].pc;
            if (++res.statesExplored > limits_.maxStates)
                return fail(pc, "program too complex (state cap reached)");
            if (!step(pc, arena_.states[i])) {
                res.error = error_;
                return res;
            }
        }
        res.ok = true;
        return res;
    }

  private:
    const ProgramSpec &prog_;
    const VerifierLimits &limits_;
    Arena &arena_;
    std::string error_;

    template <typename... Args>
    VerifyResult
    fail(std::size_t pc, const char *fmt, Args... args)
    {
        setError(pc, fmt, args...);
        VerifyResult r;
        r.error = error_;
        return r;
    }

    template <typename... Args>
    bool
    setError(std::size_t pc, const char *fmt, Args... args)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        char head[64];
        std::snprintf(head, sizeof(head), "insn %zu: ", pc);
        error_ = std::string(head) + buf;
        return false;
    }

    bool
    enqueue(std::size_t pc, const VState &state)
    {
        if (pc >= prog_.insns.size())
            return setError(pc, "control flow falls off the program");
        const std::uint64_t h = state.hash();
        std::uint32_t &head = arena_.head[pc];
        for (std::uint32_t i = head; i != Arena::kNone;
             i = arena_.links[i].next) {
            if (arena_.links[i].hash == h && arena_.states[i] == state)
                return true; // already explored from an equal state
        }
        const auto i = static_cast<std::uint32_t>(arena_.states.size());
        arena_.states.push_back(state);
        arena_.links.push_back({h, head, static_cast<std::uint32_t>(pc)});
        head = i;
        arena_.work.push_back(i);
        return true;
    }

    static bool
    isPointer(const RegState &r)
    {
        return r.type == RegType::PtrCtx || r.type == RegType::PtrStack ||
               r.type == RegType::PtrMapHandle ||
               r.type == RegType::PtrMapValue ||
               r.type == RegType::PtrMapValueOrNull;
    }

    static int
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

    /** Check [off, off+len) is a valid stack range. */
    bool
    stackRangeOk(std::int32_t off, std::int32_t len) const
    {
        return len > 0 && off >= -limits_.stackSize && off + len <= 0;
    }

    static void
    markStack(VState &st, std::int32_t off, std::int32_t len)
    {
        for (std::int32_t o = off; o < off + len; ++o)
            st.stackInit.set(static_cast<std::size_t>((o + 512) / 8));
    }

    static bool
    stackInitialized(const VState &st, std::int32_t off, std::int32_t len)
    {
        for (std::int32_t o = off; o < off + len; ++o) {
            if (!st.stackInit.test(static_cast<std::size_t>((o + 512) / 8)))
                return false;
        }
        return true;
    }

    /** Validate a memory access through @p ptr at extra offset/size. */
    bool
    checkMemAccess(std::size_t pc, const VState &st, const RegState &ptr,
                   std::int32_t off, std::int32_t len, bool write,
                   bool check_init)
    {
        const std::int32_t total = ptr.off + off;
        switch (ptr.type) {
          case RegType::PtrCtx:
            if (write)
                return setError(pc, "write into read-only context");
            if (total < 0 ||
                total + len > static_cast<std::int32_t>(prog_.ctxSize))
                return setError(pc, "context access out of bounds "
                                    "(off=%d size=%d ctx=%u)",
                                total, len, prog_.ctxSize);
            return true;
          case RegType::PtrStack:
            if (!stackRangeOk(total, len))
                return setError(pc, "stack access out of bounds (off=%d)",
                                total);
            if (check_init && !write && !stackInitialized(st, total, len))
                return setError(pc, "read of uninitialised stack at %d",
                                total);
            return true;
          case RegType::PtrMapValue:
            if (total < 0 ||
                total + len >
                    static_cast<std::int32_t>(ptr.map->valueSize()))
                return setError(pc, "map value access out of bounds "
                                    "(off=%d size=%d value=%u)",
                                total, len, ptr.map->valueSize());
            return true;
          case RegType::PtrMapValueOrNull:
            return setError(pc,
                            "possibly-null map value dereferenced without "
                            "a null check");
          case RegType::PtrMapHandle:
            return setError(pc, "cannot dereference a map handle");
          default:
            return setError(pc, "memory access through non-pointer");
        }
    }

    /** Helper-call signature checking; updates the state on success. */
    bool
    checkCall(std::size_t pc, VState &st, std::int32_t id)
    {
        if (!helper::known(id))
            return setError(pc, "unknown helper %d", id);
        auto &r1 = st.regs[R1];
        auto &r2 = st.regs[R2];
        auto &r3 = st.regs[R3];
        auto &r4 = st.regs[R4];

        auto need_map = [&](const RegState &r, bool ringbuf) -> bool {
            if (r.type != RegType::PtrMapHandle)
                return setError(pc, "%s: r1 must be a map handle",
                                helper::name(id).c_str());
            const bool is_rb = r.map->type() == MapType::RingBuf;
            if (is_rb != ringbuf)
                return setError(pc, "%s: wrong map type",
                                helper::name(id).c_str());
            return true;
        };
        auto need_stack_buf = [&](const RegState &r, std::uint32_t len,
                                  const char *what) -> bool {
            if (r.type != RegType::PtrStack)
                return setError(pc, "%s: %s must point to the stack",
                                helper::name(id).c_str(), what);
            const std::int32_t l = static_cast<std::int32_t>(len);
            if (!stackRangeOk(r.off, l))
                return setError(pc, "%s: %s buffer out of stack bounds",
                                helper::name(id).c_str(), what);
            if (!stackInitialized(st, r.off, l))
                return setError(pc, "%s: %s buffer not fully initialised",
                                helper::name(id).c_str(), what);
            return true;
        };

        RegState ret;
        ret.type = RegType::Scalar;

        switch (id) {
          case helper::kMapLookupElem:
            if (!need_map(r1, false))
                return false;
            if (!need_stack_buf(r2, r1.map->keySize(), "key"))
                return false;
            ret.type = RegType::PtrMapValueOrNull;
            ret.map = r1.map;
            ret.off = 0;
            break;
          case helper::kMapUpdateElem:
            if (!need_map(r1, false))
                return false;
            if (!need_stack_buf(r2, r1.map->keySize(), "key"))
                return false;
            if (r3.type == RegType::PtrMapValue) {
                if (r3.off != 0 || r3.map->valueSize() < r1.map->valueSize())
                    return setError(pc, "map_update: value pointer too small");
            } else if (!need_stack_buf(r3, r1.map->valueSize(), "value")) {
                return false;
            }
            if (r4.type != RegType::Scalar)
                return setError(pc, "map_update: flags must be a scalar");
            break;
          case helper::kMapDeleteElem:
            if (!need_map(r1, false))
                return false;
            // Sketch entries can only decay by eviction; deleting one
            // would silently lose merged counts, so reject statically.
            if (r1.map->type() == MapType::Sketch)
                return setError(pc,
                                "map_delete: sketch maps cannot delete");
            if (!need_stack_buf(r2, r1.map->keySize(), "key"))
                return false;
            break;
          case helper::kKtimeGetNs:
          case helper::kGetPrandomU32:
          case helper::kGetCurrentPidTgid:
            break;
          case helper::kRingbufOutput: {
            if (!need_map(r1, true))
                return false;
            if (r3.type != RegType::Scalar || !r3.known)
                return setError(pc, "ringbuf_output: size must be a known "
                                    "constant");
            if (!need_stack_buf(r2, static_cast<std::uint32_t>(r3.value),
                                "data"))
                return false;
            if (r4.type != RegType::Scalar)
                return setError(pc, "ringbuf_output: flags must be scalar");
            break;
          }
        }

        st.regs[R0] = ret;
        for (int r = R1; r <= R5; ++r)
            st.regs[r] = RegState{}; // caller-saved: clobbered
        return true;
    }

    /** Execute one instruction abstractly; enqueue successors. */
    bool
    step(std::size_t pc, VState st)
    {
        const Insn &insn = prog_.insns[pc];
        const std::uint8_t cls = insn.cls();

        if (insn.dst >= kNumRegs || insn.src >= kNumRegs)
            return setError(pc, "invalid register");

        // ---------------------------------------------------------- ALU
        if (cls == BPF_ALU64 || cls == BPF_ALU) {
            RegState &dst = st.regs[insn.dst];
            const std::uint8_t op = insn.aluOp();
            if (insn.dst == R10)
                return setError(pc, "r10 is read-only");

            RegState src;
            if (insn.isImmSrc()) {
                src.type = RegType::Scalar;
                src.known = true;
                src.value = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(insn.imm));
            } else {
                src = st.regs[insn.src];
                if (src.type == RegType::Uninit)
                    return setError(pc, "read of uninitialised r%d",
                                    insn.src);
            }

            if (op == BPF_MOV) {
                dst = src;
                if (cls == BPF_ALU && dst.type == RegType::Scalar && dst.known)
                    dst.value &= 0xffffffffu;
                if (cls == BPF_ALU && isPointer(src))
                    return setError(pc, "32-bit mov of a pointer");
                return enqueue(pc + 1, st);
            }
            if (op == BPF_NEG) {
                if (dst.type != RegType::Scalar)
                    return setError(pc, "neg on non-scalar");
                if (dst.known)
                    dst.value = ~dst.value + 1;
                return enqueue(pc + 1, st);
            }
            if (dst.type == RegType::Uninit)
                return setError(pc, "read of uninitialised r%d", insn.dst);

            // Pointer arithmetic: ADD/SUB of a constant scalar only.
            if (isPointer(dst)) {
                if (dst.type == RegType::PtrMapHandle ||
                    dst.type == RegType::PtrMapValueOrNull) {
                    return setError(pc, "arithmetic on %s",
                                    dst.type == RegType::PtrMapHandle
                                        ? "a map handle"
                                        : "a possibly-null pointer");
                }
                if (op != BPF_ADD && op != BPF_SUB)
                    return setError(pc, "invalid pointer arithmetic op");
                if (src.type != RegType::Scalar || !src.known)
                    return setError(pc, "pointer arithmetic with an "
                                        "unknown scalar");
                const std::int64_t delta =
                    static_cast<std::int64_t>(src.value);
                dst.off += static_cast<std::int32_t>(
                    op == BPF_ADD ? delta : -delta);
                return enqueue(pc + 1, st);
            }
            if (isPointer(src))
                return setError(pc, "scalar op with pointer operand");

            // Scalar ALU.
            if ((op == BPF_DIV || op == BPF_MOD) && src.known &&
                src.value == 0) {
                return setError(pc, "division by zero constant");
            }
            if (dst.known && src.known) {
                std::uint64_t a = dst.value, b = src.value;
                switch (op) {
                  case BPF_ADD: a += b; break;
                  case BPF_SUB: a -= b; break;
                  case BPF_MUL: a *= b; break;
                  case BPF_DIV: a = b ? a / b : 0; break;
                  case BPF_MOD: a = b ? a % b : a; break;
                  case BPF_OR: a |= b; break;
                  case BPF_AND: a &= b; break;
                  case BPF_XOR: a ^= b; break;
                  case BPF_LSH: a <<= (b & 63); break;
                  case BPF_RSH: a >>= (b & 63); break;
                  case BPF_ARSH:
                    a = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(a) >> (b & 63));
                    break;
                  default:
                    return setError(pc, "unknown ALU op 0x%x", op);
                }
                if (cls == BPF_ALU)
                    a &= 0xffffffffu;
                dst.value = a;
            } else {
                dst.known = false;
            }
            dst.type = RegType::Scalar;
            dst.map = nullptr;
            dst.off = 0;
            return enqueue(pc + 1, st);
        }

        // ------------------------------------------------------ LD_IMM64
        if (cls == BPF_LD) {
            if (insn.memSize() != BPF_DW)
                return setError(pc, "unsupported BPF_LD form");
            if (pc + 1 >= prog_.insns.size())
                return setError(pc, "truncated ld_imm64");
            if (insn.dst == R10)
                return setError(pc, "r10 is read-only");
            RegState &dst = st.regs[insn.dst];
            if (insn.src == BPF_PSEUDO_MAP_FD) {
                auto it = prog_.maps.find(insn.imm);
                if (it == prog_.maps.end())
                    return setError(pc, "unknown map fd %d", insn.imm);
                dst = RegState{};
                dst.type = RegType::PtrMapHandle;
                dst.map = it->second;
            } else {
                dst = RegState{};
                dst.type = RegType::Scalar;
                dst.known = true;
                dst.value =
                    static_cast<std::uint32_t>(insn.imm) |
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(prog_.insns[pc + 1].imm))
                     << 32);
            }
            return enqueue(pc + 2, st);
        }

        // ----------------------------------------------------- LDX / STX
        if (cls == BPF_LDX) {
            const int len = accessSize(insn.memSize());
            const RegState &base = st.regs[insn.src];
            if (base.type == RegType::Uninit)
                return setError(pc, "load through uninitialised r%d",
                                insn.src);
            if (insn.dst == R10)
                return setError(pc, "r10 is read-only");
            if (!checkMemAccess(pc, st, base, insn.off, len, false, true))
                return false;
            RegState &dst = st.regs[insn.dst];
            dst = RegState{};
            dst.type = RegType::Scalar;
            return enqueue(pc + 1, st);
        }
        if (cls == BPF_STX || cls == BPF_ST) {
            const int len = accessSize(insn.memSize());
            const RegState &base = st.regs[insn.dst];
            if (base.type == RegType::Uninit)
                return setError(pc, "store through uninitialised r%d",
                                insn.dst);
            if (cls == BPF_STX) {
                const RegState &val = st.regs[insn.src];
                if (val.type == RegType::Uninit)
                    return setError(pc, "store of uninitialised r%d",
                                    insn.src);
                if (isPointer(val))
                    return setError(pc, "pointer spill to memory is not "
                                        "supported");
            }
            if (!checkMemAccess(pc, st, base, insn.off, len, true, false))
                return false;
            if (base.type == RegType::PtrStack)
                markStack(st, base.off + insn.off, len);
            return enqueue(pc + 1, st);
        }

        // ----------------------------------------------------------- JMP
        if (cls == BPF_JMP) {
            const std::uint8_t op = insn.aluOp();
            if (op == BPF_EXIT) {
                if (st.regs[R0].type == RegType::Uninit)
                    return setError(pc, "exit with uninitialised r0");
                return true; // path complete
            }
            if (op == BPF_CALL) {
                if (!checkCall(pc, st, insn.imm))
                    return false;
                return enqueue(pc + 1, st);
            }
            if (insn.off < 0)
                return setError(pc, "back edge (loops are not allowed)");
            const std::size_t target = pc + 1 + insn.off;
            if (op == BPF_JA)
                return enqueue(target, st);

            const RegState &dst = st.regs[insn.dst];
            if (dst.type == RegType::Uninit)
                return setError(pc, "jump on uninitialised r%d", insn.dst);
            RegState src;
            if (insn.isImmSrc()) {
                src.type = RegType::Scalar;
                src.known = true;
                src.value = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(insn.imm));
            } else {
                src = st.regs[insn.src];
                if (src.type == RegType::Uninit)
                    return setError(pc, "jump on uninitialised r%d",
                                    insn.src);
            }

            // Null-check refinement for map-lookup results.
            if (dst.type == RegType::PtrMapValueOrNull) {
                if ((op != BPF_JEQ && op != BPF_JNE) || !src.known ||
                    src.value != 0) {
                    return setError(pc, "possibly-null pointer used in a "
                                        "non-null-check comparison");
                }
                VState taken = st;
                RegState &t = taken.regs[insn.dst];
                RegState &f = st.regs[insn.dst];
                if (op == BPF_JEQ) {
                    // taken: ptr == NULL; fallthrough: non-null.
                    t.type = RegType::Scalar;
                    t.known = true;
                    t.value = 0;
                    f.type = RegType::PtrMapValue;
                } else {
                    t.type = RegType::PtrMapValue;
                    f.type = RegType::Scalar;
                    f.known = true;
                    f.value = 0;
                }
                return enqueue(target, taken) && enqueue(pc + 1, st);
            }
            if (isPointer(dst) || isPointer(src))
                return setError(pc, "comparison involving a pointer");

            return enqueue(target, st) && enqueue(pc + 1, st);
        }

        return setError(pc, "unsupported instruction class 0x%x", cls);
    }
};

} // namespace

VerifyResult
verify(const ProgramSpec &prog, const VerifierLimits &limits)
{
    // One arena per thread, emptied and reused by each verification on
    // it, so a load after the first allocates nothing. One that grew
    // past a few thousand states (a two-tenant runq.switch takes 812)
    // is released instead of kept.
    constexpr std::size_t kKeptStates = 2048;
    thread_local Arena arena;
    VerifyResult res = Engine(prog, limits, arena).run();
    if (arena.states.capacity() > kKeptStates)
        arena = Arena{};
    return res;
}

} // namespace reqobs::ebpf
