/**
 * @file
 * Random eBPF program generator shared by the fuzz tests.
 *
 * Stateful: tracks which registers hold scalars and which stack slots
 * were written, so most emitted programs are plausible — while still
 * mixing in unsafe constructs (wild loads, bad map fds, missing null
 * checks) that the verifier must screen out. ebpf_fuzz_test uses it to
 * bind the verifier to the interpreter and to check that the native
 * compiler rejects every non-library program.
 */

#ifndef REQOBS_TESTS_FUZZ_PROGRAMS_HH
#define REQOBS_TESTS_FUZZ_PROGRAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/assembler.hh"
#include "ebpf/helpers.hh"
#include "sim/rng.hh"

namespace reqobs::ebpf {

/** See file comment. */
class FuzzGenerator
{
  public:
    /**
     * @param sketch_fd Sketch-map fd for the sketch lookup/update/delete
     * cases (the delete must be rejected by the verifier).
     */
    explicit FuzzGenerator(std::uint64_t seed, int sketch_fd)
        : rng_(seed), sketchFd_(sketch_fd)
    {
    }

    void
    emitProgram(ProgramBuilder &b, int len)
    {
        // Seed a few scalar registers.
        for (Reg r : {R0, R6, R7, R8})
            b.movImm(r, imm());
        scalars_ = {R0, R6, R7, R8};
        slots_.clear();
        for (int i = 0; i < len; ++i)
            emitOne(b, len - i);
    }

  private:
    sim::Rng rng_;
    int sketchFd_;
    std::vector<Reg> scalars_;
    std::vector<std::int16_t> slots_;

    std::int32_t
    imm()
    {
        return static_cast<std::int32_t>(rng_.uniformInt(1 << 16)) -
               (1 << 15);
    }

    Reg scalar() { return scalars_[rng_.uniformInt(scalars_.size())]; }

    void
    emitOne(ProgramBuilder &b, int remaining)
    {
        const std::string fwd = "L" + std::to_string(rng_.uniformInt(4));
        switch (rng_.uniformInt(18)) {
          case 0: b.movImm(scalar(), imm()); break;
          case 1: b.mov(scalar(), scalar()); break;
          case 2: b.addImm(scalar(), imm()); break;
          case 3: b.add(scalar(), scalar()); break;
          case 4: b.mulImm(scalar(), imm()); break;
          case 5: b.xor_(scalar(), scalar()); break;
          case 6:
            b.rshImm(scalar(),
                     static_cast<std::int32_t>(rng_.uniformInt(64)));
            break;
          case 7: // ctx load, usually in bounds
            b.ldxdw(scalar(), R1,
                    static_cast<std::int16_t>(8 * rng_.uniformInt(5)));
            break;
          case 8: { // stack store, then remember the slot
            const std::int16_t off = static_cast<std::int16_t>(
                -8 * (1 + static_cast<int>(rng_.uniformInt(66))));
            b.stImm(R10, off, imm(), BPF_DW);
            if (off >= -512)
                slots_.push_back(off);
            break;
          }
          case 9: // load from a previously written slot (or wild)
            if (!slots_.empty() && rng_.uniform() < 0.9) {
                b.ldxdw(scalar(), R10,
                        slots_[rng_.uniformInt(slots_.size())]);
            } else {
                b.ldxdw(scalar(), scalar(), imm()); // wild: must reject
            }
            break;
          case 10: // full valid hash-map lookup with null check
            b.stImm(R10, -8, imm(), BPF_DW)
                .ldMapFd(R1, 3)
                .mov(R2, R10)
                .addImm(R2, -8)
                .call(helper::kMapLookupElem)
                .jeqImm(R0, 0, fwd)
                .ldxdw(R0, R0, 0);
            break;
          case 11: // lookup WITHOUT null check: must be rejected
            b.stImm(R10, -8, imm(), BPF_DW)
                .ldMapFd(R1, 3)
                .mov(R2, R10)
                .addImm(R2, -8)
                .call(helper::kMapLookupElem)
                .ldxdw(R0, R0, 0);
            break;
          case 12:
            b.call(rng_.uniform() < 0.7
                       ? helper::kKtimeGetNs
                       : static_cast<std::int32_t>(rng_.uniformInt(200)));
            scalars_ = {R0, R6, R7, R8}; // r1-r5 clobbered anyway
            break;
          case 13:
            if (remaining > 1)
                b.jeqImm(scalar(), imm(), fwd);
            break;
          case 14:
            b.divImm(scalar(),
                     static_cast<std::int32_t>(rng_.uniformInt(5)));
            break;
          case 15:
            b.ldMapFd(scalar() == R0 ? R9 : scalar(),
                      static_cast<int>(rng_.uniformInt(6)));
            break;
          case 16: // sketch update (merge-add into the hash pipe)
            b.stImm(R10, -8, imm(), BPF_DW)
                .stImm(R10, -16, 1 + static_cast<std::int32_t>(
                                         rng_.uniformInt(1 << 10)),
                       BPF_DW)
                .ldMapFd(R1, sketchFd_)
                .mov(R2, R10)
                .addImm(R2, -8)
                .mov(R3, R10)
                .addImm(R3, -16)
                .movImm(R4, 0)
                .call(helper::kMapUpdateElem);
            scalars_ = {R0, R6, R7, R8};
            break;
          case 17: // sketch lookup with null check, or an illegal delete
            if (rng_.uniform() < 0.75) {
                b.stImm(R10, -8, imm(), BPF_DW)
                    .ldMapFd(R1, sketchFd_)
                    .mov(R2, R10)
                    .addImm(R2, -8)
                    .call(helper::kMapLookupElem)
                    .jeqImm(R0, 0, fwd)
                    .ldxdw(R0, R0, 0);
            } else {
                // Sketches cannot delete: the verifier must reject this.
                b.stImm(R10, -8, imm(), BPF_DW)
                    .ldMapFd(R1, sketchFd_)
                    .mov(R2, R10)
                    .addImm(R2, -8)
                    .call(helper::kMapDeleteElem);
            }
            scalars_ = {R0, R6, R7, R8};
            break;
        }
    }
};

} // namespace reqobs::ebpf

#endif // REQOBS_TESTS_FUZZ_PROGRAMS_HH
