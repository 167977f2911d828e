/**
 * @file
 * Verifier test suite: one accepted program per probe pattern, one
 * rejection test per safety rule the verifier enforces, and pins on the
 * exploration itself (states explored per library probe, and a digest
 * of verdicts, error text and state counts over a fixed fuzz corpus).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ebpf/assembler.hh"
#include "ebpf/helpers.hh"
#include "ebpf/maps.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "ebpf/verifier.hh"
#include "fuzz_programs.hh"
#include "kernel/kernel.hh"
#include "kernel/syscalls.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace reqobs::ebpf {
namespace {

class VerifierTest : public ::testing::Test
{
  protected:
    VerifierTest()
        : hash_(std::make_unique<HashMap>(8, 8, 64)),
          array_(std::make_unique<ArrayMap>(32, 1)),
          ring_(std::make_unique<RingBufMap>(4096))
    {
        spec_.maps[3] = hash_.get();
        spec_.maps[4] = array_.get();
        spec_.maps[5] = ring_.get();
    }

    VerifyResult
    check(ProgramBuilder &b)
    {
        spec_.insns = b.build();
        return verify(spec_, limits_);
    }

    std::unique_ptr<HashMap> hash_;
    std::unique_ptr<ArrayMap> array_;
    std::unique_ptr<RingBufMap> ring_;
    ProgramSpec spec_;
    VerifierLimits limits_;
};

TEST_F(VerifierTest, AcceptsMinimalProgram)
{
    ProgramBuilder b;
    b.movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(VerifierTest, AcceptsContextReadsAndFilter)
{
    ProgramBuilder b;
    b.ldxdw(R6, R1, 8)
        .mov(R7, R6)
        .rshImm(R7, 32)
        .jneImm(R7, 1000, "out")
        .ldxdw(R8, R1, 0)
        .label("out")
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(VerifierTest, AcceptsMapLookupWithNullCheck)
{
    ProgramBuilder b;
    b.stImm(R10, -8, 0, BPF_DW)
        .ldMapFd(R1, 3)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out")
        .ldxdw(R3, R0, 0) // safe: null-checked
        .label("out")
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(VerifierTest, AcceptsRingbufOutput)
{
    ProgramBuilder b;
    b.stImm(R10, -16, 7, BPF_DW)
        .stImm(R10, -8, 9, BPF_DW)
        .ldMapFd(R1, 5)
        .mov(R2, R10)
        .addImm(R2, -16)
        .movImm(R3, 16)
        .movImm(R4, 0)
        .call(helper::kRingbufOutput)
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(VerifierTest, RejectsEmptyProgram)
{
    ProgramSpec empty;
    const auto r = verify(empty);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("empty"), std::string::npos);
}

TEST_F(VerifierTest, RejectsBackEdge)
{
    ProgramBuilder b;
    b.movImm(R0, 0).label("loop").jeqImm(R0, 0, "loop").exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("back edge"), std::string::npos);
}

TEST_F(VerifierTest, RejectsUninitialisedRegisterRead)
{
    ProgramBuilder b;
    b.mov(R0, R5).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("uninitialised"), std::string::npos);
}

TEST_F(VerifierTest, RejectsExitWithoutR0)
{
    ProgramBuilder b;
    b.movImm(R2, 1).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("r0"), std::string::npos);
}

TEST_F(VerifierTest, RejectsFallingOffTheEnd)
{
    ProgramBuilder b;
    b.movImm(R0, 0);
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("falls off"), std::string::npos);
}

TEST_F(VerifierTest, RejectsUncheckedMapValueDeref)
{
    ProgramBuilder b;
    b.stImm(R10, -8, 0, BPF_DW)
        .ldMapFd(R1, 3)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .ldxdw(R3, R0, 0) // no null check!
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("null"), std::string::npos);
}

TEST_F(VerifierTest, RejectsContextOutOfBounds)
{
    ProgramBuilder b;
    b.ldxdw(R2, R1, 32).movImm(R0, 0).exit_(); // ctx is 32 bytes
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("context"), std::string::npos);
}

TEST_F(VerifierTest, RejectsContextWrite)
{
    ProgramBuilder b;
    b.movImm(R2, 1).stxdw(R1, 0, R2).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("read-only context"), std::string::npos);
}

TEST_F(VerifierTest, RejectsStackOutOfBounds)
{
    ProgramBuilder b;
    b.stImm(R10, -520, 0, BPF_DW).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("stack"), std::string::npos);

    ProgramBuilder b2;
    b2.stImm(R10, 0, 0, BPF_DW).movImm(R0, 0).exit_(); // above the frame
    const auto r2 = check(b2);
    EXPECT_FALSE(r2.ok);
}

TEST_F(VerifierTest, RejectsUninitialisedStackRead)
{
    ProgramBuilder b;
    b.ldxdw(R2, R10, -8).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("uninitialised stack"), std::string::npos);
}

TEST_F(VerifierTest, RejectsPointerArithmeticWithUnknownScalar)
{
    ProgramBuilder b;
    b.ldxdw(R2, R1, 0) // unknown scalar from ctx
        .mov(R3, R10)
        .add(R3, R2) // r3 = stack ptr + unknown
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown scalar"), std::string::npos);
}

TEST_F(VerifierTest, RejectsDivisionByZeroConstant)
{
    ProgramBuilder b;
    b.movImm(R0, 10).divImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("zero"), std::string::npos);
}

TEST_F(VerifierTest, RejectsUnknownHelper)
{
    ProgramBuilder b;
    b.call(9999).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown helper"), std::string::npos);
}

TEST_F(VerifierTest, RejectsUnknownMapFd)
{
    ProgramBuilder b;
    b.ldMapFd(R1, 77).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("map fd"), std::string::npos);
}

TEST_F(VerifierTest, RejectsMapHandleDeref)
{
    ProgramBuilder b;
    b.ldMapFd(R1, 3).ldxdw(R2, R1, 0).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("map handle"), std::string::npos);
}

TEST_F(VerifierTest, RejectsHelperWithWrongArgTypes)
{
    // map_lookup with a scalar instead of a map handle.
    ProgramBuilder b;
    b.movImm(R1, 5)
        .stImm(R10, -8, 0, BPF_DW)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("map handle"), std::string::npos);
}

TEST_F(VerifierTest, RejectsLookupKeyNotOnStack)
{
    ProgramBuilder b;
    b.ldMapFd(R1, 3)
        .mov(R2, R1) // map handle as key pointer
        .call(helper::kMapLookupElem)
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
}

TEST_F(VerifierTest, RejectsUninitialisedKeyBuffer)
{
    ProgramBuilder b;
    b.ldMapFd(R1, 3)
        .mov(R2, R10)
        .addImm(R2, -8) // never written
        .call(helper::kMapLookupElem)
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("initialised"), std::string::npos);
}

TEST_F(VerifierTest, RejectsRingbufWithUnknownSize)
{
    ProgramBuilder b;
    b.stImm(R10, -8, 1, BPF_DW)
        .ldMapFd(R1, 5)
        .mov(R2, R10)
        .addImm(R2, -8)
        .ldxdw(R3, R1, 0); // would be unknown... but handle deref rejects
    b.movImm(R0, 0).exit_();
    const auto r1 = check(b);
    EXPECT_FALSE(r1.ok);

    ProgramBuilder b2;
    b2.stImm(R10, -8, 1, BPF_DW)
        .ldxdw(R3, R1, 0) // unknown scalar from ctx
        .ldMapFd(R1, 5)
        .mov(R2, R10)
        .addImm(R2, -8)
        .movImm(R4, 0)
        .call(helper::kRingbufOutput)
        .movImm(R0, 0)
        .exit_();
    const auto r2 = check(b2);
    EXPECT_FALSE(r2.ok);
    EXPECT_NE(r2.error.find("constant"), std::string::npos);
}

TEST_F(VerifierTest, RejectsRingbufOutputOnHashMap)
{
    ProgramBuilder b;
    b.stImm(R10, -8, 1, BPF_DW)
        .ldMapFd(R1, 3) // hash, not ringbuf
        .mov(R2, R10)
        .addImm(R2, -8)
        .movImm(R3, 8)
        .movImm(R4, 0)
        .call(helper::kRingbufOutput)
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("wrong map type"), std::string::npos);
}

TEST_F(VerifierTest, RejectsPointerComparison)
{
    ProgramBuilder b;
    b.mov(R2, R10).jeq(R2, R1, "out").label("out").movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("pointer"), std::string::npos);
}

TEST_F(VerifierTest, RejectsPointerSpill)
{
    ProgramBuilder b;
    b.stxdw(R10, -8, R1).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("spill"), std::string::npos);
}

TEST_F(VerifierTest, RejectsWritesToR10)
{
    ProgramBuilder b;
    b.movImm(R10, 0).movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("read-only"), std::string::npos);
}

TEST_F(VerifierTest, RejectsMapValueOutOfBounds)
{
    ProgramBuilder b;
    b.stImm(R10, -4, 0, BPF_W)
        .ldMapFd(R1, 4) // array with 32-byte values
        .mov(R2, R10)
        .addImm(R2, -4)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out")
        .ldxdw(R3, R0, 32) // one past the end
        .label("out")
        .movImm(R0, 0)
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("map value"), std::string::npos);
}

TEST_F(VerifierTest, RejectsOversizedProgram)
{
    ProgramBuilder b;
    for (int i = 0; i < 5000; ++i)
        b.movImm(R0, 0);
    b.exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("too large"), std::string::npos);
}

TEST_F(VerifierTest, BothBranchesAreExplored)
{
    // The taken branch leaves r0 set, the fallthrough does not.
    ProgramBuilder b;
    b.ldxdw(R2, R1, 0)
        .movImm(R0, 0)
        .jeqImm(R2, 5, "done")
        .mov(R3, R4) // only reachable on fallthrough: r4 uninitialised
        .label("done")
        .exit_();
    const auto r = check(b);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("uninitialised r4"), std::string::npos);
}

TEST_F(VerifierTest, CountsStates)
{
    ProgramBuilder b;
    b.movImm(R0, 0).exit_();
    const auto r = check(b);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.statesExplored, 2u); // one per instruction on one path
}

/**
 * States explored per library probe, as the agents build them (one
 * send syscall, two tenants for the tenant-scoped set). For an accepted
 * program that is the number of distinct (pc, state) pairs reached, so
 * a state wrongly merged with another or wrongly kept apart shows. The
 * order of exploration shows in rejected programs, which the corpus
 * digest below covers.
 */
TEST(VerifierProbeTest, LibraryProbeStateCountsArePinned)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const std::int64_t poll = kernel::syscallId(kernel::Syscall::EpollWait);
    const std::vector<std::int64_t> family{
        kernel::syscallId(kernel::Syscall::Sendto)};
    const unsigned shift = probes::kDeltaShift;

    const auto dmaps = probes::createDurationMaps(rt, "d");
    const auto emaps = probes::createDeltaMaps(rt, "e");
    const auto smaps = probes::createStreamMaps(rt, 4096, "s");
    const probes::TenantSet set{{1000, 1001}, {poll, poll}};
    const auto tdmaps = probes::createTenantDurationMaps(rt, 2, "td");
    const auto temaps = probes::createTenantDeltaMaps(rt, 2, "te");
    const auto rmaps = probes::createRunqlatMaps(rt, 2, "rq");
    const auto fmaps = probes::createFrontDoorMaps(rt, 2, "fd");
    const int sketch = probes::createTenantSketchMap(rt, 4, 8, "hh");

    const std::pair<ProgramSpec, std::uint64_t> pins[] = {
        // Listing 1.
        {probes::buildDurationEnter(rt, 1234, poll, dmaps), 22},
        {probes::buildDurationExit(rt, 1234, poll, dmaps, shift, false), 49},
        {probes::buildDurationExit(rt, 1234, poll, dmaps, shift, true), 52},
        {probes::buildDeltaExit(rt, 1234, family, emaps, shift, false), 41},
        {probes::buildDeltaExit(rt, 1234, family, emaps, shift, true), 46},
        {probes::buildStreamProbe(rt, 1234, true, smaps), 22},
        // Tenant-scoped, two tenants.
        {probes::buildTenantDurationEnter(rt, set, tdmaps), 39},
        {probes::buildTenantDurationExit(rt, set, tdmaps, shift, false), 93},
        {probes::buildTenantDurationExit(rt, set, tdmaps, shift, true), 99},
        {probes::buildTenantDeltaExit(rt, set, family, temaps, shift, false),
         77},
        {probes::buildTenantDeltaExit(rt, set, family, temaps, shift, true),
         87},
        {probes::buildTenantHeavyHitter(rt, set, family, sketch), 61},
        {probes::buildRunqlatWakeup(rt, rmaps), 13},
        {probes::buildRunqlatSwitch(rt, set, rmaps), 812},
        {probes::buildFrontDoorIngress(rt, fmaps), 13},
        {probes::buildFrontDoorAccept(rt, set, fmaps), 588},
    };
    for (const auto &[spec, states] : pins) {
        const VerifyResult r = verify(spec);
        EXPECT_TRUE(r.ok) << spec.name << ": " << r.error;
        EXPECT_EQ(r.statesExplored, states) << spec.name;
    }
}

/** What one pass over the fuzz corpus saw. */
struct CorpusRun
{
    std::uint64_t digest = 1469598103934665603ULL; ///< FNV-1a
    int accepted = 0;
    int capped = 0; ///< rejected at the state cap
};

void
foldBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
}

/**
 * Verify 16 seeds x 3,000 generated programs (maps at fds 3/4/5 as in
 * ebpf_fuzz_test) and fold each (ok, error text, states explored) into
 * one digest.
 */
CorpusRun
verifyCorpus(const VerifierLimits &limits)
{
    auto hash = std::make_unique<HashMap>(8, 8, 64);
    auto array = std::make_unique<ArrayMap>(32, 4);
    auto sketch = std::make_unique<SketchMap>(8, 2, 4);
    CorpusRun run;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        sim::Rng rng(seed);
        for (int trial = 0; trial < 3000; ++trial) {
            ProgramBuilder b;
            FuzzGenerator gen(rng.next(), /*sketch_fd=*/5);
            gen.emitProgram(b, 3 + static_cast<int>(rng.uniformInt(24)));
            for (int l = 0; l < 4; ++l)
                b.label("L" + std::to_string(l));
            b.movImm(R0, 0).exit_();

            ProgramSpec spec;
            spec.insns = b.build();
            spec.maps[3] = hash.get();
            spec.maps[4] = array.get();
            spec.maps[5] = sketch.get();
            const VerifyResult r = verify(spec, limits);
            const std::uint8_t ok = r.ok;
            foldBytes(run.digest, &ok, 1);
            foldBytes(run.digest, r.error.data(), r.error.size() + 1);
            foldBytes(run.digest, &r.statesExplored,
                      sizeof(r.statesExplored));
            run.accepted += r.ok;
            run.capped += r.error.find("too complex") != std::string::npos;
        }
    }
    return run;
}

/**
 * The corpus digests pin verdicts, error text and state counts, at the
 * default limits and at a 40-state cap that stops many programs midway,
 * to the values the verifier's earlier seen-table implementation gave.
 */
TEST(VerifierCorpusTest, VerdictsErrorsAndStateCountsArePinned)
{
    const CorpusRun full = verifyCorpus(VerifierLimits{});
    EXPECT_EQ(full.digest, 0x99e900967c06ef44ULL);
    EXPECT_EQ(full.accepted, 4712);
    EXPECT_EQ(full.capped, 0);

    VerifierLimits tight;
    tight.maxStates = 40;
    const CorpusRun capped = verifyCorpus(tight);
    EXPECT_EQ(capped.digest, 0x43728e064de40501ULL);
    EXPECT_EQ(capped.accepted, 4270);
    EXPECT_EQ(capped.capped, 1252);
}

} // namespace
} // namespace reqobs::ebpf
