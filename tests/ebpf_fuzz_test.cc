/**
 * @file
 * Property test binding the verifier to the interpreter: any program the
 * verifier ACCEPTS must execute without a single runtime fault, for any
 * context contents. Programs are generated randomly from the full
 * instruction vocabulary (including deliberately unsafe constructs and
 * sketch-map helpers); the verifier screens them, and every accepted one
 * is executed against multiple adversarial contexts with the VM's
 * defence-in-depth checks acting as the fault oracle. Every accepted
 * program must also be rejected by the native compiler, which only
 * accepts byte-exact library probes: each random program runs through
 * every recogniser's reject path.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "ebpf/assembler.hh"
#include "ebpf/helpers.hh"
#include "ebpf/maps.hh"
#include "ebpf/native.hh"
#include "ebpf/verifier.hh"
#include "ebpf/vm.hh"
#include "fuzz_programs.hh"
#include "sim/rng.hh"

namespace reqobs::ebpf {
namespace {

using Generator = FuzzGenerator;

class VerifierFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(VerifierFuzzTest, AcceptedProgramsNeverFault)
{
    sim::Rng rng(GetParam());
    auto hash = std::make_unique<HashMap>(8, 8, 64);
    auto array = std::make_unique<ArrayMap>(32, 4);
    // Tiny sketch (2 stages x 4 slots) so fuzzed updates churn the
    // eviction/carry path, not just the resident-increment fast path.
    auto sketch = std::make_unique<SketchMap>(8, 2, 4);

    int accepted = 0;
    for (int trial = 0; trial < 400; ++trial) {
        ProgramBuilder b;
        Generator gen(rng.next(), /*sketch_fd=*/5);
        const int len = 3 + static_cast<int>(rng.uniformInt(24));
        gen.emitProgram(b, len);
        // Terminate labels and guarantee one reachable exit form.
        for (int l = 0; l < 4; ++l)
            b.label("L" + std::to_string(l));
        b.movImm(R0, 0).exit_();

        ProgramSpec spec;
        spec.name = "fuzz";
        spec.insns = b.build();
        spec.maps[3] = hash.get();
        spec.maps[4] = array.get();
        spec.maps[5] = sketch.get();

        const VerifyResult vr = verify(spec);
        if (!vr.ok)
            continue;
        ++accepted;

        NativeProgram np;
        EXPECT_FALSE(compileNative(spec, &np)) << disassemble(spec.insns);
        EXPECT_EQ(np.fn, nullptr);

        // Adversarial contexts: zeros, all-ones, random.
        Vm vm;
        for (int c = 0; c < 3; ++c) {
            TraceCtx ctx{};
            if (c == 1) {
                ctx.id = ~0ull;
                ctx.pidTgid = ~0ull;
                ctx.ts = ~0ull;
                ctx.ret = -1;
            } else if (c == 2) {
                ctx.id = rng.next();
                ctx.pidTgid = rng.next();
                ctx.ts = rng.next();
                ctx.ret = static_cast<std::int64_t>(rng.next());
            }
            ExecEnv env;
            env.nowNs = rng.next();
            env.pidTgid = rng.next();
            sim::Rng helper_rng(trial);
            env.rng = &helper_rng;
            const RunResult r =
                vm.run(spec, reinterpret_cast<std::uint8_t *>(&ctx),
                       sizeof(ctx), env);
            ASSERT_FALSE(r.aborted)
                << "verified program faulted: " << r.error << "\n"
                << disassemble(spec.insns);
        }
    }
    // The generator must produce a meaningful number of valid programs,
    // or this test proves nothing.
    EXPECT_GT(accepted, 20) << "generator too hostile; tune the mix";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 101, 202,
                                           303, 404, 505, 606));

} // namespace
} // namespace reqobs::ebpf
