/**
 * @file
 * The eBPF runtime: map fd table, program loading (verification) and
 * tracepoint attachment against the simulated kernel.
 *
 * Loading follows the real flow: create maps (getting fds), author
 * bytecode referencing those fds via ld_map_fd, submit the program —
 * it is verified and rejected on any violation — then attach it to
 * raw_syscalls:sys_enter or sys_exit. Under the default engine the
 * attach also compiles library probes to native kernels; every other
 * program, and every program under ExecEngine::Reference, runs on the
 * reference interpreter. probeCounters() reports which one each
 * program runs on.
 *
 * Each tracepoint firing that reaches an attached program costs
 * simulated time: a fixed dispatch cost plus a per-interpreted-
 * instruction cost. The kernel charges that to the traced thread, which
 * is what the overhead experiment (§VI "Low overhead estimation")
 * measures.
 */

#ifndef REQOBS_EBPF_RUNTIME_HH
#define REQOBS_EBPF_RUNTIME_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/maps.hh"
#include "ebpf/native.hh"
#include "ebpf/program.hh"
#include "ebpf/verifier.hh"
#include "ebpf/vm.hh"
#include "kernel/kernel.hh"

namespace reqobs::ebpf {

/**
 * Execution-engine selection. Native is the default (the simulator
 * analogue of the kernel JIT-compiling eBPF, see §VI of the paper):
 * every library probe compiles at attach time to a shape-specialised
 * kernel (native.hh), and any other program runs on the reference
 * interpreter. Reference interprets every program and serves as the
 * semantic oracle. Results are identical either way
 * (tests/ebpf_diff_test.cc asserts the agreement bit for bit).
 */
enum class ExecEngine
{
    Translated [[deprecated("the translated VM is gone; use Native")]],
    Reference,
    Native,
};

/** The engine RuntimeConfig starts with: Native. */
inline ExecEngine
defaultExecEngine()
{
    return ExecEngine::Native;
}

/** Cost model for in-kernel probe execution. */
struct RuntimeConfig
{
    /** Fixed tracepoint->program dispatch cost. */
    sim::Tick baseProbeCost = sim::nanoseconds(80);
    /** Cost per interpreted instruction. */
    sim::Tick perInsnCost = sim::nanoseconds(4);
    /** Verifier limits used at load time. */
    VerifierLimits limits;
    /** Host-side execution engine; results are identical either way. */
    ExecEngine engine = defaultExecEngine();
};

/** Loaded-program id. */
using ProgId = std::uint64_t;

/** See file comment. */
class EbpfRuntime
{
  public:
    explicit EbpfRuntime(kernel::Kernel &kernel,
                         const RuntimeConfig &config = {});
    ~EbpfRuntime();

    EbpfRuntime(const EbpfRuntime &) = delete;
    EbpfRuntime &operator=(const EbpfRuntime &) = delete;

    /** @name Map management. @{ */

    /** Create a map; returns its fd. */
    int createMap(std::unique_ptr<Map> map);

    /** Shorthands for the common shapes. */
    int createHashMap(std::uint32_t key_size, std::uint32_t value_size,
                      std::uint32_t max_entries, const std::string &name);
    int createArrayMap(std::uint32_t value_size, std::uint32_t max_entries,
                       const std::string &name);
    int createRingBuf(std::uint32_t capacity_bytes, const std::string &name);
    int createSketchMap(std::uint32_t key_size, std::uint32_t stages,
                        std::uint32_t width, const std::string &name);

    /** Map by fd; fatal on unknown fd. */
    Map &mapAt(int fd) const;
    ArrayMap &arrayAt(int fd) const;
    HashMap &hashAt(int fd) const;
    RingBufMap &ringbufAt(int fd) const;
    SketchMap &sketchAt(int fd) const;

    /** fd -> Map* view for ProgramSpec construction. */
    std::map<int, Map *> mapTable() const;

    /**
     * Byte-level image of one map's contents, keyed for restore into a
     * same-shaped map. Array maps image every slot; ring buffers are
     * transient stream state and snapshot as empty.
     */
    struct MapImage
    {
        MapType type = MapType::Array;
        std::uint32_t keySize = 0;
        std::uint32_t valueSize = 0;
        /** (key bytes, value bytes) pairs. */
        std::vector<std::pair<std::vector<std::uint8_t>,
                              std::vector<std::uint8_t>>>
            entries;
    };

    /** Name-keyed images of all maps. */
    using MapSnapshot = std::map<std::string, MapImage>;

    /**
     * Image every map by name — the pinned-maps analogue: kernel-side
     * map state outlives a userspace agent, so a supervisor images the
     * dying runtime's maps and restores them into the replacement's.
     */
    MapSnapshot snapshotMaps() const;

    /**
     * Restore @p snap into this runtime's same-named maps. Images whose
     * name or shape (type, key/value size) matches no map are skipped.
     * @return entries written.
     */
    std::size_t restoreMaps(const MapSnapshot &snap);
    /** @} */

    /**
     * Verify @p spec and, if it passes, attach it to @p point.
     * @param[out] id Loaded-program id (valid when the result is ok).
     */
    VerifyResult loadAndAttach(ProgramSpec spec, kernel::TracepointId point,
                               ProgId *id = nullptr);

    /**
     * Install a fault injector for runtime-layer faults (attach failure,
     * forced map-full, ring-buffer drops). Pass nullptr to disable. The
     * injector must outlive this runtime.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /** Detach and unload one program. */
    void unload(ProgId id);

    /** Detach and unload everything. */
    void unloadAll();

    std::size_t loadedPrograms() const { return programs_.size(); }

    /** Loaded programs that run as native kernels (0 under Reference). */
    std::size_t nativePrograms() const;

    /** @name Execution statistics. @{ */
    std::uint64_t eventsProcessed() const { return events_; }
    std::uint64_t insnsInterpreted() const
    {
        return vm_.totalInsns() + nativeInsns_;
    }
    sim::Tick totalProbeCost() const { return totalCost_; }
    /** @} */

    /** @name Per-probe failure counters (§ fault observability). @{ */

    /** Snapshot of one loaded program's failure counters. */
    struct ProbeCounters
    {
        std::string name;
        /** Native kernel the program runs as; empty when interpreted. */
        std::string shape;
        std::uint64_t events = 0;
        std::uint64_t mapUpdateFails = 0; ///< -E2BIG and friends
        std::uint64_t ringbufDrops = 0;   ///< -ENOSPC
        std::uint64_t misses = 0;         ///< firings that never ran it
    };

    /** One entry per currently loaded program. */
    std::vector<ProbeCounters> probeCounters() const;

    /** Whole-runtime failed map updates (survives unload). */
    std::uint64_t mapUpdateFails() const { return mapUpdateFails_; }

    /** Whole-runtime ring-buffer drops (survives unload). */
    std::uint64_t ringbufDrops() const { return ringbufDrops_; }

    /** Whole-runtime missed probe runs (survives unload). */
    std::uint64_t probeMisses() const { return probeMisses_; }

    /**
     * Known lost events for the loaded program named @p name: missed
     * runs plus failed map updates plus ring-buffer drops — what the
     * loss-aware estimators de-bias against (the kernel exports the
     * same three counters for real probes).
     */
    std::uint64_t probeLoss(const std::string &name) const;
    /** One named program's missed-run count alone (0 if unknown). */
    std::uint64_t probeMissesFor(const std::string &name) const;
    /**
     * One named program's completed (non-missed) runs. Raw-tracepoint
     * programs run for every syscall and filter by id in bytecode, so
     * this counts all arrivals that ran — the denominator a consumer
     * needs to scale the (pre-filter) miss counter down to the share
     * relevant to one syscall family.
     */
    std::uint64_t probeRunsFor(const std::string &name) const;
    /** @} */

  private:
    struct Loaded
    {
        ProgId id;
        ProgramSpec spec;
        /** Attach-time native compile (nprog.fn null: interpret). */
        NativeProgram nprog;
        kernel::TracepointId point;
        kernel::ProbeHandle handle;
        std::uint64_t events = 0;
        std::uint64_t mapUpdateFails = 0;
        std::uint64_t ringbufDrops = 0;
        std::uint64_t misses = 0;
    };

    kernel::Kernel &kernel_;
    RuntimeConfig config_;
    Vm vm_;
    sim::Rng rng_;
    std::map<int, std::unique_ptr<Map>> maps_;
    int nextFd_ = 10;
    std::vector<std::unique_ptr<Loaded>> programs_;
    ProgId nextProg_ = 1;
    std::uint64_t events_ = 0;
    sim::Tick totalCost_ = 0;
    std::uint64_t mapUpdateFails_ = 0;
    std::uint64_t ringbufDrops_ = 0;
    std::uint64_t probeMisses_ = 0;
    std::uint64_t nativeInsns_ = 0;
    fault::FaultInjector *fault_ = nullptr;

    sim::Tick execute(Loaded &prog, const kernel::RawSyscallEvent &ev);
};

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_RUNTIME_HH
