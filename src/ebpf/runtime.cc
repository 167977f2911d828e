#include "ebpf/runtime.hh"

#include <cstring>

#include "ebpf/helpers.hh"
#include "sim/logging.hh"

namespace reqobs::ebpf {

EbpfRuntime::EbpfRuntime(kernel::Kernel &kernel, const RuntimeConfig &config)
    : kernel_(kernel), config_(config), rng_(kernel.sim().forkRng())
{}

EbpfRuntime::~EbpfRuntime()
{
    unloadAll();
}

int
EbpfRuntime::createMap(std::unique_ptr<Map> map)
{
    if (!map)
        sim::fatal("EbpfRuntime::createMap: null map");
    const int fd = nextFd_++;
    maps_.emplace(fd, std::move(map));
    return fd;
}

int
EbpfRuntime::createHashMap(std::uint32_t key_size, std::uint32_t value_size,
                           std::uint32_t max_entries, const std::string &name)
{
    return createMap(
        std::make_unique<HashMap>(key_size, value_size, max_entries, name));
}

int
EbpfRuntime::createArrayMap(std::uint32_t value_size,
                            std::uint32_t max_entries, const std::string &name)
{
    return createMap(std::make_unique<ArrayMap>(value_size, max_entries,
                                                name));
}

int
EbpfRuntime::createRingBuf(std::uint32_t capacity_bytes,
                           const std::string &name)
{
    return createMap(std::make_unique<RingBufMap>(capacity_bytes, name));
}

int
EbpfRuntime::createSketchMap(std::uint32_t key_size, std::uint32_t stages,
                             std::uint32_t width, const std::string &name)
{
    return createMap(
        std::make_unique<SketchMap>(key_size, stages, width, name));
}

Map &
EbpfRuntime::mapAt(int fd) const
{
    auto it = maps_.find(fd);
    if (it == maps_.end())
        sim::fatal("EbpfRuntime: unknown map fd %d", fd);
    return *it->second;
}

ArrayMap &
EbpfRuntime::arrayAt(int fd) const
{
    auto *m = dynamic_cast<ArrayMap *>(&mapAt(fd));
    if (!m)
        sim::fatal("EbpfRuntime: fd %d is not an array map", fd);
    return *m;
}

HashMap &
EbpfRuntime::hashAt(int fd) const
{
    auto *m = dynamic_cast<HashMap *>(&mapAt(fd));
    if (!m)
        sim::fatal("EbpfRuntime: fd %d is not a hash map", fd);
    return *m;
}

RingBufMap &
EbpfRuntime::ringbufAt(int fd) const
{
    auto *m = dynamic_cast<RingBufMap *>(&mapAt(fd));
    if (!m)
        sim::fatal("EbpfRuntime: fd %d is not a ring buffer", fd);
    return *m;
}

SketchMap &
EbpfRuntime::sketchAt(int fd) const
{
    auto *m = dynamic_cast<SketchMap *>(&mapAt(fd));
    if (!m)
        sim::fatal("EbpfRuntime: fd %d is not a sketch", fd);
    return *m;
}

std::map<int, Map *>
EbpfRuntime::mapTable() const
{
    std::map<int, Map *> out;
    for (const auto &[fd, map] : maps_)
        out.emplace(fd, map.get());
    return out;
}

EbpfRuntime::MapSnapshot
EbpfRuntime::snapshotMaps() const
{
    MapSnapshot snap;
    for (const auto &[fd, map] : maps_) {
        MapImage img;
        img.type = map->type();
        img.keySize = map->keySize();
        img.valueSize = map->valueSize();
        if (auto *arr = dynamic_cast<ArrayMap *>(map.get())) {
            for (std::uint32_t i = 0; i < arr->maxEntries(); ++i) {
                const std::uint8_t *v = arr->lookupHot(
                    reinterpret_cast<const std::uint8_t *>(&i));
                std::vector<std::uint8_t> key(sizeof(i));
                std::memcpy(key.data(), &i, sizeof(i));
                img.entries.emplace_back(
                    std::move(key),
                    std::vector<std::uint8_t>(v, v + arr->valueSize()));
            }
        } else if (auto *hash = dynamic_cast<HashMap *>(map.get())) {
            hash->forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
                img.entries.emplace_back(
                    std::vector<std::uint8_t>(k, k + hash->keySize()),
                    std::vector<std::uint8_t>(v, v + hash->valueSize()));
            });
        } else if (auto *sk = dynamic_cast<SketchMap *>(map.get())) {
            // Restore replays these through update(), whose merge-add
            // into an empty pipe reproduces the per-key totals.
            sk->forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
                img.entries.emplace_back(
                    std::vector<std::uint8_t>(k, k + sk->keySize()),
                    std::vector<std::uint8_t>(v, v + sk->valueSize()));
            });
        }
        // Ring buffers: transient stream state, imaged as empty.
        snap.emplace(map->name(), std::move(img));
    }
    return snap;
}

std::size_t
EbpfRuntime::restoreMaps(const MapSnapshot &snap)
{
    std::size_t restored = 0;
    for (const auto &[fd, map] : maps_) {
        auto it = snap.find(map->name());
        if (it == snap.end())
            continue;
        const MapImage &img = it->second;
        if (img.type != map->type() || img.keySize != map->keySize() ||
            img.valueSize != map->valueSize())
            continue;
        if (map->type() == MapType::RingBuf)
            continue;
        for (const auto &[key, value] : img.entries) {
            if (map->update(key.data(), value.data(), BPF_ANY) == 0)
                ++restored;
        }
    }
    return restored;
}

VerifyResult
EbpfRuntime::loadAndAttach(ProgramSpec spec, kernel::TracepointId point,
                           ProgId *id)
{
    VerifyResult vr = verify(spec, config_.limits);
    if (!vr)
        return vr;

    if (fault_ && fault_->injectAttachFail(spec.name)) {
        vr.ok = false;
        vr.error = "attach failed (injected fault): " + spec.name;
        return vr;
    }

    auto loaded = std::make_unique<Loaded>();
    loaded->id = nextProg_++;
    loaded->spec = std::move(spec);
    loaded->point = point;
    // Native compile is cheap (bytecode recognition), so every library
    // probe gets a kernel unless the interpreter is pinned as the oracle.
    if (config_.engine != ExecEngine::Reference)
        compileNative(loaded->spec, &loaded->nprog);
    Loaded *raw = loaded.get();
    loaded->handle = kernel_.tracepoints().attach(
        point, [this, raw](const kernel::RawSyscallEvent &ev) {
            return execute(*raw, ev);
        });
    if (id)
        *id = loaded->id;
    programs_.push_back(std::move(loaded));
    return vr;
}

void
EbpfRuntime::unload(ProgId id)
{
    for (auto it = programs_.begin(); it != programs_.end(); ++it) {
        if ((*it)->id == id) {
            kernel_.tracepoints().detach((*it)->handle);
            programs_.erase(it);
            return;
        }
    }
}

void
EbpfRuntime::unloadAll()
{
    for (auto &prog : programs_)
        kernel_.tracepoints().detach(prog->handle);
    programs_.clear();
}

std::vector<EbpfRuntime::ProbeCounters>
EbpfRuntime::probeCounters() const
{
    std::vector<ProbeCounters> out;
    out.reserve(programs_.size());
    for (const auto &prog : programs_) {
        ProbeCounters pc;
        pc.name = prog->spec.name;
        pc.shape = prog->nprog.shape;
        pc.events = prog->events;
        pc.mapUpdateFails = prog->mapUpdateFails;
        pc.ringbufDrops = prog->ringbufDrops;
        pc.misses = prog->misses;
        out.push_back(std::move(pc));
    }
    return out;
}

std::uint64_t
EbpfRuntime::probeLoss(const std::string &name) const
{
    for (const auto &prog : programs_) {
        if (prog->spec.name == name)
            return prog->misses + prog->mapUpdateFails + prog->ringbufDrops;
    }
    return 0;
}

std::uint64_t
EbpfRuntime::probeMissesFor(const std::string &name) const
{
    for (const auto &prog : programs_) {
        if (prog->spec.name == name)
            return prog->misses;
    }
    return 0;
}

std::uint64_t
EbpfRuntime::probeRunsFor(const std::string &name) const
{
    for (const auto &prog : programs_) {
        if (prog->spec.name == name)
            return prog->events;
    }
    return 0;
}

sim::Tick
EbpfRuntime::execute(Loaded &prog, const kernel::RawSyscallEvent &ev)
{
    // A missed run (recursion protection, overloaded CPU) never reaches
    // the program: no state change, no cost charged to the thread. The
    // kernel would bump the program's missed-run counter, as here.
    if (fault_ && fault_->injectProbeMiss()) {
        ++prog.misses;
        ++probeMisses_;
        return 0;
    }

    ++events_;
    ++prog.events;

    TraceCtx ctx;
    ctx.id = static_cast<std::uint64_t>(ev.syscall);
    ctx.pidTgid = ev.pidTgid;
    ctx.ts = static_cast<std::uint64_t>(ev.timestamp);
    ctx.ret = ev.ret;

    ExecEnv env;
    env.nowNs = static_cast<std::uint64_t>(ev.timestamp);
    env.pidTgid = ev.pidTgid;
    env.rng = &rng_;
    env.fault = fault_;

    std::uint64_t insns;
    if (prog.nprog.fn) {
        // Directly callable kernel: no dispatch, no abort path (the
        // recogniser only accepts library probes, which cannot fault).
        NativeResult nr;
        prog.nprog.fn(prog.nprog, ctx, env, nr);
        prog.mapUpdateFails += nr.mapUpdateFails;
        prog.ringbufDrops += nr.ringbufDrops;
        mapUpdateFails_ += nr.mapUpdateFails;
        ringbufDrops_ += nr.ringbufDrops;
        nativeInsns_ += nr.insns;
        insns = nr.insns;
    } else {
        RunResult r = vm_.run(prog.spec,
                              reinterpret_cast<std::uint8_t *>(&ctx),
                              sizeof(ctx), env);
        prog.mapUpdateFails += r.mapUpdateFails;
        prog.ringbufDrops += r.ringbufDrops;
        mapUpdateFails_ += r.mapUpdateFails;
        ringbufDrops_ += r.ringbufDrops;
        if (r.aborted) {
            // Cannot happen for verified programs; a fault here is a bug
            // in this runtime, not in the probe.
            sim::panic("eBPF program '%s' faulted at runtime: %s",
                       prog.spec.name.c_str(), r.error.c_str());
        }
        insns = r.insns;
    }

    const sim::Tick cost =
        config_.baseProbeCost +
        config_.perInsnCost * static_cast<sim::Tick>(insns);
    totalCost_ += cost;
    return cost;
}

std::size_t
EbpfRuntime::nativePrograms() const
{
    std::size_t n = 0;
    for (const auto &prog : programs_)
        if (prog->nprog.fn)
            ++n;
    return n;
}

} // namespace reqobs::ebpf
