/**
 * @file
 * eBPF map implementations: hash, array, ring buffer and the hash-pipe
 * heavy-hitter sketch.
 *
 * Maps are byte-oriented exactly like the kernel's: a key_size/value_size
 * pair fixed at creation, lookups returning stable pointers into stored
 * values (programs mutate map values in place through those pointers),
 * and a max_entries capacity. Typed convenience accessors are provided
 * for userspace readers (the observability agent).
 */

#ifndef REQOBS_EBPF_MAPS_HH
#define REQOBS_EBPF_MAPS_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace reqobs::ebpf {

/** Supported map types (kernel enum bpf_map_type subset, plus the
 *  hash-pipe heavy-hitter sketch from eHashPipe). */
enum class MapType
{
    Hash,
    Array,
    RingBuf,
    Sketch,
};

/** Update flags (kernel BPF_ANY / BPF_NOEXIST / BPF_EXIST). */
enum : std::uint64_t
{
    BPF_ANY = 0,
    BPF_NOEXIST = 1,
    BPF_EXIST = 2,
};

/** Abstract eBPF map. */
class Map
{
  public:
    Map(MapType type, std::uint32_t key_size, std::uint32_t value_size,
        std::uint32_t max_entries, std::string name);
    virtual ~Map() = default;

    Map(const Map &) = delete;
    Map &operator=(const Map &) = delete;

    /**
     * Kernel-side lookup: pointer to the stored value bytes, or nullptr.
     * The pointer stays valid until the entry is deleted (values are
     * heap-pinned, so concurrent-in-program updates cannot move them).
     */
    virtual std::uint8_t *lookup(const std::uint8_t *key) = 0;

    /** Kernel-side update. @return 0, or a negative errno. */
    virtual int update(const std::uint8_t *key, const std::uint8_t *value,
                       std::uint64_t flags) = 0;

    /** Kernel-side delete. @return 0, or -2 (ENOENT). */
    virtual int erase(const std::uint8_t *key) = 0;

    /** Live entries. */
    virtual std::size_t size() const = 0;

    MapType type() const { return type_; }
    std::uint32_t keySize() const { return keySize_; }
    std::uint32_t valueSize() const { return valueSize_; }
    std::uint32_t maxEntries() const { return maxEntries_; }
    const std::string &name() const { return name_; }

    /** @name Typed userspace access (sizes checked). @{ */
    template <typename K, typename V>
    bool
    get(const K &key, V &out)
    {
        static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>);
        checkSizes(sizeof(K), sizeof(V));
        const std::uint8_t *v =
            lookup(reinterpret_cast<const std::uint8_t *>(&key));
        if (!v)
            return false;
        std::memcpy(&out, v, sizeof(V));
        return true;
    }

    template <typename K, typename V>
    int
    put(const K &key, const V &value, std::uint64_t flags = BPF_ANY)
    {
        static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>);
        checkSizes(sizeof(K), sizeof(V));
        return update(reinterpret_cast<const std::uint8_t *>(&key),
                      reinterpret_cast<const std::uint8_t *>(&value), flags);
    }

    template <typename K>
    int
    remove(const K &key)
    {
        static_assert(std::is_trivially_copyable_v<K>);
        checkSizes(sizeof(K), valueSize_);
        return erase(reinterpret_cast<const std::uint8_t *>(&key));
    }
    /** @} */

  protected:
    void checkSizes(std::size_t key, std::size_t value) const;

    MapType type_;
    std::uint32_t keySize_;
    std::uint32_t valueSize_;
    std::uint32_t maxEntries_;
    std::string name_;
};

namespace detail {

/**
 * Fibonacci multiplicative mixer: one multiply, then fold the
 * well-mixed high bits down so power-of-two masking can use the low
 * ones. Table indexing with linear probing doesn't need a full
 * finalizer, and the single multiply keeps the hash→probe-load
 * dependency chain short on the per-event path.
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x *= 0x9E3779B97F4A7C15ULL;
    return x ^ (x >> 32);
}

/**
 * Allocator whose value-less construct() default-initialises, so a
 * vector of trivial elements sized at creation is not zero-filled and
 * its untouched pages are never written. Construction from a value
 * falls back to std::allocator's, and element access stays the
 * vector's, bounds-checked under _GLIBCXX_ASSERTIONS.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {}

    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
};

/** A vector whose sized constructor and resize() leave elements
 *  uninitialised. */
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

} // namespace detail

/**
 * BPF_MAP_TYPE_HASH.
 *
 * Open-addressing table sized once at creation — the steady-state event
 * path (duration probes insert on syscall entry and delete on exit,
 * every event) performs no allocation at all, unlike a node-based
 * container. The hot operations are non-virtual inline (*Hot) so the
 * VM's helper dispatch can devirtualize them; the virtual Map overrides
 * forward to them. Layout:
 *  - a power-of-two probe table of {state, key bytes, value index}
 *    kept at most half full of live entries, scanned linearly;
 *  - value bytes in a fixed slab: a released slab index is reused
 *    first (last released, first reused), else the next never-used
 *    one. Slab slots never move, so value pointers handed to running
 *    programs stay stable for the entry's lifetime — including across
 *    the tombstone compaction rebuild, which rearranges only the probe
 *    table.
 *
 * Only the slot states are zero-filled at creation. Key bytes, value
 * indices and the slab are read only behind a kFull state, and every
 * insert writes its whole key and value, so they start uninitialised
 * and a map's untouched pages never become resident.
 */
class HashMap : public Map
{
  public:
    HashMap(std::uint32_t key_size, std::uint32_t value_size,
            std::uint32_t max_entries, std::string name = "hash");

    std::uint8_t *lookup(const std::uint8_t *key) override
    {
        return lookupHot(key);
    }
    int update(const std::uint8_t *key, const std::uint8_t *value,
               std::uint64_t flags) override
    {
        return updateHot(key, value, flags);
    }
    int erase(const std::uint8_t *key) override { return eraseHot(key); }
    std::size_t size() const override { return size_; }

    /** @name Non-virtual hot path (inline; behaviour identical to the
     *  virtual overrides, which forward here). @{ */
    std::uint8_t *lookupHot(const std::uint8_t *key);
    int updateHot(const std::uint8_t *key, const std::uint8_t *value,
                  std::uint64_t flags);
    int eraseHot(const std::uint8_t *key);
    /** @} */

    /** Visit every (key, value) pair — userspace iteration. The order
     *  is the probe-table order, not insertion order. */
    void forEach(
        const std::function<void(const std::uint8_t *, const std::uint8_t *)>
            &fn) const;

  private:
    enum : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
    static constexpr std::uint32_t kNoSlot = ~0u;

    std::uint64_t hashKey(const std::uint8_t *key) const;
    bool keyEq(std::uint32_t slot, const std::uint8_t *key) const;
    /** Probe-table slot holding @p key, or kNoSlot. */
    std::uint32_t findSlot(const std::uint8_t *key) const;
    /** Rebuild the probe table in place to clear tombstones. */
    void compact();

    std::uint8_t *valueAt(std::uint32_t vidx)
    {
        return slab_.data() + static_cast<std::size_t>(vidx) * valueSize_;
    }
    const std::uint8_t *valueAt(std::uint32_t vidx) const
    {
        return slab_.data() + static_cast<std::size_t>(vidx) * valueSize_;
    }

    std::uint32_t capacity_; ///< probe-table size, power of two
    std::uint32_t mask_;     ///< capacity_ - 1
    std::size_t size_ = 0;   ///< live entries
    std::size_t tombstones_ = 0;
    std::vector<std::uint8_t> states_;       ///< kEmpty / kFull / kTombstone
    detail::UninitVector<std::uint8_t> keys_; ///< capacity_ × keySize_
    detail::UninitVector<std::uint32_t> vidx_; ///< slot → value slab index
    /** maxEntries_ × valueSize_, pinned. */
    detail::UninitVector<std::uint8_t> slab_;
    std::vector<std::uint32_t> freeVals_; ///< released slab indices
    std::uint32_t nextVal_ = 0;           ///< first never-used slab index
};

// GCC flags the 8-byte memcpy fast paths below when a typed caller
// passes a 4-byte key: the branch is dead then (keySize_ matches the
// caller's key type by construction), but after inlining GCC cannot
// prove it and warns on the unreachable wide read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

inline std::uint64_t
HashMap::hashKey(const std::uint8_t *key) const
{
    if (keySize_ == 8) {
        std::uint64_t k;
        std::memcpy(&k, key, 8);
        return detail::mix64(k);
    }
    if (keySize_ == 4) {
        std::uint32_t k;
        std::memcpy(&k, key, 4);
        return detail::mix64(k);
    }
    // FNV-1a over the key bytes, mixed for power-of-two masking.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t i = 0; i < keySize_; ++i) {
        h ^= key[i];
        h *= 1099511628211ULL;
    }
    return detail::mix64(h);
}

inline bool
HashMap::keyEq(std::uint32_t slot, const std::uint8_t *key) const
{
    const std::uint8_t *stored =
        keys_.data() + static_cast<std::size_t>(slot) * keySize_;
    if (keySize_ == 8) {
        std::uint64_t a, b;
        std::memcpy(&a, stored, 8);
        std::memcpy(&b, key, 8);
        return a == b;
    }
    return std::memcmp(stored, key, keySize_) == 0;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

inline std::uint32_t
HashMap::findSlot(const std::uint8_t *key) const
{
    std::uint32_t i = static_cast<std::uint32_t>(hashKey(key)) & mask_;
    for (;;) {
        const std::uint8_t st = states_[i];
        if (st == kEmpty)
            return kNoSlot;
        if (st == kFull && keyEq(i, key))
            return i;
        i = (i + 1) & mask_;
    }
}

inline std::uint8_t *
HashMap::lookupHot(const std::uint8_t *key)
{
    const std::uint32_t slot = findSlot(key);
    return slot == kNoSlot ? nullptr : valueAt(vidx_[slot]);
}

inline int
HashMap::updateHot(const std::uint8_t *key, const std::uint8_t *value,
                   std::uint64_t flags)
{
    // One probe pass finds either the live entry or the insert position
    // (first tombstone, else the terminating empty slot).
    std::uint32_t insert = kNoSlot;
    std::uint32_t i = static_cast<std::uint32_t>(hashKey(key)) & mask_;
    for (;;) {
        const std::uint8_t st = states_[i];
        if (st == kEmpty) {
            if (insert == kNoSlot)
                insert = i;
            break;
        }
        if (st == kFull && keyEq(i, key)) {
            if (flags == BPF_NOEXIST)
                return -17; // -EEXIST
            std::memcpy(valueAt(vidx_[i]), value, valueSize_);
            return 0;
        }
        if (st == kTombstone && insert == kNoSlot)
            insert = i;
        i = (i + 1) & mask_;
    }
    if (flags == BPF_EXIST)
        return -2; // -ENOENT
    if (size_ >= maxEntries_)
        return -7; // -E2BIG

    if (states_[insert] == kTombstone)
        --tombstones_;
    states_[insert] = kFull;
    std::memcpy(keys_.data() + static_cast<std::size_t>(insert) * keySize_,
                key, keySize_);
    std::uint32_t v = nextVal_;
    if (freeVals_.empty()) {
        ++nextVal_;
    } else {
        v = freeVals_.back();
        freeVals_.pop_back();
    }
    vidx_[insert] = v;
    std::memcpy(valueAt(v), value, valueSize_);
    ++size_;

    // Insert/delete churn accumulates tombstones; rebuild before they
    // crowd out the empty slots that terminate probe scans.
    if (size_ + tombstones_ > capacity_ - capacity_ / 4)
        compact();
    return 0;
}

inline int
HashMap::eraseHot(const std::uint8_t *key)
{
    const std::uint32_t slot = findSlot(key);
    if (slot == kNoSlot)
        return -2; // -ENOENT
    states_[slot] = kTombstone;
    freeVals_.push_back(vidx_[slot]);
    --size_;
    ++tombstones_;
    return 0;
}

/** BPF_MAP_TYPE_ARRAY. */
class ArrayMap : public Map
{
  public:
    ArrayMap(std::uint32_t value_size, std::uint32_t max_entries,
             std::string name = "array", MapType type = MapType::Array);

    std::uint8_t *lookup(const std::uint8_t *key) override
    {
        return lookupHot(key);
    }
    int update(const std::uint8_t *key, const std::uint8_t *value,
               std::uint64_t flags) override;
    int erase(const std::uint8_t *key) override; ///< -EINVAL like Linux
    std::size_t size() const override { return maxEntries_; }

    /** Non-virtual hot lookup (inline), same behaviour as lookup(). */
    std::uint8_t *lookupHot(const std::uint8_t *key)
    {
        std::uint32_t idx;
        std::memcpy(&idx, key, sizeof(idx));
        if (idx >= maxEntries_)
            return nullptr;
        return storage_.data() + static_cast<std::size_t>(idx) * valueSize_;
    }

    /** Direct typed slot access for userspace readers. */
    template <typename V>
    V
    at(std::uint32_t index)
    {
        V out{};
        get(index, out);
        return out;
    }

  private:
    std::vector<std::uint8_t> storage_;
};

/**
 * eHashPipe-style top-K heavy-hitter sketch (the "hash pipe").
 *
 * d stages of w slots each; every stage hashes the key with a different
 * seed. An update carries the incoming (key, count) down the pipe:
 * stage 0 always inserts (evicting the resident entry into the carry),
 * later stages keep whichever of {carry, resident} has the larger
 * count; a carry surviving the last stage is dropped and counted in
 * evictions(). Matching keys merge by addition at any stage, so an
 * update is a merge-add, never an overwrite — and it always succeeds
 * (return 0): eviction is approximation, not failure. Deletion is not
 * part of the structure (erase() returns -EINVAL, and the verifier
 * statically rejects map_delete_elem on sketch handles).
 *
 * The count slab is allocated once and never resized, so the value
 * pointers lookup() hands to running programs stay stable; lookup()
 * scans all d candidate slots for an exact key match. Userspace reads
 * the approximate top-K via topK(), which merges duplicate keys across
 * stages (always-insert can leave the same key resident in two stages).
 */
class SketchMap : public Map
{
  public:
    SketchMap(std::uint32_t key_size, std::uint32_t stages,
              std::uint32_t width, std::string name = "sketch");

    std::uint8_t *lookup(const std::uint8_t *key) override
    {
        return lookupHot(key);
    }
    int update(const std::uint8_t *key, const std::uint8_t *value,
               std::uint64_t flags) override
    {
        return updateHot(key, value, flags);
    }
    int erase(const std::uint8_t *) override { return -22; } // -EINVAL
    std::size_t size() const override { return size_; }

    /** @name Non-virtual hot path (shared by both engines). @{ */
    std::uint8_t *lookupHot(const std::uint8_t *key);
    int updateHot(const std::uint8_t *key, const std::uint8_t *value,
                  std::uint64_t flags);
    /** @} */

    std::uint32_t stages() const { return stages_; }
    std::uint32_t width() const { return width_; }
    /** Carries dropped off the end of the pipe (undercount events). */
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Approximate top-K: resident entries merged by key, sorted by
     * count descending then key bytes ascending (deterministic ties).
     */
    std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>>
    topK(std::size_t k) const;

    /** Visit every resident (key, count bytes) pair in stage-major
     *  slot order — exact-state comparison and snapshotting. */
    void forEach(
        const std::function<void(const std::uint8_t *, const std::uint8_t *)>
            &fn) const;

  private:
    std::uint64_t hashKey(const std::uint8_t *key) const;
    /** Slot index of @p key in @p stage (stage-seeded hash). */
    std::uint32_t slotOf(std::uint32_t stage, const std::uint8_t *key) const;

    std::uint8_t *keyAt(std::uint32_t idx)
    {
        return keys_.data() + static_cast<std::size_t>(idx) * keySize_;
    }
    const std::uint8_t *keyAt(std::uint32_t idx) const
    {
        return keys_.data() + static_cast<std::size_t>(idx) * keySize_;
    }
    std::uint64_t countAt(std::uint32_t idx) const
    {
        std::uint64_t c;
        std::memcpy(&c, counts_.data() + static_cast<std::size_t>(idx) * 8, 8);
        return c;
    }
    void setCountAt(std::uint32_t idx, std::uint64_t c)
    {
        std::memcpy(counts_.data() + static_cast<std::size_t>(idx) * 8, &c, 8);
    }

    std::uint32_t stages_;
    std::uint32_t width_;
    std::size_t size_ = 0;        ///< resident entries
    std::uint64_t evictions_ = 0; ///< carries dropped off the pipe
    std::vector<std::uint8_t> used_;   ///< stages_ × width_ occupancy
    std::vector<std::uint8_t> keys_;   ///< stages_ × width_ × keySize_
    std::vector<std::uint8_t> counts_; ///< stages_ × width_ × 8, pinned
};

inline std::uint64_t
SketchMap::hashKey(const std::uint8_t *key) const
{
    if (keySize_ == 4) {
        std::uint32_t k;
        std::memcpy(&k, key, 4);
        return detail::mix64(k);
    }
    if (keySize_ == 8) {
        std::uint64_t k;
        std::memcpy(&k, key, 8);
        return detail::mix64(k);
    }
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t i = 0; i < keySize_; ++i) {
        h ^= key[i];
        h *= 1099511628211ULL;
    }
    return detail::mix64(h);
}

inline std::uint32_t
SketchMap::slotOf(std::uint32_t stage, const std::uint8_t *key) const
{
    // Re-mix with a per-stage seed so the d hash functions are
    // independent — the whole point of the pipe.
    const std::uint64_t seed = 0xA24BAED4963EE407ULL * (stage + 1);
    return static_cast<std::uint32_t>(detail::mix64(hashKey(key) ^ seed) %
                                      width_);
}

inline std::uint8_t *
SketchMap::lookupHot(const std::uint8_t *key)
{
    for (std::uint32_t s = 0; s < stages_; ++s) {
        const std::uint32_t idx = s * width_ + slotOf(s, key);
        if (used_[idx] && std::memcmp(keyAt(idx), key, keySize_) == 0)
            return counts_.data() + static_cast<std::size_t>(idx) * 8;
    }
    return nullptr;
}

inline int
SketchMap::updateHot(const std::uint8_t *key, const std::uint8_t *value,
                     std::uint64_t flags)
{
    (void)flags; // merge-add semantics regardless of flags
    std::uint64_t ccnt;
    std::memcpy(&ccnt, value, 8);
    // The carry travelling down the pipe; starts as the incoming entry.
    std::uint8_t ckey[64];
    std::memcpy(ckey, key, keySize_);

    for (std::uint32_t s = 0; s < stages_; ++s) {
        const std::uint32_t idx = s * width_ + slotOf(s, ckey);
        if (!used_[idx]) {
            used_[idx] = 1;
            std::memcpy(keyAt(idx), ckey, keySize_);
            setCountAt(idx, ccnt);
            ++size_;
            return 0;
        }
        if (std::memcmp(keyAt(idx), ckey, keySize_) == 0) {
            setCountAt(idx, countAt(idx) + ccnt);
            return 0;
        }
        const std::uint64_t rcnt = countAt(idx);
        if (s == 0 || ccnt > rcnt) {
            // Stage 0 always inserts; later stages keep the larger.
            std::uint8_t tmp[64];
            std::memcpy(tmp, keyAt(idx), keySize_);
            std::memcpy(keyAt(idx), ckey, keySize_);
            std::memcpy(ckey, tmp, keySize_);
            setCountAt(idx, ccnt);
            ccnt = rcnt;
        }
    }
    ++evictions_; // residual carry falls off the pipe
    return 0;
}

/**
 * BPF_MAP_TYPE_RINGBUF: kernel-to-user record stream. Programs emit
 * records via the ringbuf_output helper; userspace drains with consume().
 * When full, records are dropped and counted (matching the helper's
 * -ENOSPC behaviour).
 */
class RingBufMap : public Map
{
  public:
    /** @param capacity_bytes Total buffer capacity. */
    explicit RingBufMap(std::uint32_t capacity_bytes,
                        std::string name = "ringbuf");

    std::uint8_t *lookup(const std::uint8_t *) override { return nullptr; }
    int update(const std::uint8_t *, const std::uint8_t *,
               std::uint64_t) override
    {
        return -22; // -EINVAL
    }
    int erase(const std::uint8_t *) override { return -22; }
    std::size_t size() const override { return records_.size(); }

    /** Kernel-side emit. @return 0, or -28 (ENOSPC) when full. */
    int output(const std::uint8_t *data, std::uint32_t len);

    /** Count a drop decided outside output() (injected capacity loss). */
    void noteDrop() { ++drops_; }

    /** Drain all pending records through @p fn. @return records seen. */
    std::size_t consume(
        const std::function<void(const std::uint8_t *, std::uint32_t)> &fn);

    std::uint64_t drops() const { return drops_; }
    std::size_t bytesQueued() const { return bytesQueued_; }

  private:
    std::deque<std::vector<std::uint8_t>> records_;
    std::size_t bytesQueued_ = 0;
    std::uint64_t drops_ = 0;
};

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_MAPS_HH
