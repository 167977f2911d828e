#include "ebpf/maps.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reqobs::ebpf {

Map::Map(MapType type, std::uint32_t key_size, std::uint32_t value_size,
         std::uint32_t max_entries, std::string name)
    : type_(type), keySize_(key_size), valueSize_(value_size),
      maxEntries_(max_entries), name_(std::move(name))
{
    if (type != MapType::RingBuf) {
        if (key_size == 0 || value_size == 0 || max_entries == 0)
            sim::fatal("Map '%s': zero key/value/entries", name_.c_str());
    }
}

void
Map::checkSizes(std::size_t key, std::size_t value) const
{
    if (key != keySize_)
        sim::fatal("Map '%s': key size %zu != %u", name_.c_str(), key,
                   keySize_);
    if (value != valueSize_)
        sim::fatal("Map '%s': value size %zu != %u", name_.c_str(), value,
                   valueSize_);
}

// ------------------------------------------------------------------ Hash

namespace {

/**
 * Probe-table slots for @p max_entries live entries: the smallest power
 * of two ≥ twice that, so live entries fill at most half the table,
 * scans stay short and an empty slot always terminates them. Twice
 * max_entries must fit in 32 bits.
 */
std::uint32_t
tableCapacity(std::uint32_t max_entries, const std::string &name)
{
    if (max_entries > (1u << 30))
        sim::fatal("HashMap '%s': max_entries %u > 2^30", name.c_str(),
                   max_entries);
    std::uint32_t p = 8;
    while (p < max_entries * 2)
        p <<= 1;
    return p;
}

} // namespace

HashMap::HashMap(std::uint32_t key_size, std::uint32_t value_size,
                 std::uint32_t max_entries, std::string name)
    : Map(MapType::Hash, key_size, value_size, max_entries, std::move(name)),
      capacity_(tableCapacity(max_entries, name_)), mask_(capacity_ - 1),
      states_(capacity_, kEmpty),
      keys_(static_cast<std::size_t>(capacity_) * key_size),
      vidx_(capacity_),
      slab_(static_cast<std::size_t>(max_entries) * value_size)
{}

void
HashMap::compact()
{
    // Rebuild the probe table only: key bytes and value indices move to
    // new slots, the value slab (and every pointer into it) stays put.
    std::vector<std::uint8_t> oldStates(std::move(states_));
    detail::UninitVector<std::uint8_t> oldKeys(std::move(keys_));
    detail::UninitVector<std::uint32_t> oldVidx(std::move(vidx_));

    states_.assign(capacity_, kEmpty);
    keys_.resize(static_cast<std::size_t>(capacity_) * keySize_);
    vidx_.resize(capacity_);
    tombstones_ = 0;

    for (std::uint32_t s = 0; s < capacity_; ++s) {
        if (oldStates[s] != kFull)
            continue;
        const std::uint8_t *key =
            oldKeys.data() + static_cast<std::size_t>(s) * keySize_;
        std::uint32_t i = static_cast<std::uint32_t>(hashKey(key)) & mask_;
        while (states_[i] != kEmpty)
            i = (i + 1) & mask_;
        states_[i] = kFull;
        std::memcpy(keys_.data() + static_cast<std::size_t>(i) * keySize_,
                    key, keySize_);
        vidx_[i] = oldVidx[s];
    }
}
void
HashMap::forEach(
    const std::function<void(const std::uint8_t *, const std::uint8_t *)> &fn)
    const
{
    for (std::uint32_t i = 0; i < capacity_; ++i) {
        if (states_[i] == kFull)
            fn(keys_.data() + static_cast<std::size_t>(i) * keySize_,
               valueAt(vidx_[i]));
    }
}

// ----------------------------------------------------------------- Array

ArrayMap::ArrayMap(std::uint32_t value_size, std::uint32_t max_entries,
                   std::string name, MapType type)
    : Map(type, sizeof(std::uint32_t), value_size, max_entries,
          std::move(name)),
      storage_(static_cast<std::size_t>(value_size) * max_entries, 0)
{}

int
ArrayMap::update(const std::uint8_t *key, const std::uint8_t *value,
                 std::uint64_t flags)
{
    if (flags == BPF_NOEXIST)
        return -17; // array slots always exist
    std::uint8_t *slot = lookup(key);
    if (!slot)
        return -7; // -E2BIG: index out of range
    std::memcpy(slot, value, valueSize_);
    return 0;
}

int
ArrayMap::erase(const std::uint8_t *)
{
    return -22; // arrays cannot delete, like Linux
}

// ---------------------------------------------------------------- Sketch

SketchMap::SketchMap(std::uint32_t key_size, std::uint32_t stages,
                     std::uint32_t width, std::string name)
    : Map(MapType::Sketch, key_size, 8, stages * width, std::move(name)),
      stages_(stages), width_(width),
      used_(static_cast<std::size_t>(stages) * width, 0),
      keys_(static_cast<std::size_t>(stages) * width * key_size),
      counts_(static_cast<std::size_t>(stages) * width * 8, 0)
{
    if (stages == 0 || width == 0)
        sim::fatal("SketchMap '%s': zero stages/width", name_.c_str());
    if (key_size > 64)
        sim::fatal("SketchMap '%s': key size %u > 64", name_.c_str(),
                   key_size);
}

std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>>
SketchMap::topK(std::size_t k) const
{
    // Merge duplicate keys across stages, then order by count (desc)
    // with key bytes breaking ties so the result is deterministic.
    std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> all;
    forEach([&](const std::uint8_t *key, const std::uint8_t *val) {
        std::uint64_t c;
        std::memcpy(&c, val, 8);
        for (auto &e : all) {
            if (std::memcmp(e.first.data(), key, keySize_) == 0) {
                e.second += c;
                return;
            }
        }
        all.emplace_back(std::vector<std::uint8_t>(key, key + keySize_), c);
    });
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    if (all.size() > k)
        all.resize(k);
    return all;
}

void
SketchMap::forEach(
    const std::function<void(const std::uint8_t *, const std::uint8_t *)> &fn)
    const
{
    for (std::uint32_t idx = 0; idx < stages_ * width_; ++idx) {
        if (used_[idx])
            fn(keyAt(idx),
               counts_.data() + static_cast<std::size_t>(idx) * 8);
    }
}

// ---------------------------------------------------------------- RingBuf

RingBufMap::RingBufMap(std::uint32_t capacity_bytes, std::string name)
    : Map(MapType::RingBuf, 0, 0, capacity_bytes, std::move(name))
{
    if (capacity_bytes == 0)
        sim::fatal("RingBufMap '%s': zero capacity", name_.c_str());
}

int
RingBufMap::output(const std::uint8_t *data, std::uint32_t len)
{
    if (len == 0 || len > maxEntries_)
        return -22;
    if (bytesQueued_ + len > maxEntries_) {
        ++drops_;
        return -28; // -ENOSPC
    }
    records_.emplace_back(data, data + len);
    bytesQueued_ += len;
    return 0;
}

std::size_t
RingBufMap::consume(
    const std::function<void(const std::uint8_t *, std::uint32_t)> &fn)
{
    std::size_t n = 0;
    while (!records_.empty()) {
        auto rec = std::move(records_.front());
        records_.pop_front();
        bytesQueued_ -= rec.size();
        fn(rec.data(), static_cast<std::uint32_t>(rec.size()));
        ++n;
    }
    return n;
}

} // namespace reqobs::ebpf
