/**
 * @file
 * Unit tests for eBPF maps: hash semantics (flags, capacity, pointer
 * stability, storage under churn, iteration order), array bounds, and
 * the ring buffer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ebpf/maps.hh"
#include "sim/rng.hh"

namespace reqobs::ebpf {
namespace {

TEST(HashMapTest, UpdateLookupDelete)
{
    HashMap m(8, 8, 16);
    const std::uint64_t key = 42, value = 1234;
    EXPECT_EQ(m.put(key, value), 0);
    std::uint64_t out = 0;
    EXPECT_TRUE(m.get(key, out));
    EXPECT_EQ(out, value);
    EXPECT_EQ(m.remove(key), 0);
    EXPECT_FALSE(m.get(key, out));
    EXPECT_EQ(m.remove(key), -2); // ENOENT
}

TEST(HashMapTest, UpdateFlagsSemantics)
{
    HashMap m(8, 8, 16);
    const std::uint64_t k = 1;
    EXPECT_EQ(m.put(k, std::uint64_t{10}, BPF_EXIST), -2);  // no entry yet
    EXPECT_EQ(m.put(k, std::uint64_t{10}, BPF_NOEXIST), 0); // create
    EXPECT_EQ(m.put(k, std::uint64_t{20}, BPF_NOEXIST), -17); // EEXIST
    EXPECT_EQ(m.put(k, std::uint64_t{20}, BPF_EXIST), 0);
    std::uint64_t out = 0;
    m.get(k, out);
    EXPECT_EQ(out, 20u);
}

TEST(HashMapTest, CapacityEnforced)
{
    HashMap m(8, 8, 4);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_EQ(m.put(k, k), 0);
    EXPECT_EQ(m.put(std::uint64_t{99}, std::uint64_t{1}), -7); // E2BIG
    // Updating an existing key still works at capacity.
    EXPECT_EQ(m.put(std::uint64_t{0}, std::uint64_t{5}), 0);
    EXPECT_EQ(m.size(), 4u);
}

TEST(HashMapTest, ValuePointersStableAcrossInserts)
{
    HashMap m(8, 8, 4096);
    const std::uint64_t k0 = 7;
    m.put(k0, std::uint64_t{111});
    std::uint8_t *p =
        m.lookup(reinterpret_cast<const std::uint8_t *>(&k0));
    ASSERT_NE(p, nullptr);
    // Force rehash churn; the held pointer must stay valid (kernel maps
    // guarantee this to in-flight programs).
    for (std::uint64_t k = 100; k < 3000; ++k)
        m.put(k, k);
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    EXPECT_EQ(v, 111u);
}

TEST(HashMapTest, ForEachVisitsEverything)
{
    HashMap m(8, 8, 16);
    for (std::uint64_t k = 0; k < 5; ++k)
        m.put(k, k * 10);
    std::uint64_t sum = 0;
    m.forEach([&](const std::uint8_t *, const std::uint8_t *v) {
        std::uint64_t x;
        std::memcpy(&x, v, 8);
        sum += x;
    });
    EXPECT_EQ(sum, 0u + 10 + 20 + 30 + 40);
}

/**
 * Random insert/erase/lookup/update churn with every update flag
 * against a std::map model, on maps whose probe table fills with
 * tombstones and compacts (89, 7 and 10 times for the three shapes).
 * Values are as wide as the map's value size and every one differs, so
 * a lookup that returns a stale, foreign or never-written slab slot
 * shows.
 */
TEST(HashMapTest, ChurnMatchesAStdMapModel)
{
    struct Shape
    {
        std::uint32_t keySize, valueSize, maxEntries, keys;
    };
    // 8- and 4-byte keys take the multiply hash, 12-byte keys the FNV
    // loop.
    for (const Shape shape : {Shape{8, 8, 64, 160}, Shape{12, 24, 48, 120},
                              Shape{4, 16, 200, 500}}) {
        SCOPED_TRACE(shape.keySize);
        HashMap m(shape.keySize, shape.valueSize, shape.maxEntries);
        std::map<std::vector<std::uint8_t>, std::vector<std::uint8_t>> model;
        sim::Rng rng(shape.keySize * 1000 + shape.maxEntries);
        std::uint64_t stamp = 0;
        int full = 0;
        auto keyOf = [&](std::uint64_t k) {
            std::vector<std::uint8_t> key(shape.keySize);
            for (std::uint32_t i = 0; i < shape.keySize; ++i)
                key[i] = static_cast<std::uint8_t>(k >> (8 * (i % 8)) ^ i);
            return key;
        };
        auto freshValue = [&] {
            std::vector<std::uint8_t> v(shape.valueSize);
            ++stamp;
            for (std::uint32_t i = 0; i < shape.valueSize; ++i)
                v[i] = static_cast<std::uint8_t>(stamp >> (8 * (i % 8)) ^
                                                 (i * 37));
            return v;
        };
        for (int op = 0; op < 40000; ++op) {
            const auto key = keyOf(rng.uniformInt(shape.keys));
            const auto it = model.find(key);
            const double u = rng.uniform();
            if (u < 0.45) {
                const std::uint64_t flags = rng.uniformInt(3);
                const auto value = freshValue();
                const int rc = m.update(key.data(), value.data(), flags);
                int want = 0;
                if (it != model.end() && flags == BPF_NOEXIST)
                    want = -17;
                else if (it == model.end() && flags == BPF_EXIST)
                    want = -2;
                else if (it == model.end() &&
                         model.size() >= shape.maxEntries)
                    want = -7;
                ASSERT_EQ(rc, want) << "op " << op;
                full += rc == -7;
                if (rc == 0)
                    model[key] = value;
            } else if (u < 0.8) {
                const int rc = m.erase(key.data());
                ASSERT_EQ(rc, it == model.end() ? -2 : 0) << "op " << op;
                if (it != model.end())
                    model.erase(it);
            } else {
                const std::uint8_t *got = m.lookup(key.data());
                if (it == model.end()) {
                    ASSERT_EQ(got, nullptr) << "op " << op;
                } else {
                    ASSERT_NE(got, nullptr) << "op " << op;
                    ASSERT_EQ(std::memcmp(got, it->second.data(),
                                          shape.valueSize),
                              0)
                        << "op " << op;
                }
            }
            ASSERT_EQ(m.size(), model.size());
        }
        // The churn really ran into the capacity limit.
        EXPECT_GT(full, 0);
        std::size_t seen = 0;
        m.forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
            const auto it = model.find(
                std::vector<std::uint8_t>(k, k + shape.keySize));
            ASSERT_NE(it, model.end());
            EXPECT_EQ(std::memcmp(v, it->second.data(), shape.valueSize), 0);
            ++seen;
        });
        EXPECT_EQ(seen, model.size());
    }
}

/**
 * forEach visits entries in probe-table order, which snapshotMaps()
 * and restoreMaps() replay: pin the order a fixed insert/erase script
 * (three compactions) leaves, recorded from the earlier zero-filled
 * storage with its pre-filled free list.
 */
TEST(HashMapTest, ForEachOrderIsPinned)
{
    HashMap m(8, 8, 48);
    sim::Rng rng(7);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t k = rng.uniformInt(200);
        if (rng.uniform() < 0.55)
            m.put(k, k * 1000 + static_cast<std::uint64_t>(op));
        else
            m.remove(k);
    }
    for (std::uint64_t k = 0; k < 200; ++k) {
        if (k % 4 != 0)
            m.remove(k);
    }
    std::uint64_t digest = 1469598103934665603ULL;
    std::vector<std::uint64_t> keys;
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
        for (const std::uint8_t *p : {k, v}) {
            for (int i = 0; i < 8; ++i) {
                digest ^= p[i];
                digest *= 1099511628211ULL;
            }
        }
        std::uint64_t key;
        std::memcpy(&key, k, 8);
        keys.push_back(key);
    });
    EXPECT_EQ(m.size(), 13u);
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{116, 32, 140, 112, 172, 128,
                                                188, 152, 192, 36, 8, 168,
                                                44}));
    EXPECT_EQ(digest, 0x331da18a37df3b5aULL); // keys and values, in order
}

TEST(ArrayMapTest, SlotsPrezeroedAndBounded)
{
    ArrayMap m(8, 4);
    EXPECT_EQ(m.at<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.put(std::uint32_t{2}, std::uint64_t{77}), 0);
    EXPECT_EQ(m.at<std::uint64_t>(2), 77u);
    // Out of range.
    const std::uint32_t big = 10;
    EXPECT_EQ(m.lookup(reinterpret_cast<const std::uint8_t *>(&big)),
              nullptr);
    EXPECT_EQ(m.put(big, std::uint64_t{1}), -7);
    // Arrays cannot delete.
    EXPECT_EQ(m.remove(std::uint32_t{0}), -22);
}

TEST(ArrayMapTest, InPlaceMutationThroughLookup)
{
    ArrayMap m(8, 1);
    const std::uint32_t idx = 0;
    std::uint8_t *p = m.lookup(reinterpret_cast<const std::uint8_t *>(&idx));
    ASSERT_NE(p, nullptr);
    std::uint64_t v = 123;
    std::memcpy(p, &v, 8);
    EXPECT_EQ(m.at<std::uint64_t>(0), 123u);
}

TEST(RingBufTest, OutputAndConsume)
{
    RingBufMap rb(1024);
    const char msg[] = "hello";
    EXPECT_EQ(rb.output(reinterpret_cast<const std::uint8_t *>(msg),
                        sizeof(msg)),
              0);
    EXPECT_EQ(rb.size(), 1u);
    std::vector<std::string> got;
    rb.consume([&](const std::uint8_t *d, std::uint32_t len) {
        got.emplace_back(reinterpret_cast<const char *>(d), len);
    });
    ASSERT_EQ(got.size(), 1u);
    EXPECT_STREQ(got[0].c_str(), "hello");
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.bytesQueued(), 0u);
}

TEST(RingBufTest, DropsWhenFull)
{
    RingBufMap rb(64);
    std::uint8_t data[40] = {};
    EXPECT_EQ(rb.output(data, 40), 0);
    EXPECT_EQ(rb.output(data, 40), -28); // ENOSPC
    EXPECT_EQ(rb.drops(), 1u);
    rb.consume([](const std::uint8_t *, std::uint32_t) {});
    EXPECT_EQ(rb.output(data, 40), 0); // space reclaimed
}

TEST(RingBufTest, RejectsInvalidSizes)
{
    RingBufMap rb(64);
    std::uint8_t b = 0;
    EXPECT_EQ(rb.output(&b, 0), -22);
    EXPECT_EQ(rb.output(&b, 65), -22);
    // Ring buffers have no lookup/update/delete.
    EXPECT_EQ(rb.lookup(&b), nullptr);
    EXPECT_EQ(rb.update(&b, &b, 0), -22);
    EXPECT_EQ(rb.erase(&b), -22);
}

TEST(MapDeathTest, TypedAccessChecksSizes)
{
    HashMap m(8, 8, 4);
    std::uint32_t small_key = 1;
    std::uint64_t out;
    EXPECT_DEATH(m.get(small_key, out), "key size");
}

/**
 * Twice max_entries must fit the 32-bit probe-table size: above 2^30
 * the doubling wraps (or never ends), so creation fails before any
 * table is allocated.
 */
TEST(MapDeathTest, HashMapRejectsMoreThanTwoToThe30Entries)
{
    for (const std::uint32_t n :
         {(1u << 30) + 1, 3u << 29, 1u << 31, 0xffffffffu}) {
        EXPECT_DEATH(HashMap(8, 8, n), "max_entries");
    }
}

} // namespace
} // namespace reqobs::ebpf
