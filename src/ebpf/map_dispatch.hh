/**
 * @file
 * Devirtualized map dispatch shared by both execution engines.
 *
 * The MapType tag identifies the concrete class, so the common
 * hash/array/sketch operations inline (maps.hh *Hot) instead of going
 * through the vtable on every event. Behaviour is identical to the
 * virtual calls. The reference interpreter's helpers (vm.cc) and the
 * native kernels (native.cc) both include this header so a semantic fix
 * lands in both engines at once — the differential suite would catch a
 * divergence, but sharing the body prevents one.
 */

#ifndef REQOBS_EBPF_MAP_DISPATCH_HH
#define REQOBS_EBPF_MAP_DISPATCH_HH

#include <cstdint>

#include "ebpf/maps.hh"

namespace reqobs::ebpf {

/** Kernel-side lookup. */
inline std::uint8_t *
mapLookupHot(Map *map, const std::uint8_t *key)
{
    switch (map->type()) {
      case MapType::Hash:
        return static_cast<HashMap *>(map)->lookupHot(key);
      case MapType::Array:
        return static_cast<ArrayMap *>(map)->lookupHot(key);
      case MapType::Sketch:
        return static_cast<SketchMap *>(map)->lookupHot(key);
      default:
        return map->lookup(key);
    }
}

inline int
mapUpdateHot(Map *map, const std::uint8_t *key, const std::uint8_t *value,
             std::uint64_t flags)
{
    if (map->type() == MapType::Hash)
        return static_cast<HashMap *>(map)->updateHot(key, value, flags);
    if (map->type() == MapType::Sketch)
        return static_cast<SketchMap *>(map)->updateHot(key, value, flags);
    return map->update(key, value, flags);
}

inline int
mapEraseHot(Map *map, const std::uint8_t *key)
{
    if (map->type() == MapType::Hash)
        return static_cast<HashMap *>(map)->eraseHot(key);
    return map->erase(key);
}

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_MAP_DISPATCH_HH
