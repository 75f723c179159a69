#include "noc/route.hpp"

#include "common/bitfield.hpp"
#include "common/error.hpp"

namespace smartnoc::noc {

std::vector<NodeId> RoutePath::routers(const MeshDims& dims) const {
  std::vector<NodeId> out;
  out.reserve(links.size() + 1);
  NodeId cur = src;
  out.push_back(cur);
  for (Dir d : links) {
    cur = dims.neighbor(cur, d);
    out.push_back(cur);
  }
  return out;
}

std::string RoutePath::str() const {
  std::string s = std::to_string(src);
  s += ':';
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i) s += ",";
    s += dir_name(links[i]);
  }
  s += ':';
  s += std::to_string(dst);
  return s;
}

SourceRoute SourceRoute::encode(const RoutePath& path) {
  if (path.links.empty()) {
    throw ConfigError("cannot encode an empty route (src == dst flows never enter the network)");
  }
  // L links -> L+1 entries (one per router, the last being Eject).
  const int n = static_cast<int>(path.links.size()) + 1;
  if (2 * n > 64) {
    throw ConfigError("route too long for the 64-bit encoding: " + std::to_string(n) +
                      " entries");
  }
  SourceRoute r;
  r.entries_ = static_cast<std::uint8_t>(n);
  // Entry 0: absolute direction at the source router.
  SMARTNOC_CHECK(is_mesh_dir(path.links[0]), "first link cannot be Core");
  set_bits(r.bits_, 0, 2, static_cast<std::uint64_t>(dir_index(path.links[0])));
  // Entries 1..L-1: relative turns; entry L: eject.
  for (int i = 1; i < n; ++i) {
    Turn t;
    if (i == n - 1) {
      t = Turn::Eject;
    } else {
      const Dir prev = path.links[static_cast<std::size_t>(i - 1)];
      const Dir next = path.links[static_cast<std::size_t>(i)];
      if (next == opposite(prev)) {
        throw ConfigError("U-turn in route " + path.str() + " is not encodable");
      }
      t = turn_between(prev, next);
    }
    set_bits(r.bits_, 2 * i, 2, static_cast<std::uint64_t>(t));
  }
  return r;
}

Dir SourceRoute::first_dir() const {
  SMARTNOC_CHECK(entries_ > 0, "empty route");
  return dir_from_index(static_cast<int>(get_bits(bits_, 0, 2)));
}

Turn SourceRoute::turn_at(int i) const {
  SMARTNOC_CHECK(i >= 1 && i < entries_, "turn index out of range");
  return static_cast<Turn>(get_bits(bits_, 2 * i, 2));
}

Dir SourceRoute::output_at(int hop_index, Dir arrival_port) const {
  SMARTNOC_CHECK(hop_index >= 0 && hop_index < entries_, "route exhausted");
  if (hop_index == 0) return first_dir();
  // The flit entered through `arrival_port`, so it was moving in the
  // opposite direction; turns are relative to the movement direction.
  const Dir moving = opposite(arrival_port);
  SMARTNOC_CHECK(is_mesh_dir(moving), "arrival port must be a mesh port after the source");
  return apply_turn(moving, turn_at(hop_index));
}

RoutePath SourceRoute::decode(NodeId src, const MeshDims& dims) const {
  SMARTNOC_CHECK(entries_ > 0, "empty route");
  RoutePath path;
  path.src = src;
  NodeId cur = src;
  Dir moving = first_dir();
  path.links.push_back(moving);
  cur = dims.neighbor(cur, moving);
  for (int i = 1; i < entries_; ++i) {
    const Turn t = turn_at(i);
    if (t == Turn::Eject) {
      SMARTNOC_CHECK(i == entries_ - 1, "eject entry before the end of the route");
      break;
    }
    moving = apply_turn(moving, t);
    path.links.push_back(moving);
    cur = dims.neighbor(cur, moving);
  }
  path.dst = cur;
  return path;
}

}  // namespace smartnoc::noc
