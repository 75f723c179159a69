#include "sim/vcd.hpp"

#include <fstream>
#include <set>

#include "common/error.hpp"

namespace smartnoc::sim {

namespace {

/// One VCD line: a one-character prefix (a wire value, or '#' for a
/// timestamp), then the wire's identifier code or the time.
void put_line(std::string& out, char prefix, const std::string& body) {
  out += prefix;
  out += body;
  out += '\n';
}

}  // namespace

VcdTracer::VcdTracer(const MeshDims& dims, double timescale_ps)
    : dims_(dims), timescale_ps_(timescale_ps) {
  SMARTNOC_CHECK(timescale_ps > 0.0, "timescale must be positive");
  // Wire order: all directed mesh links (node-major, E,S,W,N), then the
  // NIC ejection valids. link_index() relies on this layout.
  for (NodeId n = 0; n < dims_.nodes(); ++n) {
    for (Dir d : kMeshDirs) {
      if (dims_.has_neighbor(n, d)) {
        names_.push_back("link_r" + std::to_string(n) + "_" + dir_name(d) + "_valid");
      } else {
        names_.push_back("");  // placeholder to keep indexing regular
      }
    }
  }
  for (NodeId n = 0; n < dims_.nodes(); ++n) {
    names_.push_back("nic" + std::to_string(n) + "_eject_valid");
  }
}

int VcdTracer::link_index(NodeId from, Dir out) const {
  SMARTNOC_CHECK(is_mesh_dir(out), "links are mesh-directional");
  return from * kNumMeshDirs + dir_index(out);
}

std::string VcdTracer::code_for(int index) {
  // Standard VCD identifier alphabet (printable, '!'..'~'), base 94.
  std::string code;
  int v = index;
  do {
    code += static_cast<char>('!' + v % 94);
    v /= 94;
  } while (v > 0);
  return code;
}

std::string VcdTracer::link_code(NodeId from, Dir out) const {
  return code_for(link_index(from, out));
}

std::string VcdTracer::nic_code(NodeId nic) const {
  return code_for(dims_.nodes() * kNumMeshDirs + nic);
}

void VcdTracer::flit_on_link(NodeId from, Dir out, const noc::FlitRef& flit,
                             const noc::PacketPool& pool, Cycle cycle) {
  (void)flit;
  (void)pool;
  pulses_[cycle].push_back(link_index(from, out));
  link_toggles_ += 1;
}

void VcdTracer::flit_latched(bool is_nic, NodeId node, const noc::FlitRef& flit,
                             const noc::PacketPool& pool, Cycle cycle) {
  (void)flit;
  (void)pool;
  if (!is_nic) return;
  pulses_[cycle].push_back(dims_.nodes() * kNumMeshDirs + node);
  nic_deliveries_ += 1;
}

std::string VcdTracer::str() const {
  std::string out;
  out += "$date\n  smartnoc simulation\n$end\n";
  out += "$version\n  smartnoc VcdTracer\n$end\n";
  out += "$timescale " + std::to_string(static_cast<int>(timescale_ps_)) + "ps $end\n";
  out += "$scope module smart_mesh $end\n";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].empty()) continue;
    out += "$var wire 1 " + code_for(static_cast<int>(i)) + " " + names_[i] + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";

  // Initial values: everything low.
  out += "#0\n$dumpvars\n";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (!names_[i].empty()) put_line(out, '0', code_for(static_cast<int>(i)));
  }
  out += "$end\n";

  // Each pulse: high during its cycle, low again at the next. Emit in time
  // order, merging the falling edges of cycle c with the rising edges of
  // c+1 under a single timestamp.
  std::map<Cycle, std::pair<std::set<int>, std::set<int>>> edges;  // t -> (rise, fall)
  for (const auto& [cycle, wires] : pulses_) {
    for (int w : wires) {
      edges[cycle].first.insert(w);
      edges[cycle + 1].second.insert(w);
    }
  }
  std::set<int> high;
  for (const auto& [t, rf] : edges) {
    std::string changes;
    for (int w : rf.second) {
      // Fall only if the wire is actually high and not re-pulsed now.
      if (high.count(w) != 0 && rf.first.count(w) == 0) {
        put_line(changes, '0', code_for(w));
        high.erase(w);
      }
    }
    for (int w : rf.first) {
      if (high.insert(w).second) put_line(changes, '1', code_for(w));
    }
    if (!changes.empty()) {
      put_line(out, '#', std::to_string(t));
      out += changes;
    }
  }
  return out;
}

void VcdTracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw SimError("cannot open " + path + " for VCD dump");
  f << str();
}

}  // namespace smartnoc::sim
