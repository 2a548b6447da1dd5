#include "common/topology.hpp"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "common/common.hpp"

namespace nemo {

const char* to_string(PairPlacement p) {
  switch (p) {
    case PairPlacement::kSharedCache: return "shared-cache";
    case PairPlacement::kSameSocketNoShare: return "same-socket-no-share";
    case PairPlacement::kDifferentSockets: return "different-sockets";
  }
  return "?";
}

int Topology::num_numa_nodes() const {
  int hi = 0;
  for (int n : numa_of) hi = std::max(hi, n);
  return hi + 1;
}

std::optional<CacheDomain> Topology::shared_cache(int a, int b) const {
  std::optional<CacheDomain> best;
  for (const auto& c : caches) {
    if (c.contains(a) && c.contains(b)) {
      if (!best || c.level > best->level) best = c;
    }
  }
  return best;
}

const CacheDomain& Topology::largest_cache(int core) const {
  const CacheDomain* best = nullptr;
  for (const auto& c : caches) {
    if (c.contains(core) && (!best || c.level > best->level)) best = &c;
  }
  NEMO_ASSERT_MSG(best != nullptr, "core not covered by any cache");
  return *best;
}

PairPlacement Topology::classify(int a, int b) const {
  if (shared_cache(a, b)) return PairPlacement::kSharedCache;
  if (socket_of[static_cast<std::size_t>(a)] ==
      socket_of[static_cast<std::size_t>(b)])
    return PairPlacement::kSameSocketNoShare;
  return PairPlacement::kDifferentSockets;
}

std::optional<std::pair<int, int>> Topology::find_pair(PairPlacement p) const {
  for (int a = 0; a < num_cores; ++a)
    for (int b = a + 1; b < num_cores; ++b)
      if (classify(a, b) == p) return std::make_pair(a, b);
  return std::nullopt;
}

void Topology::validate() const {
  NEMO_ASSERT(num_cores > 0);
  NEMO_ASSERT(socket_of.size() == static_cast<std::size_t>(num_cores));
  NEMO_ASSERT(die_of.size() == static_cast<std::size_t>(num_cores));
  NEMO_ASSERT_MSG(numa_of.empty() ||
                      numa_of.size() == static_cast<std::size_t>(num_cores),
                  "numa_of must be empty or name one node per core");
  for (int n : numa_of) NEMO_ASSERT(n >= 0);
  for (int c = 0; c < num_cores; ++c) {
    bool covered = false;
    for (const auto& d : caches)
      if (d.contains(c)) covered = true;
    NEMO_ASSERT_MSG(covered, "every core must sit behind at least one cache");
  }
  for (const auto& d : caches) {
    NEMO_ASSERT(d.level >= 1 && d.level <= 3);
    NEMO_ASSERT(d.size_bytes > 0);
    NEMO_ASSERT(is_pow2(d.line_bytes));
    NEMO_ASSERT(d.associativity >= 1);
    for (int c : d.cores) NEMO_ASSERT(c >= 0 && c < num_cores);
  }
}

namespace {

void add_private_l1(Topology& t, std::size_t size = 32 * KiB,
                    unsigned assoc = 8) {
  for (int c = 0; c < t.num_cores; ++c)
    t.caches.push_back({1, size, kCacheLine, assoc, {c}});
}

}  // namespace

Topology xeon_e5345() {
  // Clovertown: two sockets; each socket is two dual-core dies; each die has
  // one 4 MiB, 16-way L2 shared by its 2 cores. Linux-style numbering: cores
  // {0,1} share a die, {2,3} the next, etc.
  Topology t;
  t.name = "xeon-e5345";
  t.num_cores = 8;
  for (int c = 0; c < 8; ++c) {
    t.socket_of.push_back(c / 4);
    t.die_of.push_back(c / 2);
    // One synthetic NUMA node per socket: the FSB-era part was UMA, but a
    // per-socket map makes placement decisions exercisable in the sim and in
    // tests on single-node containers.
    t.numa_of.push_back(c / 4);
  }
  add_private_l1(t);
  for (int die = 0; die < 4; ++die)
    t.caches.push_back(
        {2, 4 * MiB, kCacheLine, 16, {2 * die, 2 * die + 1}});
  t.validate();
  return t;
}

Topology xeon_x5460() {
  Topology t;
  t.name = "xeon-x5460";
  t.num_cores = 4;
  for (int c = 0; c < 4; ++c) {
    t.socket_of.push_back(0);
    t.die_of.push_back(c / 2);
  }
  add_private_l1(t);
  t.caches.push_back({2, 6 * MiB, kCacheLine, 24, {0, 1}});
  t.caches.push_back({2, 6 * MiB, kCacheLine, 24, {2, 3}});
  t.validate();
  return t;
}

Topology nehalem() {
  Topology t;
  t.name = "nehalem";
  t.num_cores = 4;
  for (int c = 0; c < 4; ++c) {
    t.socket_of.push_back(0);
    t.die_of.push_back(0);
  }
  add_private_l1(t);
  for (int c = 0; c < 4; ++c)
    t.caches.push_back({2, 256 * KiB, kCacheLine, 8, {c}});
  t.caches.push_back({3, 8 * MiB, kCacheLine, 16, {0, 1, 2, 3}});
  t.validate();
  return t;
}

Topology flat_smp(int ncores, std::size_t llc_bytes) {
  NEMO_ASSERT(ncores > 0);
  Topology t;
  t.name = "flat-smp";
  t.num_cores = ncores;
  for (int c = 0; c < ncores; ++c) {
    t.socket_of.push_back(0);
    t.die_of.push_back(c);
  }
  add_private_l1(t);
  for (int c = 0; c < ncores; ++c)
    t.caches.push_back({2, llc_bytes, kCacheLine, 16, {c}});
  t.validate();
  return t;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::getline(f, out);
  return true;
}

std::size_t parse_sysfs_size(const std::string& s) {
  // sysfs cache sizes look like "4096K".
  if (s.empty()) return 0;
  char* end = nullptr;
  unsigned long v = std::strtoul(s.c_str(), &end, 10);
  std::size_t mult = 1;
  if (end && (*end == 'K' || *end == 'k')) mult = KiB;
  if (end && (*end == 'M' || *end == 'm')) mult = MiB;
  return static_cast<std::size_t>(v) * mult;
}

/// Parse a sysfs cpulist like "0-3,8,10-11" into core ids.
std::vector<int> parse_cpulist(const std::string& s) {
  std::vector<int> out;
  const char* p = s.c_str();
  while (*p) {
    char* end = nullptr;
    long a = std::strtol(p, &end, 10);
    if (end == p) break;
    p = end;
    long b = a;
    if (*p == '-') {
      ++p;
      b = std::strtol(p, &end, 10);
      p = end;
    }
    for (long c = a; c <= b; ++c) out.push_back(static_cast<int>(c));
    if (*p == ',') ++p;
  }
  return out;
}

}  // namespace

Topology detect_host() {
  int ncpu = static_cast<int>(std::thread::hardware_concurrency());
  if (ncpu <= 0) ncpu = 1;

  Topology t;
  t.name = "host";
  t.num_cores = ncpu;
  t.socket_of.assign(static_cast<std::size_t>(ncpu), 0);
  t.die_of.resize(static_cast<std::size_t>(ncpu));
  for (int c = 0; c < ncpu; ++c) t.die_of[static_cast<std::size_t>(c)] = c;

  bool any_cache = false;
  // Key caches by (level, first shared cpu) to dedupe instances listed once
  // per participating cpu.
  std::set<std::pair<int, int>> seen;
  for (int c = 0; c < ncpu; ++c) {
    std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(c);
    std::string pkg;
    if (read_file(base + "/topology/physical_package_id", pkg))
      t.socket_of[static_cast<std::size_t>(c)] =
          static_cast<int>(std::strtol(pkg.c_str(), nullptr, 10));
    for (int idx = 0; idx < 8; ++idx) {
      std::string cbase = base + "/cache/index" + std::to_string(idx);
      std::string level_s, type_s, size_s, cpus_s, ways_s;
      if (!read_file(cbase + "/level", level_s)) break;
      read_file(cbase + "/type", type_s);
      if (type_s == "Instruction") continue;
      if (!read_file(cbase + "/size", size_s)) continue;
      if (!read_file(cbase + "/shared_cpu_list", cpus_s)) continue;
      std::vector<int> cores = parse_cpulist(cpus_s);
      // Drop cpus beyond our logical range (offline etc.).
      cores.erase(std::remove_if(cores.begin(), cores.end(),
                                 [&](int x) { return x >= ncpu; }),
                  cores.end());
      if (cores.empty()) continue;
      int level = static_cast<int>(std::strtol(level_s.c_str(), nullptr, 10));
      if (level < 1 || level > 3) continue;
      if (!seen.insert({level, cores.front()}).second) continue;
      unsigned ways = 8;
      if (read_file(cbase + "/ways_of_associativity", ways_s))
        ways = static_cast<unsigned>(
            std::max(1L, std::strtol(ways_s.c_str(), nullptr, 10)));
      CacheDomain d{level, parse_sysfs_size(size_s), kCacheLine, ways, cores};
      if (d.size_bytes == 0) continue;
      t.caches.push_back(std::move(d));
      any_cache = true;
    }
  }
  // NUMA map: /sys/devices/system/node/node<N>/cpulist names each node's
  // cores. A partial map (offline cpus, containers hiding nodes) degrades to
  // "single node" rather than a half-filled vector.
  std::vector<int> numa(static_cast<std::size_t>(ncpu), -1);
  bool any_node = false;
  // No break on a missing id: node ids can be sparse (offline/hotplug).
  for (int node = 0; node < 256; ++node) {
    std::string cpus_s;
    if (!read_file("/sys/devices/system/node/node" + std::to_string(node) +
                       "/cpulist",
                   cpus_s))
      continue;
    for (int c : parse_cpulist(cpus_s))
      if (c >= 0 && c < ncpu) {
        numa[static_cast<std::size_t>(c)] = node;
        any_node = true;
      }
  }
  if (any_node &&
      std::none_of(numa.begin(), numa.end(), [](int n) { return n < 0; }))
    t.numa_of = std::move(numa);

  if (!any_cache) {
    Topology flat = flat_smp(ncpu, 8 * MiB);
    flat.numa_of = t.numa_of;  // Keep the node map even without cache info.
    return flat;
  }
  // Soft-validate: NEMO_ASSERT aborts, so check coverage manually and fall
  // back to a flat description when sysfs gave us something partial.
  for (int c = 0; c < ncpu; ++c) {
    bool covered = false;
    for (const auto& d : t.caches)
      if (d.contains(c)) covered = true;
    if (!covered) {
      Topology flat = flat_smp(ncpu, 8 * MiB);
      flat.numa_of = t.numa_of;
      return flat;
    }
  }
  return t;
}

}  // namespace nemo
