// nemo-tune: measure this machine's LMT crossovers and persist them.
//
// Grown from lmt_tuner (which only *prints* the formula policy): this tool
// *measures* — per placement class it locates the NT-copy crossover, the
// eager/rendezvous activation point, and (with --bench) the fastest
// rendezvous backend via real pingpongs, plus the shm-collective crossover
// and the fastest reduction kernel — then writes the TuningTable to the
// topology-fingerprinted cache file that every nemo entry point loads at
// startup. Calibration costs once per machine:
//
//   build/nemo-tune                 # calibrate + write cache (or reuse it)
//   build/nemo-tune --force         # recalibrate even with a valid cache
//   build/nemo-tune --show          # print the effective table, no writes
//   build/nemo-tune --cache=FILE    # alternate cache location
#include <cstdio>

#include "../bench/bench_common.hpp"
#include "coll/coll.hpp"
#include "common/options.hpp"
#include "shm/fastbox.hpp"
#include "shm/numa.hpp"
#include "tune/calibrate.hpp"
#include "tune/tuning.hpp"

using namespace nemo;

namespace {

void print_table(const tune::TuningTable& t) {
  std::printf("tuning table [%s] fingerprint %s\n", t.source.c_str(),
              t.fingerprint.c_str());
  static const PairPlacement kAll[] = {PairPlacement::kSharedCache,
                                       PairPlacement::kSameSocketNoShare,
                                       PairPlacement::kDifferentSockets};
  for (PairPlacement p : kAll) {
    const tune::PlacementTuning& pt = t.for_placement(p);
    std::printf(
        "  %-22s nt_min=%-8s push_nt=%d activation=%-8s backend=%s\n",
        to_string(p),
        pt.nt_min == SIZE_MAX ? "never" : format_size(pt.nt_min).c_str(),
        pt.push_nt ? 1 : 0, format_size(pt.lmt_activation).c_str(),
        tune::to_string(pt.backend));
  }
  std::printf("  dma_min=%s collective_activation=%s\n",
              t.dma_min == 0 ? "formula" : format_size(t.dma_min).c_str(),
              format_size(t.collective_activation).c_str());
  std::printf("  fastbox: %u slots x %s (cutoff %s)\n",
              shm::Fastbox::kDefaultSlots,
              format_size(shm::Fastbox::slot_bytes_for(t.fastbox_max)).c_str(),
              format_size(t.fastbox_max).c_str());
  std::printf("  coll: activation=%-8s slot=%s   (NEMO_COLL=%s)\n",
              format_size(t.coll_activation).c_str(),
              format_size(t.coll_slot_bytes).c_str(),
              coll::to_string(coll::mode_from_env()));
  std::printf("  simd: kernel=%s (running %s)   pack_nt_min=%s\n",
              simd::choice_name(t.simd_kernel),
              simd::kernel_name(simd::resolve(t.simd_kernel)),
              t.pack_nt_min == 0          ? "formula"
              : t.pack_nt_min == SIZE_MAX ? "never"
                                          : format_size(t.pack_nt_min).c_str());
}

/// Narrate the NUMA placement the runtime would apply per placement class:
/// the decision for a representative core pair of each class, plus whether
/// this host can actually bind (mbind + >1 node + NEMO_NUMA).
void print_numa(const Topology& topo) {
  shm::NumaPlacement mode = shm::numa_placement_from_env();
  std::printf("numa: mode=%s  topo-nodes=%d  host-nodes=%d  bind=%s\n",
              shm::to_string(mode), topo.num_numa_nodes(),
              shm::host_numa_nodes(),
              shm::numa_bind_available() ? "available"
                                         : "unavailable (first-touch)");
  static const PairPlacement kAll[] = {PairPlacement::kSharedCache,
                                       PairPlacement::kSameSocketNoShare,
                                       PairPlacement::kDifferentSockets};
  for (PairPlacement p : kAll) {
    auto pair = topo.find_pair(p);
    if (!pair) continue;
    shm::RegionPlacement r = shm::choose_region_placement(
        mode, topo, pair->first, pair->second);
    const char* what = r.interleave ? "interleaved across nodes"
                       : r.node >= 0 ? "receiver-side"
                                     : "first-touch";
    if (mode == shm::NumaPlacement::kSender && r.node >= 0)
      what = "sender-side";
    if (r.node >= 0)
      std::printf("  %-22s ring buffers -> %s (node %d)\n", to_string(p),
                  what, r.node);
    else
      std::printf("  %-22s ring buffers -> %s\n", to_string(p), what);
  }
}

/// Measure a real 512 KiB pingpong on a pinned core pair per candidate
/// backend and record the winner in the placement row.
void bench_backends(tune::TuningTable& t, const Topology& topo, int iters) {
  static const PairPlacement kAll[] = {PairPlacement::kSharedCache,
                                       PairPlacement::kSameSocketNoShare,
                                       PairPlacement::kDifferentSockets};
  const std::size_t kProbe = 512 * KiB;
  for (PairPlacement p : kAll) {
    auto pair = topo.find_pair(p);
    if (!pair) continue;
    struct Candidate {
      tune::Backend which;
      lmt::LmtKind kind;
    } cands[] = {
        {tune::Backend::kDefault, lmt::LmtKind::kDefaultShm},
        {tune::Backend::kVmsplice, lmt::LmtKind::kVmsplice},
        {tune::Backend::kKnem, lmt::LmtKind::kKnem},
    };
    double best = 0;
    tune::Backend best_b = t.for_placement(p).backend;
    for (const Candidate& c : cands) {
      if (c.kind == lmt::LmtKind::kVmsplice &&
          !shm::Pipe::vmsplice_available())
        continue;
      core::Config cfg;
      cfg.lmt = c.kind;
      cfg.topo = topo;
      cfg.tuning = t;  // Measure with the thresholds just calibrated.
      cfg.core_binding = {pair->first, pair->second};
      double mibs = bench::real_pingpong_mibs(cfg, kProbe, iters);
      std::printf("  [%s] %-10s %8.0f MiB/s\n", to_string(p),
                  lmt::to_string(c.kind), mibs);
      if (mibs > best) {
        best = mibs;
        best_b = c.which;
      }
    }
    t.for_placement(p).backend = best_b;
    std::printf("  [%s] -> %s\n", to_string(p), tune::to_string(best_b));
  }
}

/// `--knobs`: dump every registered NEMO_* environment knob — the one
/// authoritative list (the runtime reads knobs only through this registry,
/// so a knob missing here cannot exist).
void print_knobs() {
  std::printf("%-28s %-6s %-18s %-9s %s\n", "knob", "type", "default",
              "owner", "meaning");
  for (const KnobInfo& k : nemo::Config::knobs()) {
    const char* type = k.type == KnobType::kFlag   ? "flag"
                       : k.type == KnobType::kInt  ? "int"
                       : k.type == KnobType::kSize ? "size"
                                                   : "string";
    std::printf("%-28s %-6s %-18s %-9s %s\n", k.name, type, k.def,
                k.read_by, k.meaning);
    if (auto v = nemo::Config::str(k.name))
      std::printf("%-28s %-6s   set: %s\n", "", "", v->c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("topo", "host|e5345|x5460|nehalem (default host)");
  opt.declare("cache", "cache file (default: fingerprinted path)");
  opt.declare("force", "recalibrate even when the cache is valid");
  opt.declare("show", "print the effective table and exit (no calibration)");
  opt.declare("bench", "also pingpong-race the backends per placement");
  opt.declare("iters", "pingpong iterations for --bench (default 10)");
  opt.declare("quick", "fewer repeats per probe (noisier, faster)");
  opt.declare("knobs", "list every NEMO_* environment knob and exit");
  opt.finalize();

  if (opt.get_flag("knobs")) {
    print_knobs();
    return 0;
  }

  std::string tname = opt.get("topo", "host");
  Topology topo = tname == "e5345"     ? xeon_e5345()
                  : tname == "x5460"   ? xeon_x5460()
                  : tname == "nehalem" ? nehalem()
                                       : detect_host();
  std::string fp = tune::topology_fingerprint(topo);
  std::string path = opt.get("cache", tune::default_cache_path(fp));

  if (opt.get_flag("show")) {
    // Same resolution as the runtime (cache > formula, env on top), but
    // honouring --cache when given.
    std::optional<tune::TuningTable> cached;
    if (nemo::Config::flag("NEMO_TUNE", true)) cached = tune::load_cache(path, fp);
    print_table(tune::with_env_overrides(
        cached ? *cached : tune::formula_defaults(topo)));
    print_numa(topo);
    return 0;
  }

  if (!opt.get_flag("force")) {
    if (auto cached = tune::load_cache(path, fp)) {
      std::printf("cache valid: %s (no recalibration; --force to redo)\n",
                  path.c_str());
      print_table(*cached);
      print_numa(topo);
      return 0;
    }
  }

  std::printf("calibrating %s (%d cores)...\n", topo.name.c_str(),
              topo.num_cores);
  // Read before calibration: the probes pin (and then restore) affinity.
  int host_cores = shm::available_cores();
  tune::CalibrationOptions copt;
  copt.verbose = true;
  if (opt.get_flag("quick")) copt.repeats = 1;
  tune::TuningTable t = tune::calibrate(topo, copt);

  if (opt.get_flag("bench")) {
    if (host_cores < 2)
      std::printf("--bench skipped: host exposes <2 cores, pingpong numbers "
                  "would measure time-slicing\n");
    else
      bench_backends(t, topo, static_cast<int>(opt.get_int("iters", 10)));
  }

  if (!tune::store_cache(path, t)) return 1;
  std::printf("wrote %s\n", path.c_str());
  print_table(t);
  print_numa(topo);
  return 0;
}
