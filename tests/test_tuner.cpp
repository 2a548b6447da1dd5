// The tune subsystem: placement-keyed tables, the monotone crossover search
// on synthetic cost models, tuning-cache round-trips + fingerprint
// invalidation, env-override precedence, and counter accuracy against known
// traffic.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "lmt/policy.hpp"
#include "tune/calibrate.hpp"
#include "tune/counters.hpp"
#include "tune/json.hpp"
#include "tune/tuning.hpp"

namespace nemo::tune {
namespace {

/// Scoped env var setter (tests must not leak knobs into each other).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

std::string temp_path(const char* tag) {
  return "/tmp/nemo-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".json";
}

TEST(Json, RoundTripsScalarsArraysObjects) {
  std::string text = R"({"a": 1, "b": "x\ny", "c": [true, null, 2.5],
                         "d": {"nested": 18446744073709551615}})";
  auto j = Json::parse(text);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ((*j)["a"].as_uint(), 1u);
  EXPECT_EQ((*j)["b"].as_string(), "x\ny");
  EXPECT_EQ((*j)["c"].items().size(), 3u);
  EXPECT_TRUE((*j)["c"].items()[0].as_bool());
  EXPECT_TRUE((*j)["c"].items()[1].is_null());
  EXPECT_DOUBLE_EQ((*j)["c"].items()[2].as_double(), 2.5);
  EXPECT_EQ((*j)["d"]["nested"].as_uint(), 18446744073709551615ULL);

  // Serialized form parses back to the same values.
  auto j2 = Json::parse(j->dump());
  ASSERT_TRUE(j2.has_value());
  EXPECT_EQ((*j2)["d"]["nested"].as_uint(), 18446744073709551615ULL);

  std::string err;
  EXPECT_FALSE(Json::parse("{\"unterminated\": ", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("{} trailing", &err).has_value());
}

TEST(CrossoverSearch, FindsSyntheticBreakEvenPoint) {
  // Mechanism A: no setup, 10 ns/byte. Mechanism B: 100000 ns setup,
  // 2 ns/byte. Break-even at 12500 bytes: B first wins at 12501.
  auto cost_a = [](std::size_t s) { return 10.0 * static_cast<double>(s); };
  auto cost_b = [](std::size_t s) {
    return 100000.0 + 2.0 * static_cast<double>(s);
  };
  auto x = find_crossover(cost_a, cost_b, 1024, 1 * MiB, /*refine_steps=*/30);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 12501u);
}

TEST(CrossoverSearch, EdgeCases) {
  auto cheap = [](std::size_t) { return 1.0; };
  auto dear = [](std::size_t) { return 2.0; };
  // B never wins on the range.
  EXPECT_FALSE(find_crossover(cheap, dear, 1024, 1 * MiB).has_value());
  // B already wins at the lower bound.
  auto x = find_crossover(dear, cheap, 1024, 1 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 1024u);
}

TEST(Fingerprint, DistinguishesTopologiesAndIsStable) {
  std::string a = topology_fingerprint(xeon_e5345());
  std::string b = topology_fingerprint(xeon_x5460());
  EXPECT_NE(a, b);
  EXPECT_EQ(a, topology_fingerprint(xeon_e5345()));
  // The logical layout is hashed, not the name: same layout under another
  // name shares the hash suffix but not the prefix.
  Topology renamed = xeon_e5345();
  renamed.name = "clovertown";
  EXPECT_NE(a, topology_fingerprint(renamed));
  EXPECT_EQ(a.substr(a.size() - 16),
            topology_fingerprint(renamed).substr(
                topology_fingerprint(renamed).size() - 16));
}

TEST(TuningTable, JsonRoundTripPreservesEveryField) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.source = "calibrated";
  t.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  t.for_placement(PairPlacement::kSharedCache).backend = Backend::kDefault;
  t.for_placement(PairPlacement::kDifferentSockets).nt_min = 7 * MiB;
  t.for_placement(PairPlacement::kDifferentSockets).push_nt = true;
  t.for_placement(PairPlacement::kDifferentSockets).lmt_activation = 32 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend =
      Backend::kVmsplice;
  t.dma_min = 2 * MiB;
  t.collective_activation = 2 * KiB;
  t.fastbox_max = 4 * KiB - 64;

  auto r = from_json(to_json(t));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->fingerprint, t.fingerprint);
  EXPECT_EQ(r->source, "calibrated");
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    const auto& want = t.place[static_cast<std::size_t>(i)];
    const auto& got = r->place[static_cast<std::size_t>(i)];
    EXPECT_EQ(got.nt_min, want.nt_min) << "placement " << i;
    EXPECT_EQ(got.push_nt, want.push_nt) << "placement " << i;
    EXPECT_EQ(got.lmt_activation, want.lmt_activation) << "placement " << i;
    EXPECT_EQ(got.backend, want.backend) << "placement " << i;
  }
  EXPECT_EQ(r->dma_min, 2 * MiB);
  EXPECT_EQ(r->collective_activation, 2 * KiB);
  EXPECT_EQ(r->fastbox_max, 4 * KiB - 64);
}

TEST(TuningTable, CollAndBarrierFieldsRoundTrip) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.coll_activation = 48 * KiB;
  t.coll_slot_bytes = 128 * KiB;
  t.barrier_tree_ranks = 12;
  t.barrier_tree_k = 3;
  t.coll_hier_nodes = 7;
  std::string body = to_json(t);
  EXPECT_NE(body.find("nemo-tune/7"), std::string::npos);
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coll_activation, 48 * KiB);
  EXPECT_EQ(r->coll_slot_bytes, 128 * KiB);
  EXPECT_EQ(r->barrier_tree_ranks, 12u);
  EXPECT_EQ(r->barrier_tree_k, 3u);
  EXPECT_EQ(r->coll_hier_nodes, 7u);
  // Out-of-range coll geometry degrades to "invalid" like the fastbox
  // fields (it feeds coll::WorldColl::create directly).
  TuningTable bad = t;
  bad.coll_slot_bytes = 100;  // Not a cacheline multiple.
  EXPECT_FALSE(from_json(to_json(bad)).has_value());
  // Same for a degenerate tree fan-in (the barrier schedule divides by it).
  bad = t;
  bad.barrier_tree_k = 1;
  EXPECT_FALSE(from_json(to_json(bad)).has_value());
}

TEST(TuningTable, SimdAndPackFieldsRoundTripInSchema4) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.simd_kernel = simd::Choice::kAvx2;
  t.pack_nt_min = 384 * KiB;
  auto r = from_json(to_json(t));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->simd_kernel, simd::Choice::kAvx2);
  EXPECT_EQ(r->pack_nt_min, 384 * KiB);
  // An unknown kernel string is a corrupt cache, not a silent kAuto.
  std::string body = to_json(t);
  auto at = body.find("\"avx2\"");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("\"avx2\""), "\"mmx9\"");
  EXPECT_FALSE(from_json(body).has_value());
}

TEST(TuningTable, Schema3CachesStillLoadWithSimdDefaults) {
  // A schema-3 cache (pre simd_kernel / pack_nt_min) must load gracefully:
  // its fields apply and the new axes keep their defaults (kAuto / formula).
  TuningTable t = formula_defaults(xeon_e5345());
  t.coll_activation = 96 * KiB;
  std::string body = to_json(t);
  auto at = body.find("nemo-tune/7");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("nemo-tune/7"), "nemo-tune/3");
  auto strip = [&body](const std::string& key) {
    auto p = body.find("\"" + key + "\"");
    ASSERT_NE(p, std::string::npos);
    auto c = body.rfind(',', p);
    ASSERT_NE(c, std::string::npos);
    auto q = body.find_first_of(",}", p);
    ASSERT_NE(q, std::string::npos);
    body.erase(c, q - c);
  };
  strip("simd_kernel");
  strip("pack_nt_min");
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coll_activation, 96 * KiB);
  EXPECT_EQ(r->simd_kernel, simd::Choice::kAuto);
  EXPECT_EQ(r->pack_nt_min, 0u);
}

TEST(TuningTable, Schema2CachesStillLoadWithBarrierDefaults) {
  // A schema-2 cache (pre barrier_tree_*) must load gracefully: its fields
  // apply and the barrier fields keep their defaults.
  TuningTable t = formula_defaults(xeon_e5345());
  t.coll_activation = 96 * KiB;
  std::string body = to_json(t);
  auto at = body.find("nemo-tune/7");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("nemo-tune/7"), "nemo-tune/2");
  auto strip = [&body](const std::string& key) {
    auto p = body.find("\"" + key + "\"");
    ASSERT_NE(p, std::string::npos);
    auto c = body.rfind(',', p);
    ASSERT_NE(c, std::string::npos);
    auto q = body.find_first_of(",}", p);
    ASSERT_NE(q, std::string::npos);
    body.erase(c, q - c);
  };
  strip("barrier_tree_ranks");
  strip("barrier_tree_k");
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coll_activation, 96 * KiB);
  TuningTable fresh;
  EXPECT_EQ(r->barrier_tree_ranks, fresh.barrier_tree_ranks);
  EXPECT_EQ(r->barrier_tree_k, fresh.barrier_tree_k);
}

TEST(TuningTable, Schema1CachesStillLoadWithCollDefaults) {
  // A pre-coll cache (schema 1, no coll_* keys) must load gracefully: the
  // old fields apply and the coll fields keep their formula defaults, so
  // old machines re-calibrate instead of erroring out.
  TuningTable t = formula_defaults(xeon_e5345());
  t.fastbox_max = 3 * KiB;
  std::string body = to_json(t);
  auto at = body.find("nemo-tune/7");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("nemo-tune/7"), "nemo-tune/1");
  // Strip the coll keys as an old writer would never have emitted them
  // (erasing from the preceding comma keeps the JSON well-formed even for
  // the object's last member).
  auto strip = [&body](const std::string& key) {
    auto p = body.find("\"" + key + "\"");
    ASSERT_NE(p, std::string::npos);
    auto c = body.rfind(',', p);
    ASSERT_NE(c, std::string::npos);
    auto q = body.find_first_of(",}", p);
    ASSERT_NE(q, std::string::npos);
    body.erase(c, q - c);
  };
  strip("coll_activation");
  strip("coll_slot_bytes");
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->fastbox_max, 3 * KiB);
  TuningTable fresh;
  EXPECT_EQ(r->coll_activation, fresh.coll_activation);
  EXPECT_EQ(r->coll_slot_bytes, fresh.coll_slot_bytes);
}

TEST(TuningTable, Schema6CacheWithRetiredFieldsLoadsKeptFields) {
  // A schema-6 writer also emitted the fastbox geometry, drain budget,
  // hot-peer polling flag and per-placement ring rows. They are ignored on
  // load; every field that remains keeps its cached value.
  const std::string body = R"({
    "schema": "nemo-tune/6", "fingerprint": "fp-6", "source": "calibrated",
    "placements": {
      "shared-llc": {"nt_min": 3145728, "push_nt": true,
                     "lmt_activation": 16384, "backend": "default",
                     "ring_bufs": 8, "ring_buf_bytes": 65536},
      "same-socket": {"nt_min": 5242880, "push_nt": false,
                      "lmt_activation": 12288, "backend": "vmsplice",
                      "ring_bufs": 16, "ring_buf_bytes": 0},
      "cross-socket": {"nt_min": 7340032, "push_nt": true,
                       "lmt_activation": 4096, "backend": "cma",
                       "ring_bufs": 0, "ring_buf_bytes": 0}},
    "dma_min": 2097152,
    "lmt_cma": {"available": false, "activation": 98304},
    "collective_activation": 2048, "fastbox_max": 4032,
    "fastbox_slots": 8, "fastbox_slot_bytes": 4096, "drain_budget": 512,
    "poll_hot": true, "coll_activation": 65536, "coll_slot_bytes": 131072,
    "barrier_tree_ranks": 4, "barrier_tree_k": 3, "simd_kernel": "scalar",
    "pack_nt_min": 1048576, "coll_hier_nodes": 3})";
  std::string err;
  auto r = from_json(body, &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_EQ(r->fingerprint, "fp-6");
  EXPECT_EQ(r->source, "calibrated");
  const PlacementTuning& llc = r->for_placement(PairPlacement::kSharedCache);
  EXPECT_EQ(llc.nt_min, 3 * MiB);
  EXPECT_TRUE(llc.push_nt);
  EXPECT_EQ(llc.lmt_activation, 16 * KiB);
  EXPECT_EQ(llc.backend, Backend::kDefault);
  const PlacementTuning& sock =
      r->for_placement(PairPlacement::kSameSocketNoShare);
  EXPECT_EQ(sock.nt_min, 5 * MiB);
  EXPECT_FALSE(sock.push_nt);
  EXPECT_EQ(sock.lmt_activation, 12 * KiB);
  EXPECT_EQ(sock.backend, Backend::kVmsplice);
  const PlacementTuning& cross =
      r->for_placement(PairPlacement::kDifferentSockets);
  EXPECT_EQ(cross.nt_min, 7 * MiB);
  EXPECT_TRUE(cross.push_nt);
  EXPECT_EQ(cross.lmt_activation, 4 * KiB);
  EXPECT_EQ(cross.backend, Backend::kCma);
  EXPECT_EQ(r->dma_min, 2 * MiB);
  EXPECT_FALSE(r->cma_available);
  EXPECT_EQ(r->cma_activation, 96 * KiB);
  EXPECT_EQ(r->collective_activation, 2 * KiB);
  EXPECT_EQ(r->fastbox_max, 4 * KiB - 64);
  EXPECT_EQ(r->coll_activation, 64 * KiB);
  EXPECT_EQ(r->coll_slot_bytes, 128 * KiB);
  EXPECT_EQ(r->barrier_tree_ranks, 4u);
  EXPECT_EQ(r->barrier_tree_k, 3u);
  EXPECT_EQ(r->simd_kernel, simd::Choice::kScalar);
  EXPECT_EQ(r->pack_nt_min, 1 * MiB);
  EXPECT_EQ(r->coll_hier_nodes, 3u);

  // Re-serialised, the table is schema 7 and the retired keys are gone.
  std::string out = to_json(*r);
  EXPECT_NE(out.find("\"nemo-tune/7\""), std::string::npos);
  for (const char* key : {"ring_bufs", "ring_buf_bytes", "fastbox_slots",
                          "fastbox_slot_bytes", "drain_budget", "poll_hot"})
    EXPECT_EQ(out.find(std::string("\"") + key + "\""), std::string::npos)
        << key;

  // Any nemo-tune/N schema loads; anything else is rejected.
  for (const char* bad : {"nemo-tune/", "nemo-tune/x", "other/6", ""}) {
    std::string b = body;
    b.replace(b.find("nemo-tune/6"), std::strlen("nemo-tune/6"), bad);
    EXPECT_FALSE(from_json(b).has_value()) << bad;
  }
  std::string future = body;
  future.replace(future.find("nemo-tune/6"), std::strlen("nemo-tune/6"),
                 "nemo-tune/12");
  EXPECT_TRUE(from_json(future).has_value());
}

TEST(TuningTable, BarrierTreeEnvKnob) {
  TuningTable base = formula_defaults(xeon_e5345());
  // e5345: pairs of cores share each L2, so the formula fan-in is 2.
  EXPECT_EQ(base.barrier_tree_k, 2u);
  EXPECT_EQ(formula_defaults(nehalem()).barrier_tree_k, 4u);
  // Private-LLC hosts get the generic fan-in.
  EXPECT_EQ(formula_defaults(flat_smp(4, 8 * MiB)).barrier_tree_k, 4u);

  {
    ScopedEnv e("NEMO_BARRIER_TREE", "off");
    EXPECT_EQ(with_env_overrides(base).barrier_tree_ranks, UINT32_MAX);
  }
  {
    ScopedEnv e("NEMO_BARRIER_TREE", "on");
    EXPECT_EQ(with_env_overrides(base).barrier_tree_ranks, 2u);
  }
  {
    ScopedEnv e("NEMO_BARRIER_TREE", "16");
    EXPECT_EQ(with_env_overrides(base).barrier_tree_ranks, 16u);
  }
  {
    // A typo fails loudly instead of silently running the wrong schedule.
    ScopedEnv e("NEMO_BARRIER_TREE", "treeish");
    EXPECT_THROW(with_env_overrides(base), std::invalid_argument);
  }
  {
    ScopedEnv e("NEMO_BARRIER_TREE", "1");  // Threshold below 2 = always.
    EXPECT_EQ(with_env_overrides(base).barrier_tree_ranks, 2u);
  }
}

TEST(TuningCache, RoundTripAndFingerprintMismatchInvalidation) {
  std::string path = temp_path("cache");
  TuningTable t = formula_defaults(xeon_e5345());
  t.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  ASSERT_TRUE(store_cache(path, t));

  auto ok = load_cache(path, t.fingerprint);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->for_placement(PairPlacement::kSharedCache).nt_min, 3 * MiB);
  EXPECT_EQ(ok->source, "cache");

  // A cache written on another machine must be ignored, not applied.
  auto other = load_cache(path, topology_fingerprint(xeon_x5460()));
  EXPECT_FALSE(other.has_value());

  // Malformed cache: ignored.
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("{broken", f);
  std::fclose(f);
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());

  // Out-of-range values (e.g. hand-edited coll geometry that would trip
  // coll::WorldColl::create's asserts): rejected, runtime keeps the
  // formulas.
  TuningTable bad = t;
  bad.coll_slot_bytes = 3000;  // Not a cache-line multiple.
  ASSERT_TRUE(store_cache(path, bad));
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());
  bad = t;
  bad.barrier_tree_k = 1;
  ASSERT_TRUE(store_cache(path, bad));
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());

  EXPECT_FALSE(load_cache("/nonexistent/nope.json", t.fingerprint)
                   .has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, EnvOverridesBeatCacheBeatsFormula) {
  Topology topo = xeon_e5345();
  std::string path = temp_path("prec");
  ScopedEnv cache_env("NEMO_TUNE_CACHE", path);

  // No cache: formula defaults.
  TuningTable formula = formula_defaults(topo);
  TuningTable eff = effective_table(topo);
  EXPECT_EQ(eff.source, "formula");
  EXPECT_EQ(eff.for_placement(PairPlacement::kSharedCache).nt_min,
            formula.for_placement(PairPlacement::kSharedCache).nt_min);

  // Cache present and valid: cache wins over formula.
  TuningTable cached = formula;
  cached.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  cached.fastbox_max = 4 * KiB - 64;
  ASSERT_TRUE(store_cache(path, cached));
  eff = effective_table(topo);
  EXPECT_EQ(eff.source, "cache");
  EXPECT_EQ(eff.for_placement(PairPlacement::kSharedCache).nt_min, 3 * MiB);
  EXPECT_EQ(eff.fastbox_max, 4 * KiB - 64);

  // Env knob wins over the cache.
  {
    ScopedEnv nt("NEMO_NT_MIN", "1MiB");
    ScopedEnv fb("NEMO_FASTBOX_MAX", "1KiB");
    eff = effective_table(topo);
    EXPECT_EQ(eff.for_placement(PairPlacement::kSharedCache).nt_min, 1 * MiB);
    EXPECT_EQ(eff.for_placement(PairPlacement::kDifferentSockets).nt_min,
              1 * MiB);
    EXPECT_EQ(eff.fastbox_max, 1 * KiB);
  }
  // A cutoff no slot can carry is clamped, whatever its source.
  {
    ScopedEnv fb("NEMO_FASTBOX_MAX", "64KiB");
    EXPECT_EQ(effective_table(topo).fastbox_max, shm::Fastbox::kMaxPayload);
  }

  // NEMO_TUNE=0 disables the cache entirely.
  {
    ScopedEnv off("NEMO_TUNE", "0");
    eff = effective_table(topo);
    EXPECT_EQ(eff.source, "formula");
  }
  std::remove(path.c_str());
}

TEST(Policy, ConsultsPlacementRowsAndFallsBackOnAvailability) {
  Topology topo = xeon_e5345();
  TuningTable t = formula_defaults(topo);
  t.for_placement(PairPlacement::kSharedCache).lmt_activation = 16 * KiB;
  t.for_placement(PairPlacement::kSharedCache).backend = Backend::kDefault;
  t.for_placement(PairPlacement::kSameSocketNoShare).lmt_activation = 8 * KiB;
  t.for_placement(PairPlacement::kSameSocketNoShare).backend =
      Backend::kVmsplice;
  t.for_placement(PairPlacement::kDifferentSockets).lmt_activation = 4 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kKnem;
  t.collective_activation = 1 * KiB;
  t.dma_min = 2 * MiB;

  lmt::PolicyConfig pc;
  pc.tuning = &t;
  lmt::Policy p(topo, pc);

  // e5345: cores 0,1 share an L2; 0,2 same socket, no shared cache; 0,7
  // different sockets.
  EXPECT_FALSE(p.use_lmt(16 * KiB, false, 0, 1));
  EXPECT_TRUE(p.use_lmt(16 * KiB + 1, false, 0, 1));
  EXPECT_TRUE(p.use_lmt(8 * KiB + 1, false, 0, 2));
  EXPECT_FALSE(p.use_lmt(4 * KiB, false, 0, 7));
  EXPECT_TRUE(p.use_lmt(4 * KiB + 1, false, 0, 7));
  // Unknown cores read the cross-socket row.
  EXPECT_TRUE(p.use_lmt(4 * KiB + 1));
  // Collectives use the global collective activation.
  EXPECT_TRUE(p.use_lmt(1 * KiB + 1, /*collective=*/true, 0, 1));

  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 1), lmt::LmtKind::kDefaultShm);
  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 2), lmt::LmtKind::kVmsplice);
  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kKnem);
  // Measured DMAmin replaces the formula.
  EXPECT_EQ(p.dma_min_for(0), 2 * MiB);

  // Availability still gates the table's preference: no KNEM -> the
  // cross-socket row falls back down the chain, first to CMA (the same
  // single-copy shape without the driver)...
  lmt::PolicyConfig no_knem = pc;
  no_knem.knem_available = false;
  lmt::Policy p_cma(topo, no_knem);
  EXPECT_EQ(p_cma.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kCma);
  // ...but not below the tuned CMA activation...
  TuningTable t_act = t;
  t_act.cma_activation = 2 * MiB;
  lmt::PolicyConfig pc_act = no_knem;
  pc_act.tuning = &t_act;
  lmt::Policy p_act(topo, pc_act);
  EXPECT_EQ(p_act.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kVmsplice);
  // ...then to vmsplice, then the default ring.
  no_knem.cma_available = false;
  lmt::Policy p2(topo, no_knem);
  EXPECT_EQ(p2.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kVmsplice);
  no_knem.vmsplice_available = false;
  lmt::Policy p3(topo, no_knem);
  EXPECT_EQ(p3.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kDefaultShm);
  // A tuned row naming CMA outright is honoured when available.
  TuningTable t_cma = t;
  t_cma.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kCma;
  lmt::PolicyConfig pc_cma = pc;
  pc_cma.tuning = &t_cma;
  lmt::Policy p4(topo, pc_cma);
  EXPECT_EQ(p4.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kCma);
}

TEST(TuningTable, CmaRowRoundTripsInSchema5) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.cma_available = false;
  t.cma_activation = 96 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kCma;
  std::string body = to_json(t);
  EXPECT_NE(body.find("\"lmt_cma\""), std::string::npos);
  EXPECT_NE(body.find("\"cma\""), std::string::npos);
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->cma_available);
  EXPECT_EQ(r->cma_activation, 96 * KiB);
  EXPECT_EQ(r->for_placement(PairPlacement::kDifferentSockets).backend,
            Backend::kCma);
  // A schema-4 cache without the row keeps the defaults.
  auto at = body.find("nemo-tune/7");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("nemo-tune/7"), "nemo-tune/4");
  auto open = body.find("\"lmt_cma\"");
  ASSERT_NE(open, std::string::npos);
  auto close = body.find('}', open);
  ASSERT_NE(close, std::string::npos);
  auto comma = body.rfind(',', open);
  ASSERT_NE(comma, std::string::npos);
  body.erase(comma, close + 1 - comma);
  auto old = from_json(body);
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->cma_available);
  EXPECT_EQ(old->cma_activation, 8 * KiB);
}

TEST(Calibrate, ProducesAPlausibleTableOnThisHost) {
  CalibrationOptions opt;
  opt.repeats = 1;
  opt.max_size = 4 * MiB;  // Keep the test fast.
  opt.pin = false;
  Topology topo = detect_host();
  TuningTable t = calibrate(topo, opt);
  EXPECT_EQ(t.source, "calibrated");
  EXPECT_EQ(t.fingerprint, topology_fingerprint(topo));
  for (const auto& pt : t.place) {
    EXPECT_GE(pt.lmt_activation, 256u);
    EXPECT_GT(pt.nt_min, 0u);
  }
  // The cutoff fills whole 1 KiB slots between 2 KiB and 16 KiB.
  EXPECT_GE(t.fastbox_max, 2 * KiB - shm::FastboxSlot::kHeaderBytes);
  EXPECT_LE(t.fastbox_max, shm::Fastbox::kMaxPayload);
  EXPECT_EQ(shm::Fastbox::slot_bytes_for(t.fastbox_max) % KiB, 0u);
}

TEST(Counters, SizeClassesAndAccumulation) {
  EXPECT_EQ(Counters::size_class(0), 0);
  EXPECT_EQ(Counters::size_class(1), 0);
  EXPECT_EQ(Counters::size_class(2), 1);
  EXPECT_EQ(Counters::size_class(128), 7);
  EXPECT_EQ(Counters::size_class(129), 7);
  EXPECT_EQ(Counters::size_class(64 * KiB), 16);

  Counters a, b;
  a.record_send(128, Counters::kPathFastbox);
  a.fastbox_hits = 1;
  b.record_send(64 * KiB, 0);
  b.ring_stalls = 3;
  a += b;
  EXPECT_EQ(a.sent_by_class[7], 1u);
  EXPECT_EQ(a.sent_by_class[16], 1u);
  EXPECT_EQ(a.ring_stalls, 3u);

  // The JSON dump carries the populated buckets and the hit rate.
  auto j = Json::parse(telemetry_json("t", &a, 1));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ((*j)["total"]["sent_by_class"]["128B"].as_uint(), 1u);
  EXPECT_EQ((*j)["total"]["sent_by_class"]["64KiB"].as_uint(), 1u);
  EXPECT_EQ((*j)["total"]["ring_stalls"].as_uint(), 3u);
  EXPECT_DOUBLE_EQ((*j)["total"]["fastbox_hit_rate"].as_double(), 1.0);
}

}  // namespace
}  // namespace nemo::tune

namespace nemo::core {
namespace {

using tune::Counters;

TEST(EngineCounters, MatchKnownTraffic) {
  // Hermetic: no cache pickup from the host.
  ::setenv("NEMO_TUNE", "0", 1);
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kDefaultShm;  // Pin the rendezvous backend.
  constexpr int kSmall = 6, kBig = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    std::vector<std::byte> small(128), big(256 * KiB);
    if (comm.rank() == 0) {
      for (int i = 0; i < kSmall; ++i) {
        pattern_fill(small, static_cast<std::uint64_t>(i));
        comm.send(small.data(), small.size(), 1, 1);
      }
      for (int i = 0; i < kBig; ++i) {
        pattern_fill(big, static_cast<std::uint64_t>(100 + i));
        comm.send(big.data(), big.size(), 1, 2);
      }
      comm.hard_barrier();
      const Counters& c = comm.engine().counters();
      // Every small message took either the fastbox or the eager queue.
      EXPECT_EQ(c.path_hist[Counters::kPathFastbox] +
                    c.path_hist[Counters::kPathEager],
                static_cast<std::uint64_t>(kSmall));
      EXPECT_EQ(c.fastbox_hits, c.path_hist[Counters::kPathFastbox]);
      // Both big messages went through the default rendezvous backend.
      EXPECT_EQ(c.path_hist[0],
                static_cast<std::uint64_t>(kBig));
      EXPECT_EQ(c.sent_by_class[Counters::size_class(128)],
                static_cast<std::uint64_t>(kSmall));
      EXPECT_EQ(c.sent_by_class[Counters::size_class(256 * KiB)],
                static_cast<std::uint64_t>(kBig));
    } else {
      for (int i = 0; i < kSmall; ++i) {
        comm.recv(small.data(), small.size(), 0, 1);
        EXPECT_EQ(pattern_check(small, static_cast<std::uint64_t>(i)),
                  kPatternOk);
      }
      for (int i = 0; i < kBig; ++i) {
        comm.recv(big.data(), big.size(), 0, 2);
        EXPECT_EQ(pattern_check(big, static_cast<std::uint64_t>(100 + i)),
                  kPatternOk);
      }
      comm.hard_barrier();
      EXPECT_GT(comm.engine().counters().progress_passes, 0u);
    }
  });
  EXPECT_TRUE(ok);
  ::unsetenv("NEMO_TUNE");
}

TEST(EngineCounters, DrainBudgetExhaustionIsRecorded) {
  ::setenv("NEMO_TUNE", "0", 1);
  Config cfg;
  cfg.nranks = 2;
  cfg.cells_per_rank = 512;  // Room to queue more cells than one pass drains.
  cfg.use_fastbox = false;   // Force every message through the queue.
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr int kMsgs = 300;  // > the 256-cell drain budget.
    std::vector<std::byte> buf(128);
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      std::vector<std::vector<std::byte>> bufs(
          kMsgs, std::vector<std::byte>(128));
      for (int i = 0; i < kMsgs; ++i)
        reqs.push_back(comm.isend(bufs[static_cast<std::size_t>(i)].data(),
                                  128, 1, 5));
      comm.hard_barrier();  // Receiver starts draining only now.
      comm.waitall(reqs);
    } else {
      comm.hard_barrier();
      for (int i = 0; i < kMsgs; ++i) comm.recv(buf.data(), 128, 0, 5);
      // More cells were queued than one progress pass drains, so at least
      // one pass must have hit the budget.
      EXPECT_GT(comm.engine().counters().drain_exhausted, 0u);
    }
  });
  EXPECT_TRUE(ok);
  ::unsetenv("NEMO_TUNE");
}

TEST(EngineCounters, TunedFastboxCutoffRoutesBiggerMessages) {
  // A raised cutoff sizes the slots to match: a 3000-byte message (too big
  // for the default 2 KiB slot) now rides the fastbox.
  ::setenv("NEMO_FASTBOX_MAX", "4KiB", 1);
  ::setenv("NEMO_TUNE", "0", 1);
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    EXPECT_EQ(comm.world().tuning().fastbox_max, 4 * KiB);
    std::vector<std::byte> buf(3000);
    if (comm.rank() == 0) {
      pattern_fill(buf, 7);
      comm.send(buf.data(), buf.size(), 1, 9);
      comm.hard_barrier();
      EXPECT_EQ(comm.engine().stats().fastbox_sent, 1u);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 9);
      EXPECT_EQ(pattern_check(buf, 7), kPatternOk);
      comm.hard_barrier();
    }
  });
  EXPECT_TRUE(ok);
  ::unsetenv("NEMO_FASTBOX_MAX");
  ::unsetenv("NEMO_TUNE");
}

}  // namespace
}  // namespace nemo::core
