// Self-calibrating tuning tables (paper §3.5, generalised): instead of
// deriving every threshold from the CacheSize/(2·sharers) style formulas,
// the runtime consults a TuningTable measured on the actual machine — one
// row per pair-placement class (shared LLC / same socket without sharing /
// cross socket), since every crossover the paper reports moves with
// placement.
//
// Precedence, applied in effective_table():
//   env knobs  >  persistent cache (topology-fingerprinted)  >  formulas.
//
// The cache file is JSON keyed by a fingerprint of the detected topology so
// a machine calibrates once (via the nemo-tune tool or Calibrator) and every
// later run — any entry point — starts with measured thresholds.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/common.hpp"
#include "common/topology.hpp"
#include "simd/simd.hpp"

namespace nemo::tune {

/// Rendezvous backend preference, kept independent of lmt::LmtKind so the
/// tune layer stays below lmt (lmt::Policy maps these onto concrete kinds,
/// honouring availability).
enum class Backend : std::uint32_t {
  kDefault = 0,   ///< Double-buffered shm copy ring.
  kVmsplice = 1,  ///< Single-copy pipe.
  kKnem = 2,      ///< Single-copy pseudo-device (DMA-capable).
  kCma = 3,       ///< Single-copy cross-memory attach (process_vm_readv).
};

const char* to_string(Backend b);
std::optional<Backend> backend_from_string(const std::string& s);

/// Thresholds for one pair-placement class.
///
/// Contract: a PlacementTuning is plain data — producers (formulas,
/// calibration, the JSON cache) fill it, consumers (lmt::Policy,
/// ShmCopyBackend) only read it.
struct PlacementTuning {
  /// Minimum rendezvous size that switches ring copies to streaming
  /// (non-temporal) stores. SIZE_MAX = never.
  std::size_t nt_min = 0;
  /// Whether copy #1 (sender into the ring slot) should also stream. On a
  /// shared LLC the cached slot write is what makes the receiver's read hit,
  /// so the formula default streams only on non-sharing placements.
  bool push_nt = false;
  /// Eager → rendezvous activation for this placement.
  std::size_t lmt_activation = 8 * KiB;
  /// Preferred rendezvous backend.
  Backend backend = Backend::kDefault;
};

/// The full per-machine tuning state the runtime consults.
///
/// Thread-safety: resolved once in the World constructor before ranks spawn
/// and immutable afterwards; every Engine/Policy holds a const reference, so
/// concurrent reads are safe without synchronisation. Mutation happens only
/// in single-threaded tooling (nemo-tune, the calibrator, tests).
struct TuningTable {
  static constexpr int kPlacements = 3;  ///< Indexed by PairPlacement.

  std::string fingerprint;  ///< Topology fingerprint this table was built on.
  std::string source = "formula";  ///< "formula" | "calibrated" | "cache".

  std::array<PlacementTuning, kPlacements> place{};

  /// KNEM DMA offload threshold. 0 = use the paper's per-core formula.
  std::size_t dma_min = 0;

  /// Cross-memory-attach row (schema 5). `cma_available` records whether the
  /// process_vm_readv probe succeeded when this table was calibrated — a
  /// cache written under a permissive kernel must not force CMA on a host
  /// where Yama/seccomp later refuses it, so World still ANDs its own probe
  /// in. `cma_activation` is the message size from which CMA is preferred in
  /// the formula fallback chain (below it the attach syscall's fixed cost
  /// loses to vmsplice / the copy ring).
  bool cma_available = true;
  std::size_t cma_activation = 8 * KiB;
  /// Lower activation used inside collectives (§4.4).
  std::size_t collective_activation = 4 * KiB;

  /// Shm-collective crossover: operations whose symmetric size measure
  /// (bcast bytes, per-rank block, operand bytes) reaches this take the
  /// collective-arena path under NEMO_COLL=auto; below it the pt2pt
  /// algorithms win on their lower per-op synchronisation cost. Measured by
  /// the coll probe in tune::calibrate; NEMO_COLL_ACTIVATION overrides.
  std::size_t coll_activation = 16 * KiB;
  /// Per-rank collective-arena slot capacity (staging + doorbell
  /// pipelining granularity). NEMO_COLL_SLOT_BYTES overrides.
  std::uint32_t coll_slot_bytes = 256 * KiB;

  /// Eager messages at or below this ride the per-pair fastbox ring. The
  /// World sizes every slot to hold it (shm::Fastbox::slot_bytes_for);
  /// with_env_overrides clamps it to shm::Fastbox::kMaxPayload.
  std::size_t fastbox_max = 2 * KiB - 64;

  /// Reduction kernel the collective folds run with. kAuto defers to CPUID
  /// (best supported, AVX-512 -> AVX2 -> scalar) when the World resolves
  /// it; the calibrate simd probe records a concrete winner. NEMO_SIMD
  /// overrides.
  simd::Choice simd_kernel = simd::Choice::kAuto;
  /// Minimum contiguous block run at which datatype pack/unpack streams
  /// through the NT engine (packed strided operands evict the cache the
  /// same way big contiguous copies do). 0 = formula: the same half-LLC
  /// bound as nt_min. SIZE_MAX (NEMO_PACK_NT_MIN=off) = never.
  std::size_t pack_nt_min = 0;

  [[nodiscard]] const PlacementTuning& for_placement(PairPlacement p) const {
    return place[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] PlacementTuning& for_placement(PairPlacement p) {
    return place[static_cast<std::size_t>(p)];
  }
};

/// Legal collective-arena slot range, shared by every resolver (env
/// override, cache validation, Config clamp) so the bounds cannot drift
/// apart. Values must also be cache-line multiples.
inline constexpr std::size_t kCollSlotMin = kCacheLine;
inline constexpr std::size_t kCollSlotMax = 16 * MiB;

/// Is `v` a legal coll_slot_bytes value as-is (range + alignment)?
inline bool coll_slot_in_range(std::size_t v) {
  return v >= kCollSlotMin && v <= kCollSlotMax && v % kCacheLine == 0;
}

/// Parse NEMO_COLL_SLOT_BYTES (rounded up to a cache line). nullopt when
/// unset; throws std::invalid_argument on an out-of-range value — a
/// silently ignored knob would make slot-size experiments unmeasurable.
/// Shared by every resolver (Config apply_env, with_env_overrides) so the
/// accepted range cannot drift between them.
std::optional<std::size_t> coll_slot_bytes_from_env();

/// Stable fingerprint of a topology (FNV-1a over the logical layout), e.g.
/// "host-8c-a1b2c3d4e5f67890". Cache entries are valid only on a machine
/// with an identical fingerprint.
std::string topology_fingerprint(const Topology& topo);

/// The paper's static formulas, evaluated for `topo` (no measurement).
TuningTable formula_defaults(const Topology& topo);

/// Apply env-knob overrides (NEMO_NT_MIN, NEMO_LMT_ACTIVATION,
/// NEMO_FASTBOX_MAX, NEMO_DMA_MIN, NEMO_BACKEND, NEMO_COLL_ACTIVATION,
/// NEMO_COLL_SLOT_BYTES, NEMO_SIMD, NEMO_PACK_NT_MIN) on top of `t` — the
/// "env beats cache beats formula" precedence every entry point shares —
/// then clamp fastbox_max to what a slot can hold. See docs/TUNING.md for the authoritative knob table.
TuningTable with_env_overrides(TuningTable t);

// --- Serialization ---------------------------------------------------------

std::string to_json(const TuningTable& t);
std::optional<TuningTable> from_json(const std::string& text,
                                     std::string* err = nullptr);

/// Where the persistent cache lives: $NEMO_TUNE_CACHE if set, else
/// $XDG_CACHE_HOME/nemo/tune-<fingerprint>.json, else
/// $HOME/.cache/nemo/tune-<fingerprint>.json, else
/// /tmp/nemo-tune-<fingerprint>.json.
std::string default_cache_path(const std::string& fingerprint);

/// Load the cache at `path`; nullopt when missing, malformed, or built for
/// a different topology (fingerprint mismatch ⇒ stale ⇒ ignored).
std::optional<TuningTable> load_cache(const std::string& path,
                                      const std::string& expect_fingerprint);

/// Persist `t` (creates parent directories best-effort). Returns false and
/// prints to stderr when the file cannot be written.
bool store_cache(const std::string& path, const TuningTable& t);

/// One-stop resolution for the runtime: cached table if present and valid
/// for `topo` (unless NEMO_TUNE=0), else formula defaults; env knobs
/// override either.
TuningTable effective_table(const Topology& topo);

}  // namespace nemo::tune
