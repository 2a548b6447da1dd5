// Shared internals of the collective implementations (core/collectives.cpp
// and coll/coll_hier.cpp): the tag/epoch namespacing contract and the
// progress-preserving spin helpers. These constants are load-bearing across
// translation units — the flat and hierarchical families derive tags and
// arena epochs from the SAME per-Comm collective sequence number, so two
// files disagreeing on the formulas would cross-match messages from
// different collective instances.
#pragma once

#include <thread>

#include "core/comm.hpp"

namespace nemo::core::coll_detail {

/// Internal pt2pt tags live in a reserved negative space, namespaced by the
/// per-Comm collective sequence number so back-to-back collectives cannot
/// cross-match.
inline constexpr int kCollTagBase = -(1 << 20);

/// Distinct tag for (collective instance, phase). Phases 0..15.
inline int coll_tag(std::uint64_t coll_seq, int phase) {
  return kCollTagBase - static_cast<int>((coll_seq % 4096) * 16) - phase;
}

/// Arena epoch for collective instance `cs` (3 phase bits appended; +1
/// keeps epoch 0 reserved for "slot never used").
inline std::uint64_t epoch_base(std::uint64_t cs) { return (cs + 1) << 3; }

/// Spin until `ready()` while keeping pt2pt progress flowing. Counts one
/// epoch stall whenever the first probe missed (telemetry for "readers
/// arrive before writers publish"). Bounded: the liveness
/// guard turns a dead peer into PeerDeadError (running the local epoch
/// fence first) instead of spinning forever. `watch` is the specific rank
/// the wait depends on, -1 when any peer could unblock it.
template <typename Pred>
void spin_until(Engine& eng, resil::Site site, int watch, Pred&& ready) {
  if (ready()) return;
  eng.counters().coll_epoch_stalls++;
  if (trace::on()) eng.tracer().emit(trace::kEpochStall, trace::kInstant);
  resil::WaitGuard guard = eng.make_guard(site, watch);
  std::uint32_t spins = 0;
  try {
    while (!ready()) {
      if ((++spins & 0x3F) == 0) {
        eng.progress();
        guard.check();
        std::this_thread::yield();
      }
    }
  } catch (const resil::PeerDeadError& e) {
    eng.peer_death_fence(e);
    throw;
  }
}

/// spin_until without the stall telemetry — for waits that are not part of
/// an arena op's data path (count probes, hierarchical legs): their misses
/// must not feed the epoch-stall-per-op telemetry (coll_epoch_stalls over
/// coll_shm_ops).
template <typename Pred>
void spin_until_quiet(Engine& eng, resil::Site site, int watch,
                      Pred&& ready) {
  resil::WaitGuard guard = eng.make_guard(site, watch);
  std::uint32_t spins = 0;
  try {
    while (!ready()) {
      if ((++spins & 0x3F) == 0) {
        eng.progress();
        guard.check();
        std::this_thread::yield();
      }
    }
  } catch (const resil::PeerDeadError& e) {
    eng.peer_death_fence(e);
    throw;
  }
}

inline simd::Op to_simd(Comm::ReduceOp op) {
  switch (op) {
    case Comm::ReduceOp::kSum: return simd::Op::kSum;
    case Comm::ReduceOp::kProd: return simd::Op::kProd;
    case Comm::ReduceOp::kMin: return simd::Op::kMin;
    case Comm::ReduceOp::kMax: return simd::Op::kMax;
  }
  return simd::Op::kSum;
}

/// One per-chunk combine: dst[i] = op(dst[i], src[i]) through the engine's
/// resolved kernel. Element-wise vertical folds only, so every kernel is
/// bit-identical to the scalar oracle and the ascending-rank fold order
/// stays intact.
template <typename T>
void fold_chunk(Engine& eng, Comm::ReduceOp op, T* dst, const T* src,
                std::size_t n) {
  simd::Kernel k = eng.simd_kernel();
  simd::fold(k, to_simd(op), dst, src, n);
  auto ki = static_cast<std::size_t>(k);
  eng.counters().simd_fold_ops[ki]++;
  eng.counters().simd_fold_bytes[ki] += n * sizeof(T);
}

}  // namespace nemo::core::coll_detail
