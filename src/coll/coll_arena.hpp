// The per-world collective arena: one slot per rank plus a flat barrier,
// carved from the shm::Arena like the fastbox/ring regions and addressed by
// byte offset (threads and forked processes see the identical layout).
//
// Layout (all pieces cacheline-aligned, the whole region page-aligned so the
// World can mbind/interleave it — every rank reads every slot, so no single
// home node is right):
//
//   CollState                      geometry
//   BarrierCell[nranks]            per-rank arrival flags (padded)
//   AckCell[nranks]                per-rank consumption counters (padded)
//   ProbeCell[2 * nranks]          per-rank seq-tagged line cells: count
//                                  probes and small-reduce operands
//                                  (parity double-buffered, see below)
//   nranks x slot:
//     SlotHeader                   epoch / doorbell / direct-read offsets
//     table[2 * nranks] u64        per-dest (offset, len) for alltoallv;
//                                  per-owner lane/read counts for reduce;
//                                  the self entry holds the helped
//                                  bcast's claim cursor and landed count
//     payload[slot_bytes]          staged operand bytes
//
// Synchronisation protocol (the algorithms live in core/collectives.cpp):
//
//  - Epochs. Every collective instance owns a unique epoch value (the
//    per-Comm collective sequence number, shifted to leave room for phases).
//    A writer prepares its slot meta (doorbell reset, src_off, bytes) and
//    publishes with a RELEASE store of `epoch`; readers ACQUIRE-poll until
//    the slot's epoch matches the instance they are executing. Because all
//    ranks run collectives in the same order and each shm collective ends
//    with a completion handshake (flat barrier or ack wait), an epoch value
//    can never be observed stale — the previous instance fully drained.
//
//  - Doorbell. `chunks` counts payload chunks published within the epoch
//    (RELEASE-stored after the chunk bytes). Readers pipeline behind the
//    writer by acquiring `chunks >= k` instead of waiting for the whole
//    message — this is what lets a bcast larger than the slot stream
//    through it ring-style.
//
//  - Acks. Readers RELEASE-store epoch-tagged consumption counters
//    ((epoch << 24) | chunks_consumed) into their own padded AckCell; the
//    writer ACQUIRE-polls them before overwriting a sub-buffer and before
//    returning. The epoch tag makes stale counters from earlier collectives
//    compare strictly smaller, so cells never need resetting.
//
//  - Flat barrier. An all-poll barrier over a monotonic sequence: each
//    rank RELEASE-stores its arrival sequence into its padded flag, then
//    ACQUIRE-polls every other rank's flag until it reaches the same
//    sequence. One hop, no coordinator and no release word: O(n) lines
//    read per rank, each written once per barrier. A fast rank's next
//    arrival (seq + 1) still satisfies a straggler's `>= seq` wait, so the
//    flags never need resetting.
//
//  - Line cells. Two rank-consistent one-hop exchanges go through the
//    seq-tagged ProbeCells, each one cache line: a seq word plus a
//    kLinePayload (56 B) payload, written first and published by a RELEASE
//    store of the seq. Auto-mode alltoallv exchanges one u64 (its total row
//    bytes, a symmetric size proxy for asymmetric counts); allreduce/reduce
//    operands of at most kLinePayload bytes are published whole, and every
//    rank folds every survivor's cell itself. Both draw their sequence
//    numbers from one per-engine stream. Cells are double-buffered by
//    sequence parity: every rank reads every rank's cell each instance, so
//    a writer can run at most one instance ahead of the slowest reader,
//    and the parity buffer it then overwrites is one every reader has
//    already consumed (a reader publishes seq+1 only after it finished
//    reading seq). That is why neither exchange needs a completion
//    handshake. A single cell would race: a rank whose next exchange does
//    not wait on a straggler could overwrite its cell before that
//    straggler read it.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/common.hpp"
#include "shm/arena.hpp"

namespace nemo::coll {

/// One rank's slot header. The writer owns every field; readers only load.
struct SlotHeader {
  alignas(kCacheLine) std::uint64_t epoch;  ///< RELEASE-published last.
  std::uint64_t chunks;   ///< Doorbell: payload chunks published this epoch.
  std::uint64_t src_off;  ///< Direct-read arena offset; kNil = staged.
  std::uint64_t bytes;    ///< Op-specific meta (bytes, rounds, ...).
  std::uint64_t dst_off;  ///< Arena offset of a direct result (reduce)
                          ///< or destination (helped bcast).
};
static_assert(sizeof(SlotHeader) == kCacheLine);

/// Flat-barrier arrival flag, one line per rank so arrivals never bounce.
struct BarrierCell {
  alignas(kCacheLine) std::uint64_t seq;
};
static_assert(sizeof(BarrierCell) == kCacheLine);

/// Reader consumption counter, epoch-tagged: (epoch << 24) | consumed
/// (see ack_value() for the bit-budget rationale).
struct AckCell {
  alignas(kCacheLine) std::uint64_t tagged;
};
static_assert(sizeof(AckCell) == kCacheLine);

/// Payload bytes of one line cell (a cache line minus the seq word).
inline constexpr std::size_t kLinePayload = kCacheLine - sizeof(std::uint64_t);

/// One parity buffer of a rank's line cell: `payload` is written first,
/// then `seq` with RELEASE; readers ACQUIRE-poll seq for an exact match
/// (monotonic per parity, so the spin always terminates).
struct ProbeCell {
  alignas(kCacheLine) std::uint64_t seq;
  std::byte payload[kLinePayload];
};
static_assert(sizeof(ProbeCell) == kCacheLine);

/// Shared header of the whole region.
struct CollState {
  alignas(kCacheLine) std::uint32_t nranks;
  std::uint32_t slot_bytes;   ///< Payload capacity per rank.
  std::uint64_t slot_stride;  ///< Header + table + payload, line-rounded.
};

/// View over one world's collective arena (cheap to copy; the engine keeps
/// one). Default-constructed views are invalid placeholders.
class WorldColl {
 public:
  /// Number of 4-sub-buffer pipeline stages a staged bcast splits the slot
  /// into (writer may run this many chunks ahead of the slowest reader).
  static constexpr std::uint64_t kBcastSubBufs = 4;

  static std::uint64_t table_bytes(int nranks) {
    return round_up(2 * sizeof(std::uint64_t) *
                        static_cast<std::uint64_t>(nranks),
                    kCacheLine);
  }

  static std::uint64_t slot_stride(int nranks, std::uint32_t slot_bytes) {
    return sizeof(SlotHeader) + table_bytes(nranks) +
           round_up(slot_bytes, kCacheLine);
  }

  /// Exact page-rounded extent create() allocates (the span to mbind).
  static std::size_t region_bytes(int nranks, std::uint32_t slot_bytes) {
    std::uint64_t n = static_cast<std::uint64_t>(nranks);
    return round_up(sizeof(CollState) + n * sizeof(BarrierCell) +
                        n * sizeof(AckCell) + 2 * n * sizeof(ProbeCell) +
                        n * slot_stride(nranks, slot_bytes),
                    shm::Arena::kPageBytes);
  }

  /// Arena bytes to budget for create() (region + alignment slack).
  static std::size_t footprint(int nranks, std::uint32_t slot_bytes) {
    return region_bytes(nranks, slot_bytes) + shm::Arena::kPageBytes;
  }

  /// Carve and zero-init the region (page-aligned so the caller can bind or
  /// interleave exactly these pages).
  static std::uint64_t create(shm::Arena& arena, int nranks,
                              std::uint32_t slot_bytes) {
    NEMO_ASSERT(nranks >= 1);
    NEMO_ASSERT(slot_bytes >= kCacheLine && slot_bytes % kCacheLine == 0);
    std::uint64_t n = static_cast<std::uint64_t>(nranks);
    std::size_t total = sizeof(CollState) + n * sizeof(BarrierCell) +
                        n * sizeof(AckCell) + 2 * n * sizeof(ProbeCell) +
                        n * slot_stride(nranks, slot_bytes);
    std::uint64_t off = arena.alloc_pages(total);
    std::memset(arena.at(off), 0, total);
    auto* st = arena.at_as<CollState>(off);
    st->nranks = static_cast<std::uint32_t>(nranks);
    st->slot_bytes = slot_bytes;
    st->slot_stride = slot_stride(nranks, slot_bytes);
    return off;
  }

  WorldColl() = default;
  WorldColl(shm::Arena& arena, std::uint64_t off)
      : arena_(&arena), st_(arena.at_as<CollState>(off)) {
    std::byte* base = reinterpret_cast<std::byte*>(st_);
    barrier_ = reinterpret_cast<BarrierCell*>(base + sizeof(CollState));
    acks_ = reinterpret_cast<AckCell*>(barrier_ + st_->nranks);
    probes_ = reinterpret_cast<ProbeCell*>(acks_ + st_->nranks);
    slots_ = reinterpret_cast<std::byte*>(probes_ + 2 * st_->nranks);
  }

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] int nranks() const { return static_cast<int>(st_->nranks); }
  [[nodiscard]] std::size_t slot_bytes() const { return st_->slot_bytes; }
  [[nodiscard]] shm::Arena& arena() const { return *arena_; }

  [[nodiscard]] SlotHeader* header(int r) const {
    return reinterpret_cast<SlotHeader*>(slot_base(r));
  }
  [[nodiscard]] std::uint64_t* table(int r) const {
    return reinterpret_cast<std::uint64_t*>(slot_base(r) +
                                            sizeof(SlotHeader));
  }
  [[nodiscard]] std::byte* payload(int r) const {
    return slot_base(r) + sizeof(SlotHeader) + table_bytes(nranks());
  }

  // --- Epoch / doorbell (writer side: rank r's own slot only) --------------

  /// Open epoch `e` on rank r's slot: reset the doorbell, record meta, then
  /// RELEASE-publish the epoch. Safe because the previous collective's
  /// completion handshake ordered every old reader before this store.
  void begin_epoch(int r, std::uint64_t e, std::uint64_t src_off,
                   std::uint64_t bytes,
                   std::uint64_t dst_off = shm::kNil) const {
    SlotHeader* h = header(r);
    shm::aref(h->chunks).store(0, std::memory_order_relaxed);
    h->src_off = src_off;
    h->bytes = bytes;
    h->dst_off = dst_off;
    shm::aref(h->epoch).store(e, std::memory_order_release);
  }

  void publish_chunks(int r, std::uint64_t k) const {
    shm::aref(header(r)->chunks).store(k, std::memory_order_release);
  }

  /// Reader: is rank r's slot at epoch `e` with at least `k` chunks?
  [[nodiscard]] bool ready(int r, std::uint64_t e, std::uint64_t k) const {
    SlotHeader* h = header(r);
    if (shm::aref(h->epoch).load(std::memory_order_acquire) != e)
      return false;
    return k == 0 ||
           shm::aref(h->chunks).load(std::memory_order_acquire) >= k;
  }

  // --- Owner-computes reduce counters -------------------------------------
  // A reduce keeps two per-peer count rows in the slot's table words (idle
  // outside alltoallv), both written only by the slot's rank: lane[o] =
  // chunks of owner o's block staged into lane o of this slot, read[o] =
  // chunks of owner o's staged result this rank has consumed. open_reduce()
  // zeroes them before publishing the epoch, so a peer that acquired the
  // epoch only ever sees this instance's counts.

  void open_reduce(int r, std::uint64_t e, std::uint64_t src_off,
                   std::uint64_t dst_off) const {
    std::uint64_t* t = table(r);
    for (int i = 0; i < 2 * nranks(); ++i)
      shm::aref(t[i]).store(0, std::memory_order_relaxed);
    begin_epoch(r, e, src_off, 0, dst_off);
  }
  void publish_lane(int w, int o, std::uint64_t k) const {
    shm::aref(table(w)[o]).store(k, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t lane_chunks(int w, int o) const {
    return shm::aref(table(w)[o]).load(std::memory_order_acquire);
  }
  void ack_block(int r, int o, std::uint64_t k) const {
    shm::aref(table(r)[nranks() + o]).store(k, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t block_acked(int r, int o) const {
    return shm::aref(table(r)[nranks() + o]).load(std::memory_order_acquire);
  }

  // --- Helped direct bcast: claim cursor and landed count ------------------
  // A reader whose destination is arena-resident lets any rank copy parts of
  // its bcast. Two words of its own slot table hold the state: an
  // epoch-tagged claim cursor ack_value(e, next unclaimed chunk) and the
  // number of chunks that have landed in its destination. They sit at the
  // reader's self entry (2r, 2r + 1), which alltoallv never writes; a reduce
  // only stores chunk counts below 2^24 there, and no tagged cursor is that
  // small (e >= 8). So a claim is a CAS against the tagged value: a helper
  // holding a stale load from a finished epoch can never take a chunk of a
  // later one. A successful claim also pins the reader in epoch `e` until
  // the chunk lands, so the dst_off read after it is this epoch's.

  /// Open rank r's copy of bcast epoch `e` to helpers: destination first,
  /// landed reset, then the cursor RELEASE-stored last.
  void open_bcast(int r, std::uint64_t e, std::uint64_t dst_off) const {
    std::uint64_t* t = table(r) + 2 * r;
    header(r)->dst_off = dst_off;
    shm::aref(t[1]).store(0, std::memory_order_relaxed);
    shm::aref(t[0]).store(ack_value(e, 0), std::memory_order_release);
  }
  /// Is rank r's copy of epoch `e` open? (Its cursor carries e's tag.)
  [[nodiscard]] bool bcast_open(int r, std::uint64_t e) const {
    return shm::aref(table(r)[2 * r]).load(std::memory_order_acquire) >> 24 ==
           e;
  }
  /// Claim the next chunk of rank r's copy of epoch `e`: false when its
  /// cursor is in another epoch or past `nchunks`.
  bool claim_chunk(int r, std::uint64_t e, std::uint64_t nchunks,
                   std::uint64_t& idx) const {
    auto cur = shm::aref(table(r)[2 * r]);
    std::uint64_t v = cur.load(std::memory_order_acquire);
    for (;;) {
      idx = v & ((1ull << 24) - 1);
      if (v >> 24 != e || idx >= nchunks) return false;
      if (cur.compare_exchange_weak(v, v + 1, std::memory_order_acq_rel,
                                    std::memory_order_acquire))
        return true;
    }
  }
  /// A claimed chunk's bytes are in rank r's destination (RELEASE).
  void land_chunk(int r) const {
    shm::aref(table(r)[2 * r + 1]).fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t landed(int r) const {
    return shm::aref(table(r)[2 * r + 1]).load(std::memory_order_acquire);
  }

  // --- Epoch-tagged acks ---------------------------------------------------

  /// 24 bits of chunk count (a 16M-chunk message at the 64 B minimum chunk
  /// is 1 GiB; practical sub-chunks are KiB-sized) leave 40 bits of epoch.
  /// Epochs carry 3 phase bits (core/collectives.cpp), so the budget is
  /// ~2^37 collective instances — weeks of continuous back-to-back
  /// operations. Both budgets are asserted (always-on) so an overflow
  /// fails loudly instead of silently breaking the tag's monotonicity.
  static std::uint64_t ack_value(std::uint64_t e, std::uint64_t consumed) {
    NEMO_ASSERT(consumed < (1ull << 24) && e < (1ull << 40));
    return (e << 24) | consumed;
  }
  void set_ack(int r, std::uint64_t e, std::uint64_t consumed) const {
    shm::aref(acks_[r].tagged)
        .store(ack_value(e, consumed), std::memory_order_release);
  }
  [[nodiscard]] bool acked(int r, std::uint64_t e,
                           std::uint64_t consumed) const {
    return shm::aref(acks_[r].tagged).load(std::memory_order_acquire) >=
           ack_value(e, consumed);
  }

  // --- Line cells (count probes and small-reduce operands) ---------------

  /// Publish rank r's `len` bytes for instance `seq` (parity-selected
  /// buffer; payload first, seq RELEASE-last).
  void probe_publish(int r, std::uint64_t seq, const void* src,
                     std::size_t len) const {
    NEMO_ASSERT(len <= kLinePayload);
    ProbeCell& c = probe_cell(r, seq);
    std::memcpy(c.payload, src, len);
    shm::aref(c.seq).store(seq, std::memory_order_release);
  }
  void probe_publish(int r, std::uint64_t seq, std::uint64_t value) const {
    probe_publish(r, seq, &value, sizeof value);
  }
  /// Has rank r published instance `seq`? Exact match: the same-parity
  /// buffer only ever holds seq-2 (stale, keep spinning) or seq — a writer
  /// cannot reach seq+2 before every rank consumed seq (all-read-all).
  [[nodiscard]] bool probe_ready(int r, std::uint64_t seq) const {
    return shm::aref(probe_cell(r, seq).seq)
               .load(std::memory_order_acquire) == seq;
  }
  /// The payload behind a successful probe_ready (ordered by its acquire).
  [[nodiscard]] const std::byte* probe_payload(int r,
                                               std::uint64_t seq) const {
    return probe_cell(r, seq).payload;
  }
  [[nodiscard]] std::uint64_t probe_value(int r, std::uint64_t seq) const {
    std::uint64_t v;
    std::memcpy(&v, probe_payload(r, seq), sizeof v);
    return v;
  }

  // --- Barrier primitives (the spin loops live with the engine so they
  // can keep pt2pt progress flowing) ---------------------------------------

  void barrier_arrive(int r, std::uint64_t seq) const {
    shm::aref(barrier_[r].seq).store(seq, std::memory_order_release);
  }
  [[nodiscard]] bool barrier_arrived(int r, std::uint64_t seq) const {
    return shm::aref(barrier_[r].seq).load(std::memory_order_acquire) >= seq;
  }

  // --- Death-fence reclamation ---------------------------------------------

  /// Tombstone a dead rank's cells so no surviving wait can park on them:
  /// its barrier arrival and ack compare with >=, so pinning them to the
  /// maximum makes the dead rank permanently "arrived"/"acked"; its slot
  /// epoch is pinned to ~0, which no live epoch ever equals, so ready()
  /// reads of the dead slot stay false and survivors skip it instead of
  /// consuming stale bytes. Idempotent. Returns the cell count reclaimed.
  int reclaim_rank(int r) const {
    shm::aref(barrier_[r].seq).store(UINT64_MAX, std::memory_order_release);
    shm::aref(acks_[r].tagged).store(UINT64_MAX, std::memory_order_release);
    SlotHeader* h = header(r);
    shm::aref(h->chunks).store(0, std::memory_order_relaxed);
    shm::aref(h->epoch).store(UINT64_MAX, std::memory_order_release);
    return 3;
  }

 private:
  [[nodiscard]] std::byte* slot_base(int r) const {
    NEMO_ASSERT(r >= 0 && r < nranks());
    return slots_ + static_cast<std::uint64_t>(r) * st_->slot_stride;
  }
  [[nodiscard]] ProbeCell& probe_cell(int r, std::uint64_t seq) const {
    NEMO_ASSERT(r >= 0 && r < nranks());
    return probes_[2 * static_cast<std::uint64_t>(r) + (seq & 1)];
  }

  shm::Arena* arena_ = nullptr;
  CollState* st_ = nullptr;
  BarrierCell* barrier_ = nullptr;
  AckCell* acks_ = nullptr;
  ProbeCell* probes_ = nullptr;
  std::byte* slots_ = nullptr;
};

}  // namespace nemo::coll
