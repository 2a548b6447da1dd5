// Collective operations. Two implementation families per operation:
//
//  - The pt2pt algorithms (classical shared-memory-friendly ones:
//    dissemination barrier, binomial bcast, linear reduce, ring allgather,
//    pairwise alltoall(v)) — the fallback below the tuned crossover and the
//    correctness oracle the tests cross-check against.
//
//  - The shared-memory collective arena fast path (src/coll/): every
//    operand is written into (or published from) shared memory ONCE and
//    every reader pulls it directly, instead of re-copying payloads through
//    the per-pair copy rings at each tree hop. A 256 KiB bcast over 8 ranks
//    costs ~n slot copies instead of the binomial tree's 2·log n
//    full-payload ring copies; alltoall halves its copy volume whenever the
//    source matrix is arena-resident (readers pull straight from it).
//
// Selection mirrors lmt::Policy: NEMO_COLL=shm|p2p forces a family, auto
// compares the op's symmetric size measure against the tuned
// coll_activation crossover — except that reductions of at most one line
// cell's payload (56 B) take the arena's line cells under both shm and
// auto. Every rank computes the same decision from
// world-level state only, so the families can never mix within one
// operation.
//
// Deadlock note: every spin on an arena word keeps Engine::progress()
// running — a rank parked in a collective must still serve rendezvous
// traffic for peers that have not yet entered it.
//
// Internal pt2pt tags live in a reserved negative space, namespaced by a
// per-Comm collective sequence number so back-to-back collectives cannot
// cross-match. The same sequence number feeds the arena epoch tags.
#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core {

namespace {

constexpr int kCollTagBase = -(1 << 20);

/// Distinct tag for (collective instance, phase). Phases 0..15.
int coll_tag(std::uint64_t coll_seq, int phase) {
  return kCollTagBase - static_cast<int>((coll_seq % 4096) * 16) - phase;
}

/// Arena epoch for collective instance `cs` (3 phase bits appended; +1
/// keeps epoch 0 reserved for "slot never used").
std::uint64_t epoch_base(std::uint64_t cs) { return (cs + 1) << 3; }

/// The slow path of every arena wait: spin until `ready()` while keeping
/// pt2pt progress flowing. Bounded: the liveness guard turns a dead peer
/// into PeerDeadError (running the local epoch fence first) instead of
/// spinning forever. `watch` is the specific rank the wait depends on, -1
/// when any peer could unblock it. Kept out of line: inlined into the
/// line-cell reduce's per-rank wait loop, the guard and unwind code made
/// the 8 B allreduce ~15% slower.
template <typename Pred>
[[gnu::noinline]] void spin_wait(Engine& eng, resil::Site site, int watch,
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

/// Wait for a slot epoch or doorbell: a first probe that misses counts one
/// epoch stall (telemetry for "readers arrive before writers publish",
/// coll_epoch_stalls over coll_shm_ops).
template <typename Pred>
void spin_until(Engine& eng, resil::Site site, int watch, Pred&& ready) {
  if (ready()) return;
  eng.counters().coll_epoch_stalls++;
  if (trace::on()) eng.tracer().emit(trace::kEpochStall, trace::kInstant);
  spin_wait(eng, site, watch, ready);
}

/// Wait without the stall telemetry: barrier arrivals, line cells, count
/// probes and ack drains are not slot epochs.
template <typename Pred>
void spin_until_quiet(Engine& eng, resil::Site site, int watch,
                      Pred&& ready) {
  if (!ready()) spin_wait(eng, site, watch, ready);
}

simd::Op to_simd(Comm::ReduceOp op) {
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

std::uint64_t next_coll_seq(Engine& eng) { return eng.bump_coll_seq(); }

/// May this op use the arena at all? (Arenaless 1-rank worlds and
/// NEMO_COLL=p2p say no.) World-level state only, so every rank agrees.
bool arena_open(Engine& eng) {
  return eng.coll_view().valid() &&
         eng.world().coll_mode() != coll::Mode::kP2p;
}

/// Staged-bcast sub-buffer geometry: the slot splits into up to kBcastSubBufs
/// cacheline-multiple chunks so readers pipeline behind the writer.
struct SubGeom {
  std::size_t sub;     ///< Chunk bytes.
  std::uint64_t nsub;  ///< Pipeline depth (chunks resident at once).
};

SubGeom sub_geometry(std::size_t slot_bytes) {
  std::size_t sub = std::max<std::size_t>(
      slot_bytes / coll::WorldColl::kBcastSubBufs, kCacheLine);
  sub -= sub % kCacheLine;
  std::uint64_t nsub = std::max<std::uint64_t>(1, slot_bytes / sub);
  nsub = std::min<std::uint64_t>(nsub, coll::WorldColl::kBcastSubBufs);
  return {sub, nsub};
}

/// Owner-computes reduce geometry: each writer's slot holds one lane per
/// owner, kLaneBufs sub-buffers deep; a sub-buffer is also the fold's
/// sub-chunk. Zero when the slot cannot give every owner a two-line lane.
constexpr std::uint64_t kLaneBufs = 2;

std::size_t lane_sub(std::size_t slot_bytes, int p) {
  std::size_t sub =
      std::min(sub_geometry(slot_bytes).sub,
               slot_bytes / (kLaneBufs * static_cast<std::size_t>(p)));
  return sub - sub % kCacheLine;
}

/// Writer w's per-destination stride index for dest d (self excluded).
std::size_t dest_index(int w, int d) { return d < w ? d : d - 1; }

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Would a staged bcast of `bytes` through this slot stay within the
/// 24-bit epoch-tagged ack chunk budget? Only breachable by pathological
/// geometry (a >1 GiB message through a 64 B slot), but the answer must be
/// a p2p fallback, not the ack_value assert. World-symmetric (the direct
/// path needs no chunks, but directness is writer-local, so the
/// conservative staged bound decides for everyone).
bool ack_budget_ok(std::size_t slot_bytes, std::size_t bytes) {
  return div_ceil(bytes, sub_geometry(slot_bytes).sub) < (1ull << 24);
}

/// Scoped collective observation: one kCollOp span in the rank's ring plus
/// one sample in the op's latency histogram. Free when tracing is off.
class CollScope {
 public:
  CollScope(Engine& eng, trace::CollOp op, std::size_t bytes)
      : eng_(trace::on() ? &eng : nullptr), op_(op) {
    if (eng_ == nullptr) return;
    t0_ = trace::tsc_now();
    eng_->tracer().emit(trace::kCollOp, trace::kBegin, op, bytes);
  }
  ~CollScope() {
    if (eng_ == nullptr) return;
    eng_->tracer().emit(trace::kCollOp, trace::kEnd);
    std::uint64_t dt = trace::tsc_now() - t0_;
    trace::registry()
        .hist(std::string("coll.") + trace::coll_op_name(op_) + "_ns")
        .record(static_cast<std::uint64_t>(
            static_cast<double>(dt) * trace::calibration().ns_per_tick));
  }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;

 private:
  Engine* eng_;
  trace::CollOp op_;
  std::uint64_t t0_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Path selection
// ---------------------------------------------------------------------------

bool Comm::use_shm_coll(std::size_t op_bytes, std::size_t slot_need) {
  Engine& eng = engine_;
  World& w = eng.world();
  tune::Counters& c = eng.counters();
  if (!eng.coll_view().valid()) {
    c.coll_p2p_ops++;
    return false;
  }
  coll::Mode mode = w.coll_mode();
  std::size_t cap = slot_need <= eng.coll_view().slot_bytes() ? slot_need : 0;
  bool shm = coll::use_shm(mode, op_bytes, w.tuning().coll_activation, size(),
                           cap);
  if (shm) {
    c.coll_shm_ops++;
  } else {
    c.coll_p2p_ops++;
    if (mode == coll::Mode::kShm) c.coll_fallbacks++;
  }
  return shm;
}

// ---------------------------------------------------------------------------
// Arena barrier (shm)
// ---------------------------------------------------------------------------

void Comm::flat_barrier() {
  Engine& eng = engine_;
  trace::Span sp(eng.tracer(), trace::kCollBarrier, trace::Mode::kRings);
  eng.counters().coll_barrier_flat++;
  coll::WorldColl& cw = eng.coll_view();
  int n = size(), r = rank();
  std::uint64_t seq = eng.next_coll_barrier_seq();
  resil::fault_point(resil::Site::kBarrierArrive, r);
  cw.barrier_arrive(r, seq);
  // All-poll: every rank waits for every survivor's arrival itself, so the
  // barrier is one hop with no coordinator. Fenced ranks' cells are
  // tombstoned to always-arrived; skipping them also avoids touching
  // reclaimed lines.
  for (int i = 0; i < n; ++i) {
    if (i == r || eng.rank_fenced(i)) continue;
    spin_until_quiet(eng, resil::Site::kBarrierRelease, i,
                     [&] { return cw.barrier_arrived(i, seq); });
  }
}

void Comm::barrier_p2p() {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  char token = 1;
  for (int k = 1, phase = 0; k < n; k <<= 1, ++phase) {
    int to = (r + k) % n;
    int from = (r - k + n) % n;
    Request s = isend(&token, 1, to, coll_tag(cs, phase), 1);
    char in = 0;
    Request rr = irecv(&in, 1, from, coll_tag(cs, phase), 1);
    wait(s);
    wait(rr);
  }
}

void Comm::barrier() {
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpBarrier, 0);
  if (size() > 1 && arena_open(eng)) {
    eng.counters().coll_shm_ops++;
    flat_barrier();
    return;
  }
  eng.counters().coll_p2p_ops++;
  barrier_p2p();
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void Comm::bcast_p2p(void* buf, std::size_t bytes, int root) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  // Binomial tree rooted at `root`; relative ranks make the tree uniform.
  int vr = (r - root + n) % n;
  int tag = coll_tag(cs, 0);
  // Receive from parent.
  if (vr != 0) {
    int mask = 1;
    while ((vr & mask) == 0) mask <<= 1;
    int parent = ((vr & ~mask) + root) % n;
    recv(buf, bytes, parent, tag, nullptr, 1);
  }
  // Forward to children.
  int mask = 1;
  while (mask < n && (vr & (mask - 1)) == 0) {
    if ((vr & mask) == 0) {
      int child_vr = vr | mask;
      if (child_vr < n) send(buf, bytes, (child_vr + root) % n, tag, 1);
    }
    mask <<= 1;
  }
}

void Comm::bcast_shm(void* buf, std::size_t bytes, int root,
                     std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  shm::Arena& arena = cw.arena();
  int n = size(), r = rank();
  eng.counters().coll_shm_bytes += bytes;
  std::size_t nt_min =
      eng.world().tuning()
          .for_placement(PairPlacement::kDifferentSockets)
          .nt_min;
  SubGeom g = sub_geometry(cw.slot_bytes());
  // Helped direct path (root buffer arena-resident, at least kCoopMin):
  // any rank may claim kCoopChunk ranges of a reader's copy (coll_arena.hpp)
  // and land them from the root's buffer `src` (a reader repoints it once
  // it has read the root's header) straight into that reader's arena
  // destination. help(j) drains j's cursor; true when it landed a chunk.
  // Out of line: a call copies up to a whole message, and inlined into
  // both waits' first probe and spin loop it doubled bcast_shm's code.
  const bool helped = bytes >= knem::kCoopMin;
  const std::uint64_t ncoop = div_ceil(bytes, knem::kCoopChunk);
  const std::byte* src = static_cast<const std::byte*>(buf);
  auto help = [&](int j) __attribute__((noinline)) {
    bool any = false;
    std::uint64_t idx;
    while (cw.claim_chunk(j, epoch, ncoop, idx)) {
      const std::size_t off = static_cast<std::size_t>(idx) * knem::kCoopChunk;
      const std::size_t len =
          std::min<std::size_t>(knem::kCoopChunk, bytes - off);
      if (j != r) {
        resil::fault_point(resil::Site::kCollBcastHelp, r);
        eng.counters().coll_bcast_help_bytes += len;
      }
      // The claim pins j in this epoch, so dst_off is this epoch's.
      shm::copy_for(bytes >= nt_min, arena.at(cw.header(j)->dst_off) + off,
                    src + off, len);
      cw.land_chunk(j);
      any = true;
    }
    return any;
  };

  if (r == root) {
    if (bytes > 0 && arena.contains(buf, bytes)) {
      // Direct: publish the source offset, every reader pulls straight from
      // the user buffer — zero staging copies. From kCoopMin the root, idle
      // until the acks, lands chunks of every open reader's copy and waits
      // for late readers to open (or to ack: a private destination never
      // opens).
      cw.begin_epoch(r, epoch, arena.offset_of(buf), bytes);
      if (helped) {
        eng.counters().coll_bcast_helped_ops++;
        spin_until_quiet(eng, resil::Site::kCollAck, -1, [&] {
          bool done = true;
          for (int i = 0; i < n; ++i) {
            if (i == r || eng.rank_fenced(i)) continue;
            if (cw.bcast_open(i, epoch))
              help(i);  // Drains i's cursor: nothing left to claim there.
            else
              done = done && cw.acked(i, epoch, 1);
          }
          return done;
        });
      }
      for (int i = 0; i < n; ++i)
        if (i != r && !eng.rank_fenced(i))
          spin_until(eng, resil::Site::kCollAck, i,
                     [&] { return cw.acked(i, epoch, 1); });
      return;
    }
    // Staged: NT-stream once into the slot, chunked over the sub-buffers
    // with a doorbell so readers pipeline behind the writer; reader acks
    // gate sub-buffer reuse for messages larger than the slot.
    std::uint64_t nchunks = div_ceil(bytes, g.sub);
    cw.begin_epoch(r, epoch, shm::kNil, bytes);
    bool nt = bytes >= nt_min;
    for (std::uint64_t i = 0; i < nchunks; ++i) {
      if (i >= g.nsub) {
        std::uint64_t need = i - g.nsub + 1;
        for (int k = 0; k < n; ++k)
          if (k != r && !eng.rank_fenced(k))
            spin_until(eng, resil::Site::kCollAck, k,
                       [&] { return cw.acked(k, epoch, need); });
      }
      std::size_t off = static_cast<std::size_t>(i) * g.sub;
      std::size_t len = std::min(g.sub, bytes - off);
      shm::copy_for(nt, cw.payload(r) + (i % g.nsub) * g.sub, src + off, len);
      cw.publish_chunks(r, i + 1);
    }
    std::uint64_t fin = std::max<std::uint64_t>(nchunks, 1);
    for (int k = 0; k < n; ++k)
      if (k != r && !eng.rank_fenced(k))
        spin_until(eng, resil::Site::kCollAck, k,
                   [&] { return cw.acked(k, epoch, fin); });
    return;
  }

  // Reader.
  std::byte* dst = static_cast<std::byte*>(buf);
  spin_until(eng, resil::Site::kCollDoorbell, root,
             [&] { return cw.ready(root, epoch, 0); });
  coll::SlotHeader* h = cw.header(root);
  std::uint64_t src_off = h->src_off;
  std::size_t total = h->bytes;
  if (src_off != shm::kNil) {
    // Helped, an arena destination opens to every rank and takes its own
    // chunks first; a private one is copied alone, as without help. Then
    // help the peers already open (the claim itself checks their epoch;
    // never wait for a later one) until nothing is left to claim, and ack
    // once every chunk of ours has landed.
    src = arena.at(src_off);
    const bool open = helped && arena.contains(dst, total);
    if (open) {
      cw.open_bcast(r, epoch, arena.offset_of(dst));
    } else {
      shm::copy_for(total >= nt_min, dst, src, total);
    }
    if (helped) {
      eng.counters().coll_bcast_helped_ops++;
      spin_until_quiet(eng, resil::Site::kCollDoorbell, -1, [&] {
        // k = 0 is our own cursor; unopened, it never carries this epoch.
        bool claimed = false;
        for (int k = 0; k < n; ++k) {
          const int j = (r + k) % n;
          if (j != root && !eng.rank_fenced(j))
            claimed = help(j) || claimed;
        }
        return !claimed && (!open || cw.landed(r) == ncoop);
      });
    }
    cw.set_ack(r, epoch, 1);
    return;
  }
  std::uint64_t nchunks = div_ceil(total, g.sub);
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    spin_until(eng, resil::Site::kCollDoorbell, root,
               [&] { return cw.ready(root, epoch, i + 1); });
    std::size_t off = static_cast<std::size_t>(i) * g.sub;
    std::size_t len = std::min(g.sub, total - off);
    shm::copy_for(total >= nt_min, dst + off,
                  cw.payload(root) + (i % g.nsub) * g.sub, len);
    cw.set_ack(r, epoch, i + 1);
  }
  if (nchunks == 0) cw.set_ack(r, epoch, 1);
}

void Comm::bcast(void* buf, std::size_t bytes, int root) {
  if (size() == 1) return;
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpBcast, bytes);
  std::size_t need =
      eng.coll_view().valid() &&
              ack_budget_ok(eng.coll_view().slot_bytes(), bytes)
          ? kCacheLine
          : SIZE_MAX;  // Over budget: fail the slot check -> p2p.
  if (use_shm_coll(bytes, need)) {
    std::uint64_t cs = next_coll_seq(eng);
    bcast_shm(buf, bytes, root, epoch_base(cs));
    return;
  }
  bcast_p2p(buf, bytes, root);
}

// ---------------------------------------------------------------------------
// Gather / scatter (pt2pt only; roots already touch every block once)
// ---------------------------------------------------------------------------

void Comm::gather(const void* sendbuf, std::size_t per_rank, void* recvbuf,
                  int root) {
  std::uint64_t cs = next_coll_seq(engine_);
  int n = size(), r = rank();
  int tag = coll_tag(cs, 0);
  if (r == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(r) * per_rank, sendbuf,
                per_rank);
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(n - 1));
    for (int src = 0; src < n; ++src) {
      if (src == r) continue;
      reqs.push_back(irecv(out + static_cast<std::size_t>(src) * per_rank,
                           per_rank, src, tag, 1));
    }
    waitall(reqs);
  } else {
    send(sendbuf, per_rank, root, tag, 1);
  }
}

void Comm::scatter(const void* sendbuf, std::size_t per_rank, void* recvbuf,
                   int root) {
  std::uint64_t cs = next_coll_seq(engine_);
  int n = size(), r = rank();
  int tag = coll_tag(cs, 0);
  if (r == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<Request> reqs;
    for (int dst = 0; dst < n; ++dst) {
      if (dst == r) continue;
      reqs.push_back(isend(in + static_cast<std::size_t>(dst) * per_rank,
                           per_rank, dst, tag, 1));
    }
    std::memcpy(recvbuf, in + static_cast<std::size_t>(r) * per_rank,
                per_rank);
    waitall(reqs);
  } else {
    recv(recvbuf, per_rank, root, tag, nullptr, 1);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void Comm::allgather_p2p(const void* sendbuf, std::size_t per_rank,
                         void* recvbuf) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(r) * per_rank, sendbuf,
              per_rank);
  if (n == 1) return;
  int right = (r + 1) % n, left = (r - 1 + n) % n;
  int tag = coll_tag(cs, 0);
  // Ring: at step s, pass along the block that originated at (r - s).
  for (int s = 0; s < n - 1; ++s) {
    int send_block = (r - s + n) % n;
    int recv_block = (r - s - 1 + n) % n;
    Request sq =
        isend(out + static_cast<std::size_t>(send_block) * per_rank,
              per_rank, right, tag, 1);
    Request rq =
        irecv(out + static_cast<std::size_t>(recv_block) * per_rank,
              per_rank, left, tag, 1);
    wait(sq);
    wait(rq);
  }
}

void Comm::allgather_shm(const void* sendbuf, std::size_t per_rank,
                         void* recvbuf, std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  shm::Arena& arena = cw.arena();
  int n = size(), r = rank();
  std::size_t nt_min = eng.world()
                           .tuning()
                           .for_placement(PairPlacement::kDifferentSockets)
                           .nt_min;
  eng.counters().coll_shm_bytes += per_rank * static_cast<std::size_t>(n - 1);
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t slot = cw.slot_bytes();

  // Publish: direct offset when the block is arena-resident (readers pull
  // straight from the user buffer), else the number of staged rounds.
  bool direct = per_rank > 0 && arena.contains(in, per_rank);
  std::uint64_t my_rounds = direct ? 0 : div_ceil(per_rank, slot);
  cw.begin_epoch(r, epoch,
                 direct ? arena.offset_of(in) : shm::kNil, my_rounds);
  std::memcpy(out + static_cast<std::size_t>(r) * per_rank, in, per_rank);

  // Everyone reads every header before round 0 so all ranks agree on the
  // global round count (staged and direct writers may coexist).
  // Fenced writers never publish (their headers are tombstoned); survivors
  // skip them and leave the dead rank's recvbuf block untouched.
  std::uint64_t rounds = std::max<std::uint64_t>(my_rounds, 1);
  for (int w = 0; w < n; ++w) {
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until(eng, resil::Site::kCollDoorbell, w,
               [&] { return cw.ready(w, epoch, 0); });
    rounds = std::max(rounds, cw.header(w)->bytes);
  }

  for (std::uint64_t t = 0; t < rounds; ++t) {
    if (t < my_rounds) {
      std::size_t off = static_cast<std::size_t>(t) * slot;
      std::size_t len = std::min(slot, per_rank - off);
      std::memcpy(cw.payload(r), in + off, len);
      cw.publish_chunks(r, t + 1);
    }
    for (int w = 0; w < n; ++w) {
      if (w == r || eng.rank_fenced(w)) continue;
      coll::SlotHeader* h = cw.header(w);
      std::byte* dst = out + static_cast<std::size_t>(w) * per_rank;
      if (h->src_off != shm::kNil) {
        // Whole direct-read blocks can dwarf the LLC; stream past it like
        // bcast does (staged chunks below stay cached — they are bounded
        // by the slot and consumed immediately).
        if (t == 0)
          shm::copy_for(per_rank >= nt_min, dst, arena.at(h->src_off),
                        per_rank);
        continue;
      }
      if (t >= h->bytes) continue;  // This writer already finished.
      spin_until(eng, resil::Site::kCollDoorbell, w,
                 [&] { return cw.ready(w, epoch, t + 1); });
      std::size_t off = static_cast<std::size_t>(t) * slot;
      std::size_t len = std::min(slot, per_rank - off);
      std::memcpy(dst + off, cw.payload(w), len);
    }
    // Reuse gate: no writer may overwrite its slot (or return, freeing its
    // direct-read buffer) before every reader finished the round.
    flat_barrier();
  }
}

void Comm::allgather(const void* sendbuf, std::size_t per_rank,
                     void* recvbuf) {
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, per_rank);
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpAllgather, per_rank);
  if (use_shm_coll(per_rank, kCacheLine)) {
    std::uint64_t cs = next_coll_seq(eng);
    allgather_shm(sendbuf, per_rank, recvbuf, epoch_base(cs));
    return;
  }
  allgather_p2p(sendbuf, per_rank, recvbuf);
}

// ---------------------------------------------------------------------------
// Alltoall(v)
// ---------------------------------------------------------------------------

void Comm::alltoall_p2p(const void* sendbuf, std::size_t per_rank,
                        void* recvbuf) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(r) * per_rank,
              in + static_cast<std::size_t>(r) * per_rank, per_rank);
  int tag = coll_tag(cs, 0);
  // Pairwise exchange: at step s talk to (r^s) when n is a power of two,
  // else to (r+s, r-s). Marked collective so the policy can use its lower
  // activation threshold (§4.4).
  bool pow2 = (n & (n - 1)) == 0;
  for (int s = 1; s < n; ++s) {
    int to = pow2 ? (r ^ s) : (r + s) % n;
    int from = pow2 ? (r ^ s) : (r - s + n) % n;
    ConstSegmentList ssegs{
        {in + static_cast<std::size_t>(to) * per_rank, per_rank}};
    SegmentList rsegs{
        {out + static_cast<std::size_t>(from) * per_rank, per_rank}};
    Request sq = engine_.start_send(std::move(ssegs), to, tag,
                                    /*collective=*/true, /*context=*/1);
    Request rq = engine_.start_recv(std::move(rsegs), from, tag, 1);
    wait(sq);
    wait(rq);
  }
}

void Comm::alltoall_shm(const void* sendbuf, std::size_t per_rank,
                        void* recvbuf, std::uint64_t epoch) {
  // The uniform exchange is exactly alltoallv with constant counts and
  // dense displacements; one shared implementation keeps the concurrent
  // round schedule in a single place. Scratch is thread-local (one vector
  // per rank thread, reused across calls) so the fast path stays free of
  // steady-state heap traffic.
  auto nsz = static_cast<std::size_t>(size());
  static thread_local std::vector<std::size_t> meta;
  meta.resize(2 * nsz);
  std::size_t* counts = meta.data();
  std::size_t* displs = meta.data() + nsz;
  for (std::size_t d = 0; d < nsz; ++d) {
    counts[d] = per_rank;
    displs[d] = d * per_rank;
  }
  alltoallv_shm(sendbuf, counts, displs, recvbuf, counts, displs, epoch);
}

void Comm::alltoall(const void* sendbuf, std::size_t per_rank,
                    void* recvbuf) {
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, per_rank);
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpAlltoall, per_rank);
  if (use_shm_coll(per_rank,
                   coll::alltoall_chunk_capacity(
                       eng.coll_view().valid() ? eng.coll_view().slot_bytes()
                                               : 0,
                       size()))) {
    std::uint64_t cs = next_coll_seq(eng);
    alltoall_shm(sendbuf, per_rank, recvbuf, epoch_base(cs));
    return;
  }
  alltoall_p2p(sendbuf, per_rank, recvbuf);
}

void Comm::alltoallv_p2p(const void* sendbuf, const std::size_t* scounts,
                         const std::size_t* sdispls, void* recvbuf,
                         const std::size_t* rcounts,
                         const std::size_t* rdispls) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + rdispls[r], in + sdispls[r], scounts[r]);
  int tag = coll_tag(cs, 0);
  bool pow2 = (n & (n - 1)) == 0;
  for (int s = 1; s < n; ++s) {
    int to = pow2 ? (r ^ s) : (r + s) % n;
    int from = pow2 ? (r ^ s) : (r - s + n) % n;
    Request sq, rq;
    if (scounts[to] > 0) {
      ConstSegmentList ssegs{{in + sdispls[to], scounts[to]}};
      sq = engine_.start_send(std::move(ssegs), to, tag, /*collective=*/true,
                              /*context=*/1);
    }
    if (rcounts[from] > 0) {
      SegmentList rsegs{{out + rdispls[from], rcounts[from]}};
      rq = engine_.start_recv(std::move(rsegs), from, tag, 1);
    }
    if (sq) wait(sq);
    if (rq) wait(rq);
  }
}

void Comm::alltoallv_shm(const void* sendbuf, const std::size_t* scounts,
                         const std::size_t* sdispls, void* recvbuf,
                         const std::size_t* rcounts,
                         const std::size_t* rdispls, std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  shm::Arena& arena = cw.arena();
  int n = size(), r = rank();
  std::size_t nt_min = eng.world()
                           .tuning()
                           .for_placement(PairPlacement::kDifferentSockets)
                           .nt_min;
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t cap = coll::alltoall_chunk_capacity(cw.slot_bytes(), n);

  // Direct when the whole send span is arena-resident; the per-dest table
  // then carries absolute (offset, len) entries. Staged writers chunk each
  // destination block through their per-dest stride; header.bytes carries
  // the writer's round count so mixed modes agree on the schedule.
  std::size_t span = 0, send_max = 0, my_bytes = 0;
  for (int d = 0; d < n; ++d) {
    span = std::max(span, sdispls[d] + scounts[d]);
    if (d != r) {
      send_max = std::max(send_max, scounts[d]);
      my_bytes += scounts[d];
    }
  }
  eng.counters().coll_shm_bytes += my_bytes;
  bool direct = span > 0 && arena.contains(in, span);
  std::uint64_t my_rounds = direct ? 0 : div_ceil(send_max, cap);
  std::uint64_t* tab = cw.table(r);
  if (direct) {
    std::uint64_t base = arena.offset_of(in);
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;  // Self entry: the helped bcast's cursor.
      tab[2 * d] = base + sdispls[d];
      tab[2 * d + 1] = scounts[d];
    }
  }
  cw.begin_epoch(r, epoch, direct ? arena.offset_of(in) : shm::kNil,
                 my_rounds);
  std::memcpy(out + rdispls[r], in + sdispls[r], scounts[r]);

  std::uint64_t rounds = std::max<std::uint64_t>(my_rounds, 1);
  for (int w = 0; w < n; ++w) {
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until(eng, resil::Site::kCollDoorbell, w,
               [&] { return cw.ready(w, epoch, 0); });
    rounds = std::max(rounds, cw.header(w)->bytes);
  }

  for (std::uint64_t t = 0; t < rounds; ++t) {
    if (t < my_rounds) {
      std::size_t off = static_cast<std::size_t>(t) * cap;
      for (int d = 0; d < n; ++d) {
        if (d == r || off >= scounts[d]) continue;
        std::size_t len = std::min(cap, scounts[d] - off);
        std::memcpy(cw.payload(r) + dest_index(r, d) * cap,
                    in + sdispls[d] + off, len);
      }
      cw.publish_chunks(r, t + 1);
    }
    for (int w = 0; w < n; ++w) {
      if (w == r || eng.rank_fenced(w)) continue;
      coll::SlotHeader* h = cw.header(w);
      std::byte* dst = out + rdispls[w];
      if (h->src_off != shm::kNil) {
        if (t == 0) {
          const std::uint64_t* wt = cw.table(w);
          std::uint64_t len = wt[2 * r + 1];
          NEMO_ASSERT(len == rcounts[w]);
          // Whole direct-read blocks stream past the cache above nt_min,
          // like bcast; staged chunks stay cached (slot-bounded).
          if (len > 0)
            shm::copy_for(len >= nt_min, dst, arena.at(wt[2 * r]), len);
        }
        continue;
      }
      if (t >= h->bytes) continue;
      spin_until(eng, resil::Site::kCollDoorbell, w,
                 [&] { return cw.ready(w, epoch, t + 1); });
      std::size_t off = static_cast<std::size_t>(t) * cap;
      if (off >= rcounts[w]) continue;
      std::size_t len = std::min(cap, rcounts[w] - off);
      std::memcpy(dst + off, cw.payload(w) + dest_index(w, r) * cap, len);
    }
    flat_barrier();
  }
}

std::size_t Comm::alltoallv_min_row_bytes(const std::size_t* scounts) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  int n = size(), r = rank();
  std::uint64_t my = 0;
  for (int d = 0; d < n; ++d)
    if (d != r) my += scounts[d];
  // One u64 per rank through the parity-double-buffered probe cells (see
  // coll_arena.hpp for why the exchange needs no completion handshake).
  std::uint64_t seq = eng.next_coll_probe_seq();
  cw.probe_publish(r, seq, my);
  std::uint64_t mn = my;
  for (int w = 0; w < n; ++w) {
    // Probe cells are exact-match parity buffers, so a dead rank's cell can
    // never be tombstoned to "always ready" — survivors must skip it.
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until_quiet(eng, resil::Site::kCollProbe, w,
                     [&] { return cw.probe_ready(w, seq); });
    mn = std::min(mn, cw.probe_value(w, seq));
  }
  return mn;
}

void Comm::alltoallv(const void* sendbuf, const std::size_t* scounts,
                     const std::size_t* sdispls, void* recvbuf,
                     const std::size_t* rcounts, const std::size_t* rdispls) {
  if (size() == 1) {
    std::memcpy(static_cast<std::byte*>(recvbuf) + rdispls[0],
                static_cast<const std::byte*>(sendbuf) + sdispls[0],
                scounts[0]);
    return;
  }
  Engine& eng = engine_;
  std::size_t my_row = 0;
  for (int d = 0; d < size(); ++d)
    if (d != rank()) my_row += scounts[d];
  CollScope obs(eng, trace::kOpAlltoallv, my_row);
  // Per-rank counts are asymmetric, so no local size test is
  // rank-consistent. Auto mode exchanges each rank's total row bytes
  // through the arena's line cells and gates on the MINIMUM across
  // ranks: a tiny-row participant pays the arena's full per-op
  // synchronisation for almost no payload, so it anchors the crossover
  // (worth ~0.6 us/op at 2 ranks, the gating PR 4 gave up). Forced modes
  // and arenaless worlds skip the probe — the conditions below are all
  // world-symmetric, so every rank agrees on whether it runs.
  std::size_t cap = coll::alltoall_chunk_capacity(
      eng.coll_view().valid() ? eng.coll_view().slot_bytes() : 0, size());
  std::size_t proxy = SIZE_MAX;
  if (eng.coll_view().valid() && cap > 0 &&
      eng.world().coll_mode() == coll::Mode::kAuto)
    proxy = alltoallv_min_row_bytes(scounts);
  if (use_shm_coll(proxy, cap)) {
    std::uint64_t cs = next_coll_seq(eng);
    alltoallv_shm(sendbuf, scounts, sdispls, recvbuf, rcounts, rdispls,
                  epoch_base(cs));
    return;
  }
  alltoallv_p2p(sendbuf, scounts, sdispls, recvbuf, rcounts, rdispls);
}

// ---------------------------------------------------------------------------
// Strided collectives: each rank contributes `count` elements of a derived
// datatype. The shm family packs blocks straight into arena slots (NT
// streaming stores above the tuned pack threshold) and unpacks readers-side
// straight into the strided receive buffer; the p2p family hands the merged
// segment lists to the engine, which gathers into cells / transfers them via
// the segment-capable LMT backends. Neither family materialises an
// intermediate contiguous staging buffer — the pack-path telemetry records
// every op as `direct`, and a test asserts `staged` stays zero.
// ---------------------------------------------------------------------------

void Comm::pack_into(const void* base, const Datatype& dt, std::size_t count,
                     std::byte* dst, bool direct) {
  std::size_t bytes = dt.size() * count;
  bool nt = bytes >= engine_.pack_nt_min();
  dt.pack(static_cast<const std::byte*>(base), count, dst, nt);
  tune::Counters& c = engine_.counters();
  if (direct) {
    c.pack_direct_ops++;
    c.pack_direct_bytes += bytes;
  } else {
    c.pack_staged_ops++;
    c.pack_staged_bytes += bytes;
  }
  if (nt) c.pack_nt_ops++;
}

void Comm::unpack_from(const std::byte* src, const Datatype& dt,
                       std::size_t count, void* base) {
  // Cached stores: the unpacked blocks land in the user's receive buffer,
  // which the caller is about to touch.
  dt.unpack(src, count, static_cast<std::byte*>(base));
  engine_.counters().unpack_ops++;
}

namespace {

/// Self-exchange: re-layout `count` elements from sdt at `in` to rdt at
/// `out` through the two segment maps (no staging buffer).
void strided_self_copy(const std::byte* in, const Datatype& sdt,
                       std::byte* out, const Datatype& rdt,
                       std::size_t count) {
  SegmentList dst = rdt.map(out, count);
  ConstSegmentList src = sdt.map(in, count);
  gather_scatter_copy(dst, src);
}

}  // namespace

void Comm::alltoall_strided(const void* sendbuf, const Datatype& sdt,
                            std::size_t count, void* recvbuf,
                            const Datatype& rdt) {
  NEMO_ASSERT(sdt.size() == rdt.size());
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  if (size() == 1) {
    strided_self_copy(in, sdt, out, rdt, count);
    return;
  }
  Engine& eng = engine_;
  std::size_t packed = sdt.size() * count;
  std::size_t cap = coll::alltoall_chunk_capacity(
      eng.coll_view().valid() ? eng.coll_view().slot_bytes() : 0, size());
  // Single deposit round: the packed per-destination block must fit one
  // per-dest chunk, else the need is unmeetable and use_shm_coll records
  // the p2p fallback. World-symmetric (dt/count are the same everywhere).
  std::size_t need = packed > 0 && packed <= cap ? cap : SIZE_MAX;
  if (use_shm_coll(packed, need)) {
    std::uint64_t cs = next_coll_seq(eng);
    alltoall_strided_shm(in, sdt, count, out, rdt, epoch_base(cs));
    return;
  }
  alltoall_strided_p2p(in, sdt, count, out, rdt);
}

void Comm::alltoall_strided_shm(const void* sendbuf, const Datatype& sdt,
                                std::size_t count, void* recvbuf,
                                const Datatype& rdt, std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t cap = coll::alltoall_chunk_capacity(cw.slot_bytes(), n);
  std::size_t packed = sdt.size() * count;
  std::size_t sext = count * sdt.extent(), rext = count * rdt.extent();
  NEMO_ASSERT(packed <= cap);
  eng.counters().coll_shm_bytes +=
      packed * static_cast<std::size_t>(n - 1);

  // The per-dest slot chunk IS the pack buffer: each destination's strided
  // block streams from the user buffer straight into shared memory, so the
  // packed form exists exactly once.
  cw.begin_epoch(r, epoch, shm::kNil, 1);
  for (int d = 0; d < n; ++d) {
    if (d == r) continue;
    pack_into(in + static_cast<std::size_t>(d) * sext, sdt, count,
              cw.payload(r) + dest_index(r, d) * cap, /*direct=*/true);
  }
  cw.publish_chunks(r, 1);
  strided_self_copy(in + static_cast<std::size_t>(r) * sext, sdt,
                    out + static_cast<std::size_t>(r) * rext, rdt, count);

  for (int w = 0; w < n; ++w) {
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until(eng, resil::Site::kCollDoorbell, w,
               [&] { return cw.ready(w, epoch, 1); });
    unpack_from(cw.payload(w) + dest_index(w, r) * cap, rdt, count,
                out + static_cast<std::size_t>(w) * rext);
  }
  // Reuse gate: no writer may overwrite its slot before every reader
  // unpacked this round.
  flat_barrier();
}

void Comm::alltoall_strided_p2p(const void* sendbuf, const Datatype& sdt,
                                std::size_t count, void* recvbuf,
                                const Datatype& rdt) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t sext = count * sdt.extent(), rext = count * rdt.extent();
  std::size_t packed = sdt.size() * count;
  strided_self_copy(in + static_cast<std::size_t>(r) * sext, sdt,
                    out + static_cast<std::size_t>(r) * rext, rdt, count);
  int tag = coll_tag(cs, 0);
  bool pow2 = (n & (n - 1)) == 0;
  for (int s = 1; s < n; ++s) {
    int to = pow2 ? (r ^ s) : (r + s) % n;
    int from = pow2 ? (r ^ s) : (r - s + n) % n;
    // The merged segment lists go straight to the engine — cell gather on
    // the eager path, vectorial transfer on the segment-capable backends.
    ConstSegmentList ssegs =
        sdt.map(in + static_cast<std::size_t>(to) * sext, count);
    SegmentList rsegs =
        rdt.map(out + static_cast<std::size_t>(from) * rext, count);
    Request sq = engine_.start_send(std::move(ssegs), to, tag,
                                    /*collective=*/true, /*context=*/1);
    Request rq = engine_.start_recv(std::move(rsegs), from, tag, 1);
    tune::Counters& c = eng.counters();
    c.pack_direct_ops++;
    c.pack_direct_bytes += packed;
    c.unpack_ops++;
    wait(sq);
    wait(rq);
  }
}

void Comm::allgather_strided(const void* sendbuf, const Datatype& sdt,
                             std::size_t count, void* recvbuf,
                             const Datatype& rdt) {
  NEMO_ASSERT(sdt.size() == rdt.size());
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  if (size() == 1) {
    strided_self_copy(in, sdt, out, rdt, count);
    return;
  }
  Engine& eng = engine_;
  std::size_t packed = sdt.size() * count;
  std::size_t slot =
      eng.coll_view().valid() ? eng.coll_view().slot_bytes() : 0;
  // Single deposit round: the whole packed contribution must fit one slot.
  std::size_t need = packed > 0 && packed <= slot ? kCacheLine : SIZE_MAX;
  if (use_shm_coll(packed, need)) {
    std::uint64_t cs = next_coll_seq(eng);
    allgather_strided_shm(in, sdt, count, out, rdt, epoch_base(cs));
    return;
  }
  allgather_strided_p2p(in, sdt, count, out, rdt);
}

void Comm::allgather_strided_shm(const void* sendbuf, const Datatype& sdt,
                                 std::size_t count, void* recvbuf,
                                 const Datatype& rdt, std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t packed = sdt.size() * count;
  std::size_t rext = count * rdt.extent();
  NEMO_ASSERT(packed <= cw.slot_bytes());
  eng.counters().coll_shm_bytes +=
      packed * static_cast<std::size_t>(n - 1);

  cw.begin_epoch(r, epoch, shm::kNil, 1);
  pack_into(in, sdt, count, cw.payload(r), /*direct=*/true);
  cw.publish_chunks(r, 1);
  strided_self_copy(in, sdt, out + static_cast<std::size_t>(r) * rext, rdt,
                    count);

  for (int w = 0; w < n; ++w) {
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until(eng, resil::Site::kCollDoorbell, w,
               [&] { return cw.ready(w, epoch, 1); });
    unpack_from(cw.payload(w), rdt, count,
                out + static_cast<std::size_t>(w) * rext);
  }
  flat_barrier();
}

void Comm::allgather_strided_p2p(const void* sendbuf, const Datatype& sdt,
                                 std::size_t count, void* recvbuf,
                                 const Datatype& rdt) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t rext = count * rdt.extent();
  std::size_t packed = sdt.size() * count;
  strided_self_copy(in, sdt, out + static_cast<std::size_t>(r) * rext, rdt,
                    count);
  int tag = coll_tag(cs, 0);
  // Linear exchange of the local block (a ring would have to re-pack
  // forwarded blocks — exactly the staging copy this path exists to avoid).
  for (int s = 1; s < n; ++s) {
    int to = (r + s) % n, from = (r - s + n) % n;
    ConstSegmentList ssegs = sdt.map(in, count);
    SegmentList rsegs =
        rdt.map(out + static_cast<std::size_t>(from) * rext, count);
    Request sq = engine_.start_send(std::move(ssegs), to, tag,
                                    /*collective=*/true, /*context=*/1);
    Request rq = engine_.start_recv(std::move(rsegs), from, tag, 1);
    tune::Counters& c = eng.counters();
    c.pack_direct_ops++;
    c.pack_direct_bytes += packed;
    c.unpack_ops++;
    wait(sq);
    wait(rq);
  }
}

// --- Reductions ---------------------------------------------------------------

template <typename T>
void Comm::reduce_impl(const T* in, T* out, std::size_t n, ReduceOp op,
                       int root, int tag) {
  int p = size(), r = rank();
  if (r == root) {
    std::memcpy(out, in, n * sizeof(T));
    // Per-Comm receive scratch sized to the high-water mark: this used to
    // be a fresh std::vector<T>(n) on every reduction pass.
    if (reduce_scratch_.size() < n * sizeof(T))
      reduce_scratch_.resize(n * sizeof(T));
    T* tmp = reinterpret_cast<T*>(reduce_scratch_.data());
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      recv(tmp, n * sizeof(T), src, tag, nullptr, 1);
      fold_chunk(engine_, op, out, tmp, n);
    }
  } else {
    send(in, n * sizeof(T), root, tag, 1);
  }
}

template <typename T>
void Comm::allreduce_impl(const T* in, T* out, std::size_t n, ReduceOp op,
                          int tag) {
  reduce_impl<T>(in, out, n, op, 0, tag);
  // Distribute via the p2p tree directly: the dispatcher already chose the
  // p2p family for this operation (re-dispatching through bcast() would
  // also double-count the op in the coll telemetry).
  bcast_p2p(out, n * sizeof(T), 0);
}

/// Owner-computes shm reduction: a reduce-scatter followed by a gather,
/// both inside the arena. The element range is cut into one contiguous,
/// cacheline-aligned block per surviving rank (the k-th survivor in rank
/// order owns block k; blocks may be empty when n is small). Every rank is
/// at once
///  - a writer: it publishes its operand's arena offset when the operand is
///    arena-resident (direct), else stages each owner's block through its
///    own lane of the writer's slot, sub-chunk by sub-chunk;
///  - an owner: it folds its block in sub-chunks of one lane sub-buffer,
///    straight into its `out` block when readers can reach it there (or
///    nobody else reads it), else into its own lane of its own slot — a
///    rank never deposits into its own lane, so that lane carries its
///    staged result stream;
///  - a reader (everyone for allreduce, the root for reduce): it copies the
///    other blocks as their owners publish them, starting at peer r+1 so
///    the reads spread over the owners.
/// No core streams more than its 1/p share of the operands.
///
/// Fold order: the p2p oracle seeds with the ROOT's operand and then folds
/// ranks 0..p-1 in ascending order, skipping the root. Each owner applies
/// exactly that element-wise order to its block, so the result matches the
/// oracle bit for bit for any deposit mode, block split or sub-chunk size.
/// Fenced ranks contribute nothing and own nothing; a fenced root's seed
/// falls back to the lowest surviving rank (the oracle over the survivors).
///
/// Gates: a writer reuses lane sub-buffer j%2 for chunk j once the owner's
/// doorbell (`chunks`, its fold progress) passed chunk j-2; an owner reuses
/// its result sub-buffer once every reader's read count passed chunk j-2.
/// Those counts live in the slot's table words (WorldColl::open_reduce).
///
/// Deadlock shape: every role waits only on another role's progress, and
/// every rank runs all three roles as one interleaved, non-blocking loop
/// that keeps Engine::progress() pumping under a WaitGuard. The op ends
/// with an all-survivor done handshake on the ack cells, so nobody reopens
/// its slot (or lets the caller reuse `in`/`out`) while a peer still reads
/// them.
///
/// In-place calls (in == out): an owner whose `out` overlaps its `in` folds
/// through its own lane and copies the block back afterwards, so its own
/// operand block is never overwritten before it is folded. Every other
/// block of `out` is written only after its owner published it, i.e. after
/// that owner read this rank's operand block for the last time.
template <typename T>
void Comm::reduce_shm(const T* in, T* out, std::size_t n, ReduceOp op,
                      int root, bool all, std::uint64_t epoch) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  shm::Arena& arena = cw.arena();
  const int p = size(), r = rank();
  const std::size_t bytes = n * sizeof(T);
  eng.counters().coll_shm_bytes += bytes;
  const std::size_t sub = lane_sub(cw.slot_bytes(), p);
  const std::size_t ce = sub / sizeof(T);  // Elements per sub-chunk.
  NEMO_ASSERT(ce > 0);

  // Fold order (seed first, then the other survivors ascending) and the
  // block each survivor owns (its index among the survivors).
  const int seed = eng.rank_fenced(root) ? eng.lowest_alive() : root;
  std::vector<int> order{seed};
  struct Peer {
    int blk = -1;                    ///< Owned block; -1 = fenced.
    bool open = false;               ///< Its slot reached this epoch.
    const std::byte* src = nullptr;  ///< Direct operand, else staged.
    const std::byte* res = nullptr;  ///< Direct result, else staged.
    std::uint64_t dep = 0;           ///< Our chunks staged into its lane.
    std::uint64_t got = 0;           ///< Its result chunks we copied.
  };
  std::vector<Peer> peer(static_cast<std::size_t>(p));
  int m = 0;
  for (int w = 0; w < p; ++w) {
    if (eng.rank_fenced(w)) continue;
    peer[static_cast<std::size_t>(w)].blk = m++;
    if (w != seed) order.push_back(w);
  }
  const std::size_t line_elems = kCacheLine / sizeof(T);
  const std::size_t per =
      div_ceil(div_ceil(n, static_cast<std::size_t>(m)), line_elems) *
      line_elems;
  auto lo = [&](int w) {
    return std::min(n, static_cast<std::size_t>(
                           peer[static_cast<std::size_t>(w)].blk) * per);
  };
  auto nchunks = [&](int w) {
    return div_ceil(std::min(n, lo(w) + per) - lo(w), ce);
  };
  auto chunk_len = [&](int w, std::uint64_t j) {
    std::size_t first = lo(w) + static_cast<std::size_t>(j) * ce;
    return std::min(ce, std::min(n, lo(w) + per) - first);
  };
  auto lane = [&](int w, int o, std::uint64_t j) {
    return cw.payload(w) +
           (static_cast<std::size_t>(o) * kLaneBufs + j % kLaneBufs) * sub;
  };

  const bool in_direct = bytes > 0 && arena.contains(in, bytes);
  const bool want = all || r == root;  // Our `out` is significant.
  const bool peers_read = all || r != root;
  const auto* ib = reinterpret_cast<const std::byte*>(in);
  const auto* ob = reinterpret_cast<const std::byte*>(out);
  const bool alias = want && bytes > 0 && ib < ob + bytes && ob < ib + bytes;
  const bool out_direct = want && peers_read && !alias && bytes > 0 &&
                          arena.contains(out, bytes);
  const bool fold_to_out = want && !alias && (out_direct || !peers_read);
  cw.open_reduce(r, epoch, in_direct ? arena.offset_of(in) : shm::kNil,
                 out_direct ? arena.offset_of(out) : shm::kNil);

  // A source slice of chunk j of our block, or nullptr until it is there.
  const std::size_t my_lo = lo(r);
  const std::uint64_t my_chunks = nchunks(r);
  auto slice = [&](int w, std::uint64_t j) -> const T* {
    std::size_t first = my_lo + static_cast<std::size_t>(j) * ce;
    if (w == r) return in + first;
    const Peer& pw = peer[static_cast<std::size_t>(w)];
    if (!pw.open) return nullptr;
    if (pw.src != nullptr)
      return reinterpret_cast<const T*>(pw.src) + first;
    if (cw.lane_chunks(w, r) <= j) return nullptr;
    return reinterpret_cast<const T*>(lane(w, r, j));
  };

  std::uint64_t folded = 0;  // Our block's chunks folded and published.
  std::size_t next = 0;      // Position in `order` within chunk `folded`.
  std::uint32_t spins = 0;
  bool stalled = false;
  // Any survivor can be the one this loop waits on.
  resil::WaitGuard guard = eng.make_guard(resil::Site::kCollDoorbell, -1);
  try {
    for (;;) {
      bool advanced = false, done = true;
      for (int w = 0; w < p; ++w) {
        Peer& pw = peer[static_cast<std::size_t>(w)];
        if (w == r || pw.blk < 0 || pw.open || !cw.ready(w, epoch, 0))
          continue;
        const coll::SlotHeader* h = cw.header(w);
        pw.src = h->src_off != shm::kNil ? arena.at(h->src_off) : nullptr;
        pw.res = h->dst_off != shm::kNil ? arena.at(h->dst_off) : nullptr;
        pw.open = true;
      }
      // Writer: stage each owner's block through its lane of our slot.
      for (int o = 0; !in_direct && o < p; ++o) {
        Peer& po = peer[static_cast<std::size_t>(o)];
        if (o == r || po.blk < 0) continue;
        const std::uint64_t total = nchunks(o);
        while (po.dep < total &&
               (po.dep < kLaneBufs ||
                cw.ready(o, epoch, po.dep - kLaneBufs + 1))) {
          const std::size_t cnt = chunk_len(o, po.dep);
          trace::Span dsp(eng.tracer(), trace::kCollDeposit,
                          trace::Mode::kRings, po.dep, cnt * sizeof(T));
          resil::fault_point(resil::Site::kCollDeposit, r);
          std::memcpy(lane(r, o, po.dep),
                      in + lo(o) + static_cast<std::size_t>(po.dep) * ce,
                      cnt * sizeof(T));
          cw.publish_lane(r, o, ++po.dep);
          advanced = true;
        }
        done = done && po.dep == total;
      }
      // Owner: fold our block chunk by chunk, in oracle order.
      while (folded < my_chunks) {
        const std::size_t cnt = chunk_len(r, folded);
        T* dst = fold_to_out
                     ? out + my_lo + static_cast<std::size_t>(folded) * ce
                     : reinterpret_cast<T*>(lane(r, r, folded));
        if (next == 0 && !fold_to_out && folded >= kLaneBufs) {
          // Result sub-buffer reuse: every reader copied chunk folded-2.
          bool free = true;
          for (int x = 0; x < p && free; ++x) {
            const Peer& px = peer[static_cast<std::size_t>(x)];
            if (x == r || px.blk < 0 || !(all || x == root)) continue;
            free = px.open &&
                   cw.block_acked(x, r) >= folded - kLaneBufs + 1;
          }
          if (!free) break;
        }
        const T* s = slice(order[next], folded);
        if (s == nullptr) break;
        {
          trace::Span fsp(eng.tracer(), trace::kCollFold, trace::Mode::kRings,
                          folded, cnt * sizeof(T));
          if (next == 0) {
            resil::fault_point(resil::Site::kCollFold, r);
            std::memcpy(dst, s, cnt * sizeof(T));
            ++next;
          }
          while (next < order.size() &&
                 (s = slice(order[next], folded)) != nullptr) {
            fold_chunk(eng, op, dst, s, cnt);
            ++next;
          }
        }
        advanced = true;
        if (next < order.size()) break;
        if (want && !fold_to_out)
          std::memcpy(out + my_lo + static_cast<std::size_t>(folded) * ce,
                      dst, cnt * sizeof(T));
        next = 0;
        cw.publish_chunks(r, ++folded);
      }
      done = done && folded == my_chunks;
      // Reader: copy the other blocks as their owners publish them.
      for (int k = 1; want && k < p; ++k) {
        const int q = (r + k) % p;
        Peer& pq = peer[static_cast<std::size_t>(q)];
        if (pq.blk < 0) continue;
        const std::uint64_t total = nchunks(q);
        while (pq.got < total && pq.open &&
               cw.ready(q, epoch, pq.got + 1)) {
          const std::size_t first =
              lo(q) + static_cast<std::size_t>(pq.got) * ce;
          const std::size_t cnt = chunk_len(q, pq.got);
          trace::Span rsp(eng.tracer(), trace::kCollRelease,
                          trace::Mode::kRings, pq.got, cnt * sizeof(T));
          const std::byte* src =
              pq.res != nullptr ? pq.res + first * sizeof(T)
                                : lane(q, q, pq.got);
          std::memcpy(out + first, src, cnt * sizeof(T));
          ++pq.got;
          if (pq.res == nullptr) cw.ack_block(r, q, pq.got);
          advanced = true;
        }
        done = done && pq.got == total;
      }
      if (done) break;
      if (!advanced) {
        if (!stalled) {
          eng.counters().coll_epoch_stalls++;
          if (trace::on())
            eng.tracer().emit(trace::kEpochStall, trace::kInstant);
          stalled = true;
        }
        if ((++spins & 0x3F) == 0) {
          eng.progress();
          guard.check();
          std::this_thread::yield();
        }
      }
    }
  } catch (const resil::PeerDeadError& e) {
    eng.peer_death_fence(e);
    throw;
  }
  // Done handshake: once every survivor has finished all three roles,
  // nobody reads our operand, our result block or our slot any more.
  cw.set_ack(r, epoch, 1);
  for (int w = 0; w < p; ++w)
    if (w != r && peer[static_cast<std::size_t>(w)].blk >= 0)
      spin_until_quiet(eng, resil::Site::kCollAck, w,
                       [&] { return cw.acked(w, epoch, 1); });
}

/// One-hop reduction of an operand of at most coll::kLinePayload bytes.
/// Every rank copies its operand into its own line cell and RELEASE-
/// publishes the cell's seq, then waits for every survivor's cell — also
/// the non-roots of a reduce: that all-read-all is what lets the parity-
/// double-buffered cells skip a completion handshake (coll_arena.hpp).
/// The ranks whose `out` matters fold the cells in the p2p oracle's order:
/// the root's operand seeds (the lowest survivor's when the root is
/// fenced; allreduce's root is 0), the other survivors follow ascending.
/// The fold runs in a local line and `out` is written last, so in-place
/// calls need no special case.
template <typename T>
void Comm::reduce_line(const T* in, T* out, std::size_t n, ReduceOp op,
                       int root, bool all) {
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  const int p = size(), r = rank();
  const std::size_t bytes = n * sizeof(T);
  eng.counters().coll_line_ops++;
  eng.counters().coll_shm_bytes += bytes;
  const std::uint64_t seq = eng.next_coll_probe_seq();
  resil::fault_point(resil::Site::kCollLine, r);
  cw.probe_publish(r, seq, in, bytes);
  for (int w = 0; w < p; ++w) {
    if (w == r || eng.rank_fenced(w)) continue;
    spin_until_quiet(eng, resil::Site::kCollProbe, w,
                     [&] { return cw.probe_ready(w, seq); });
  }
  if (!all && r != root) return;
  const int seed = eng.rank_fenced(root) ? eng.lowest_alive() : root;
  T acc[coll::kLinePayload / sizeof(T)];
  std::memcpy(acc, cw.probe_payload(seed, seq), bytes);
  for (int w = 0; w < p; ++w) {
    if (w == seed || eng.rank_fenced(w)) continue;
    fold_chunk(eng, op, acc,
               reinterpret_cast<const T*>(cw.probe_payload(w, seq)), n);
  }
  std::memcpy(out, acc, bytes);
}

template <typename T>
void Comm::reduce_dispatch(const T* in, T* out, std::size_t n, ReduceOp op,
                           int root, bool all) {
  if (size() == 1) {
    std::memcpy(out, in, n * sizeof(T));
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, all ? trace::kOpAllreduce : trace::kOpReduce,
                n * sizeof(T));
  // Every writer's slot must give each owner a lane of kLaneBufs lines.
  std::size_t need =
      kLaneBufs * static_cast<std::size_t>(size()) * kCacheLine;
  std::uint64_t cs = next_coll_seq(eng);
  // A line-sized operand takes one hop through the line cells whenever the
  // arena is open, whatever coll_activation says, instead of the p2p
  // path's serial gather and bcast hops.
  if (n * sizeof(T) <= coll::kLinePayload && arena_open(eng)) {
    eng.counters().coll_shm_ops++;
    reduce_line<T>(in, out, n, op, root, all);
    return;
  }
  if (use_shm_coll(n * sizeof(T), need)) {
    reduce_shm<T>(in, out, n, op, root, all, epoch_base(cs));
    return;
  }
  if (all)
    allreduce_impl<T>(in, out, n, op, coll_tag(cs, 1));
  else
    reduce_impl<T>(in, out, n, op, root, coll_tag(cs, 1));
}

void Comm::reduce_f64(const double* in, double* out, std::size_t n,
                      ReduceOp op, int root) {
  reduce_dispatch<double>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_f64(const double* in, double* out, std::size_t n,
                         ReduceOp op) {
  reduce_dispatch<double>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_f32(const float* in, float* out, std::size_t n,
                      ReduceOp op, int root) {
  reduce_dispatch<float>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_f32(const float* in, float* out, std::size_t n,
                         ReduceOp op) {
  reduce_dispatch<float>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_i64(const std::int64_t* in, std::int64_t* out,
                      std::size_t n, ReduceOp op, int root) {
  reduce_dispatch<std::int64_t>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_i64(const std::int64_t* in, std::int64_t* out,
                         std::size_t n, ReduceOp op) {
  reduce_dispatch<std::int64_t>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_i32(const std::int32_t* in, std::int32_t* out,
                      std::size_t n, ReduceOp op, int root) {
  reduce_dispatch<std::int32_t>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_i32(const std::int32_t* in, std::int32_t* out,
                         std::size_t n, ReduceOp op) {
  reduce_dispatch<std::int32_t>(in, out, n, op, 0, /*all=*/true);
}

}  // namespace nemo::core
