#include "knem/knem_device.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "resil/resil.hpp"

namespace nemo::knem {

using shm::aref;
using shm::kNil;

const char* to_string(KnemResult r) {
  switch (r) {
    case KnemResult::kOk: return "ok";
    case KnemResult::kBadCookie: return "bad-cookie";
    case KnemResult::kTruncated: return "truncated";
  }
  return "?";
}

namespace {

constexpr std::size_t kPage = 4096;

std::uint64_t pages_touched(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return 0;
  std::uint64_t first = addr / kPage;
  std::uint64_t last = (addr + len - 1) / kPage;
  return last - first + 1;
}

void stat_add(std::uint64_t& field, std::uint64_t v) {
  aref(field).fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t seg_addr(const shm::RemoteSegment& s) { return s.addr; }
template <class Seg>
std::uint64_t seg_addr(const Seg& s) {
  return reinterpret_cast<std::uint64_t>(s.base);
}
shm::RemoteSegment seg_at(const shm::RemoteSegment&, std::uint64_t addr,
                          std::uint64_t len) {
  return {addr, len};
}
template <class Seg>
Seg seg_at(const Seg&, std::uint64_t addr, std::uint64_t len) {
  using Ptr = decltype(Seg::base);
  return {reinterpret_cast<Ptr>(addr), static_cast<std::size_t>(len)};
}

/// Message bytes [off, off + len) of a segment list, as sub-segments.
template <class Seg>
std::vector<Seg> byte_slice(std::span<const Seg> segs, std::uint64_t off,
                            std::uint64_t len) {
  std::vector<Seg> out;
  for (const Seg& s : segs) {
    if (len == 0) break;
    if (off >= s.len) {
      off -= s.len;
      continue;
    }
    std::uint64_t n = std::min<std::uint64_t>(s.len - off, len);
    out.push_back(seg_at(s, seg_addr(s) + off, n));
    len -= n;
    off = 0;
  }
  return out;
}

/// True when every non-empty segment lies in [base, base + span).
bool all_within(std::span<const shm::RemoteSegment> segs, std::uint64_t base,
                std::uint64_t span) {
  for (const auto& seg : segs)
    if (seg.len != 0 && (seg.addr < base || seg.addr + seg.len > base + span))
      return false;
  return true;
}

/// Claim kCoopChunk ranges of `s` and move each with `copy(off, n)` until
/// the cursor passes the message; returns the bytes moved. The release add
/// to coop_done publishes the chunk's bytes to the receiver's completion
/// check.
template <class Copy>
std::uint64_t claim_chunks(CookieSlot* s, Copy&& copy) {
  const std::uint64_t total = s->total_bytes;
  std::uint64_t mine = 0;
  for (;;) {
    std::uint64_t off = aref(s->coop_next).fetch_add(kCoopChunk);
    if (off >= total) break;
    std::uint64_t n = std::min(kCoopChunk, total - off);
    copy(off, n);
    aref(s->coop_done).fetch_add(n, std::memory_order_release);
    mine += n;
  }
  return mine;
}

}  // namespace

std::uint64_t Device::create(shm::Arena& arena, std::uint32_t nslots,
                             std::uint32_t nblocks) {
  NEMO_ASSERT(nslots >= 1);
  std::uint64_t off = arena.alloc(sizeof(DeviceState), kCacheLine);
  auto* st = arena.at_as<DeviceState>(off);
  std::memset(st, 0, sizeof(*st));
  st->nslots = nslots;
  st->nblocks = nblocks;
  st->gen = 1;
  st->slots_off = arena.alloc(sizeof(CookieSlot) * nslots, kCacheLine);
  std::memset(arena.at(st->slots_off), 0, sizeof(CookieSlot) * nslots);
  st->block_free = kNil;
  if (nblocks > 0) {
    st->blocks_off = arena.alloc(sizeof(SegBlock) * nblocks, kCacheLine);
    // Thread the freelist through the blocks.
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      auto* b = arena.at_as<SegBlock>(st->blocks_off + i * sizeof(SegBlock));
      b->nsegs = 0;
      b->next = st->block_free;
      st->block_free = st->blocks_off + i * sizeof(SegBlock);
    }
  }
  return off;
}

Device::Device(shm::Arena& arena, std::uint64_t state_off, int my_rank,
               pid_t my_pid)
    : arena_(&arena),
      st_(arena.at_as<DeviceState>(state_off)),
      rank_(my_rank),
      pid_(my_pid) {}

CookieSlot* Device::slot_at(std::uint32_t i) const {
  return arena_->at_as<CookieSlot>(st_->slots_off + i * sizeof(CookieSlot));
}

SegBlock* Device::block_at(std::uint64_t off) const {
  return arena_->at_as<SegBlock>(off);
}

std::uint64_t Device::pop_block() {
  // Short critical section protected by a shared spinlock; extension blocks
  // are only needed for >kInlineSegs-segment buffers, so contention is rare.
  auto lock = aref(st_->block_lock);
  while (lock.exchange(1, std::memory_order_acquire) != 0) {
  }
  std::uint64_t head = st_->block_free;
  if (head != kNil) st_->block_free = block_at(head)->next;
  lock.store(0, std::memory_order_release);
  return head;
}

void Device::push_block(std::uint64_t off) {
  auto lock = aref(st_->block_lock);
  while (lock.exchange(1, std::memory_order_acquire) != 0) {
  }
  block_at(off)->next = st_->block_free;
  st_->block_free = off;
  lock.store(0, std::memory_order_release);
}

std::uint64_t Device::submit_send(std::span<const ConstSegment> segs) {
  // Claim a free slot.
  CookieSlot* slot = nullptr;
  std::uint32_t idx = 0;
  for (std::uint32_t i = 0; i < st_->nslots; ++i) {
    CookieSlot* s = slot_at(i);
    std::uint64_t expected = 0;
    if (aref(s->state).compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
      slot = s;
      idx = i;
      break;
    }
  }
  NEMO_ASSERT_MSG(slot != nullptr,
                  "KNEM cookie table full: raise nslots or release cookies");

  std::uint64_t gen = aref(st_->gen).fetch_add(1, std::memory_order_relaxed);
  slot->id = (gen << 20) | (idx + 1);
  slot->owner_pid = static_cast<std::int32_t>(pid_);
  slot->owner_rank = static_cast<std::uint32_t>(rank_);
  slot->flags = 0;
  slot->more = kNil;
  slot->owner_arena_base = reinterpret_cast<std::uint64_t>(arena_->base());
  slot->stage_off = kNil;
  aref(slot->stage_state).store(0, std::memory_order_relaxed);
  aref(slot->coop_state).store(kCoopPending, std::memory_order_relaxed);
  aref(slot->coop_next).store(0, std::memory_order_relaxed);
  aref(slot->coop_done).store(0, std::memory_order_relaxed);

  std::uint64_t total = 0, pinned = 0;
  std::uint32_t n = 0;
  SegBlock* cur_block = nullptr;
  for (const auto& seg : segs) {
    if (seg.len == 0) continue;
    shm::RemoteSegment rs{reinterpret_cast<std::uint64_t>(seg.base), seg.len};
    total += seg.len;
    pinned += pages_touched(rs.addr, rs.len);
    if (n < kInlineSegs) {
      slot->inline_segs[n] = rs;
    } else {
      std::uint32_t in_block = (n - kInlineSegs) % kBlockSegs;
      if (in_block == 0) {
        std::uint64_t boff = pop_block();
        NEMO_ASSERT_MSG(boff != kNil, "KNEM segment-block pool exhausted");
        SegBlock* b = block_at(boff);
        b->next = kNil;
        b->nsegs = 0;
        if (cur_block == nullptr)
          slot->more = boff;
        else
          cur_block->next = boff;
        cur_block = b;
      }
      cur_block->segs[in_block] = rs;
      cur_block->nsegs = in_block + 1;
    }
    ++n;
  }
  slot->nsegs = n;
  slot->total_bytes = total;
  slot->pinned_pages = pinned;

  stat_add(st_->stats.send_cmds, 1);
  stat_add(st_->stats.pages_pinned, pinned);

  // Publish: the id becomes visible to other ranks only after the segment
  // data is written.
  aref(slot->state).store(2, std::memory_order_release);
  return slot->id;
}

const CookieSlot* Device::find(std::uint64_t cookie_id) const {
  if (cookie_id == 0) return nullptr;
  std::uint32_t idx = static_cast<std::uint32_t>(cookie_id & 0xfffff) - 1;
  if (idx >= st_->nslots) return nullptr;
  const CookieSlot* s = slot_at(idx);
  if (aref(const_cast<std::uint64_t&>(s->state))
          .load(std::memory_order_acquire) != 2)
    return nullptr;
  if (s->id != cookie_id) return nullptr;
  return s;
}

void Device::free_chain(CookieSlot* s) {
  std::uint64_t b = s->more;
  while (b != kNil) {
    std::uint64_t next = block_at(b)->next;
    push_block(b);
    b = next;
  }
  s->more = kNil;
}

void Device::release(std::uint64_t cookie_id) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) {
    stat_add(st_->stats.cookie_leaks, 1);
    return;
  }
  auto* s = const_cast<CookieSlot*>(cs);
  free_chain(s);
  s->id = 0;
  s->stage_off = kNil;
  aref(s->stage_state).store(0, std::memory_order_relaxed);
  aref(s->state).store(0, std::memory_order_release);
}

std::optional<Device::Resolved> Device::resolve(
    std::uint64_t cookie_id) const {
  const CookieSlot* s = find(cookie_id);
  if (s == nullptr) return std::nullopt;
  Resolved r;
  r.pid = s->owner_pid;
  r.owner_rank = s->owner_rank;
  r.total = s->total_bytes;
  r.segs.reserve(s->nsegs);
  std::uint32_t n = s->nsegs < kInlineSegs ? s->nsegs : kInlineSegs;
  for (std::uint32_t i = 0; i < n; ++i) r.segs.push_back(s->inline_segs[i]);
  std::uint64_t b = s->more;
  while (b != kNil) {
    SegBlock* blk = block_at(b);
    for (std::uint32_t i = 0; i < blk->nsegs; ++i)
      r.segs.push_back(blk->segs[i]);
    b = blk->next;
  }

  // Copy-mode decision: same process -> direct on the raw addresses. Arena-
  // resident segments are direct too, but forked ranks map the arena at
  // per-process bases, so the sender's addresses must be REBASED onto this
  // process's mapping before they are dereferenced (in thread mode, or with
  // an inherited mapping, the rebase is the identity). Anything else is
  // another process's private memory: cross-memory attach.
  bool same_pid = (r.pid == pid_);
  if (!same_pid) {
    std::uint64_t sender_base = s->owner_arena_base;
    std::uint64_t local_base = reinterpret_cast<std::uint64_t>(arena_->base());
    bool all_in_arena = all_within(r.segs, sender_base, arena_->size());
    if (all_in_arena) {
      for (auto& seg : r.segs)
        if (seg.len != 0) seg.addr = seg.addr - sender_base + local_base;
    }
    r.mode = all_in_arena ? shm::RemoteMode::kDirect : shm::RemoteMode::kCma;
  } else {
    r.mode = shm::RemoteMode::kDirect;
  }
  return r;
}

KnemResult Device::recv_sync(std::uint64_t cookie_id,
                             std::span<const Segment> local,
                             std::uint32_t flags, shm::DmaEngine* engine) {
  auto r = resolve(cookie_id);
  if (!r) return KnemResult::kBadCookie;
  std::size_t cap = 0;
  for (const auto& seg : local) cap += seg.len;
  if (cap < r->total) return KnemResult::kTruncated;

  stat_add(st_->stats.recv_cmds, 1);
  if ((flags & kFlagDma) != 0 && engine != nullptr) {
    stat_add(st_->stats.dma_recv_cmds, 1);
    // Synchronous I/OAT mode: submit, then poll the status byte before
    // returning to "user space".
    volatile std::uint8_t status =
        static_cast<std::uint8_t>(shm::DmaStatus::kPending);
    SegmentList loc(local.begin(), local.end());
    engine->submit_copy_with_status(shm::RemoteMemPort(r->mode, r->pid),
                                    r->segs, std::move(loc), &status);
    while (status == static_cast<std::uint8_t>(shm::DmaStatus::kPending))
      std::this_thread::yield();
    std::atomic_thread_fence(std::memory_order_acquire);
  } else {
    // CPU copy on the calling (receiver) core.
    shm::RemoteMemPort port(r->mode, r->pid);
    port.read(r->segs, local, /*non_temporal=*/false);
  }
  stat_add(st_->stats.bytes_copied, r->total);
  return KnemResult::kOk;
}

KnemResult Device::recv_async(std::uint64_t cookie_id, SegmentList local,
                              std::uint32_t flags, shm::DmaEngine& engine,
                              volatile std::uint8_t* status) {
  auto r = resolve(cookie_id);
  if (!r) return KnemResult::kBadCookie;
  std::size_t cap = 0;
  for (const auto& seg : local) cap += seg.len;
  if (cap < r->total) return KnemResult::kTruncated;

  stat_add(st_->stats.recv_cmds, 1);
  stat_add(st_->stats.async_recv_cmds, 1);
  if ((flags & kFlagDma) != 0) stat_add(st_->stats.dma_recv_cmds, 1);
  *status = static_cast<std::uint8_t>(shm::DmaStatus::kPending);
  engine.submit_copy_with_status(shm::RemoteMemPort(r->mode, r->pid), r->segs,
                                 std::move(local), status);
  stat_add(st_->stats.bytes_copied, r->total);
  return KnemResult::kOk;
}

std::uint64_t Device::request_stage(std::uint64_t cookie_id) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return kNil;
  auto* s = const_cast<CookieSlot*>(cs);
  std::uint64_t state = aref(s->stage_state).load(std::memory_order_acquire);
  if (state != 0) return s->stage_off;  // Already requested.
  // Publish the buffer offset before flipping the request word so the
  // sender's acquire load sees a valid destination.
  s->stage_off = arena_->alloc(cs->total_bytes > 0 ? cs->total_bytes : 1,
                               kCacheLine);
  aref(s->stage_state).store(1, std::memory_order_release);
  stat_add(st_->stats.cma_stage_fallbacks, 1);
  return s->stage_off;
}

bool Device::stage_ready(std::uint64_t cookie_id) const {
  const CookieSlot* s = find(cookie_id);
  if (s == nullptr) return false;
  return aref(const_cast<std::uint64_t&>(s->stage_state))
             .load(std::memory_order_acquire) == 2;
}

bool Device::try_fulfill_stage(std::uint64_t cookie_id,
                               std::span<const ConstSegment> segs) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return false;
  auto* s = const_cast<CookieSlot*>(cs);
  std::uint64_t state = aref(s->stage_state).load(std::memory_order_acquire);
  if (state == 2) return true;
  if (state != 1) return false;
  std::byte* dst = arena_->at(s->stage_off);
  std::uint64_t moved = 0;
  for (const auto& seg : segs) {
    if (seg.len == 0) continue;
    std::memcpy(dst + moved, seg.base, seg.len);
    moved += seg.len;
  }
  stat_add(st_->stats.cma_stage_bytes, moved);
  aref(s->stage_state).store(2, std::memory_order_release);
  return true;
}

void Device::note_cma_read(std::uint64_t bytes) {
  stat_add(st_->stats.cma_read_cmds, 1);
  stat_add(st_->stats.cma_bytes, bytes);
}

void Device::note_recv(std::uint64_t bytes) {
  stat_add(st_->stats.recv_cmds, 1);
  stat_add(st_->stats.bytes_copied, bytes);
}

bool Device::coop_offer(std::uint64_t cookie_id, const Resolved& src,
                        std::span<const Segment> dst, bool cma_write) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return false;
  auto* s = const_cast<CookieSlot*>(cs);
  // The destination, trimmed to the message.
  std::uint32_t n = 0;
  std::uint64_t left = src.total;
  bool fits = src.total >= kCoopMin;
  for (const Segment& seg : dst) {
    if (!fits || left == 0) break;
    if (seg.len == 0) continue;
    if (n == kInlineSegs) {
      fits = false;
      break;
    }
    std::uint64_t len = std::min<std::uint64_t>(seg.len, left);
    s->coop_segs[n++] = {reinterpret_cast<std::uint64_t>(seg.base), len};
    left -= len;
  }
  if (fits) {
    auto base = reinterpret_cast<std::uint64_t>(arena_->base());
    if (src.pid == pid_)
      s->coop_reach = static_cast<std::uint32_t>(CoopReach::kSamePid);
    else if (all_within({s->coop_segs, n}, base, arena_->size()))
      s->coop_reach = static_cast<std::uint32_t>(CoopReach::kArena);
    else if (cma_write)
      s->coop_reach = static_cast<std::uint32_t>(CoopReach::kCma);
    else
      fits = false;
    s->coop_base = base;
    s->coop_pid = static_cast<std::int32_t>(pid_);
    s->coop_nsegs = n;
  }
  aref(s->coop_state)
      .store(fits ? kCoopOffered : kCoopDeclined, std::memory_order_release);
  if (fits) stat_add(st_->stats.coop_offers, 1);
  return fits;
}

void Device::coop_decline(std::uint64_t cookie_id) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return;
  aref(const_cast<CookieSlot*>(cs)->coop_state)
      .store(kCoopDeclined, std::memory_order_release);
}

std::uint64_t Device::coop_copy(std::uint64_t cookie_id, const Resolved& src,
                                std::span<const Segment> dst) {
  const CookieSlot* cs = find(cookie_id);
  NEMO_ASSERT_MSG(cs != nullptr, "stale cookie in cooperative copy");
  shm::RemoteMemPort port(src.mode, src.pid);
  std::span<const shm::RemoteSegment> from(src.segs);
  std::uint64_t mine = claim_chunks(
      const_cast<CookieSlot*>(cs),
      [&](std::uint64_t off, std::uint64_t n) {
        auto r = byte_slice(from, off, n);
        auto l = byte_slice(dst, off, n);
        port.read(r, l, /*non_temporal=*/false);
      });
  stat_add(st_->stats.coop_receiver_bytes, mine);
  return mine;
}

bool Device::coop_complete(std::uint64_t cookie_id) const {
  const CookieSlot* s = find(cookie_id);
  NEMO_ASSERT_MSG(s != nullptr, "stale cookie in cooperative copy");
  return aref(const_cast<std::uint64_t&>(s->coop_done))
             .load(std::memory_order_acquire) == s->total_bytes;
}

std::optional<std::uint64_t> Device::coop_send(
    std::uint64_t cookie_id, std::span<const ConstSegment> src) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return 0;
  auto* s = const_cast<CookieSlot*>(cs);
  std::uint64_t state = aref(s->coop_state).load(std::memory_order_acquire);
  if (state == kCoopPending) return std::nullopt;
  if (state == kCoopDeclined) return 0;

  // The receiver's destination, as this process addresses it.
  shm::RemoteSegmentList to(s->coop_segs, s->coop_segs + s->coop_nsegs);
  auto reach = static_cast<CoopReach>(s->coop_reach);
  if (reach == CoopReach::kArena) {
    auto local_base = reinterpret_cast<std::uint64_t>(arena_->base());
    for (auto& seg : to) seg.addr = seg.addr - s->coop_base + local_base;
  }
  shm::RemoteMemPort port(
      reach == CoopReach::kCma ? shm::RemoteMode::kCma
                               : shm::RemoteMode::kDirect,
      reach == CoopReach::kCma ? s->coop_pid : pid_);
  if (reach == CoopReach::kCma) {
    // Claim nothing this process cannot deliver: a claimed chunk is only
    // ever finished by its claimant. process_vm_readv checks the same
    // ptrace access as process_vm_writev, so a one-byte read is the probe.
    std::byte probe{};
    try {
      port.read(byte_slice(std::span<const shm::RemoteSegment>(to), 0, 1),
                SegmentList{{&probe, 1}});
    } catch (const SysError& e) {
      if (e.sys_errno() != EPERM && e.sys_errno() != ENOSYS) throw;
      return 0;
    }
  }
  std::span<const shm::RemoteSegment> dst(to);
  std::uint64_t mine = claim_chunks(
      s,
      [&](std::uint64_t off, std::uint64_t n) {
        resil::fault_point(resil::Site::kLmtCoop, rank_);
        auto r = byte_slice(dst, off, n);
        auto l = byte_slice(src, off, n);
        port.write(r, l);
      });
  stat_add(st_->stats.coop_sender_bytes, mine);
  return mine;
}

DeviceStats Device::stats() const {
  DeviceStats out;
  out.send_cmds = aref(st_->stats.send_cmds).load(std::memory_order_relaxed);
  out.recv_cmds = aref(st_->stats.recv_cmds).load(std::memory_order_relaxed);
  out.dma_recv_cmds =
      aref(st_->stats.dma_recv_cmds).load(std::memory_order_relaxed);
  out.async_recv_cmds =
      aref(st_->stats.async_recv_cmds).load(std::memory_order_relaxed);
  out.bytes_copied =
      aref(st_->stats.bytes_copied).load(std::memory_order_relaxed);
  out.pages_pinned =
      aref(st_->stats.pages_pinned).load(std::memory_order_relaxed);
  out.cookie_leaks =
      aref(st_->stats.cookie_leaks).load(std::memory_order_relaxed);
  out.cma_read_cmds =
      aref(st_->stats.cma_read_cmds).load(std::memory_order_relaxed);
  out.cma_bytes = aref(st_->stats.cma_bytes).load(std::memory_order_relaxed);
  out.cma_stage_fallbacks =
      aref(st_->stats.cma_stage_fallbacks).load(std::memory_order_relaxed);
  out.cma_stage_bytes =
      aref(st_->stats.cma_stage_bytes).load(std::memory_order_relaxed);
  out.coop_offers =
      aref(st_->stats.coop_offers).load(std::memory_order_relaxed);
  out.coop_sender_bytes =
      aref(st_->stats.coop_sender_bytes).load(std::memory_order_relaxed);
  out.coop_receiver_bytes =
      aref(st_->stats.coop_receiver_bytes).load(std::memory_order_relaxed);
  return out;
}

std::uint32_t Device::slots_in_use() const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < st_->nslots; ++i)
    if (aref(slot_at(i)->state).load(std::memory_order_acquire) != 0) ++n;
  return n;
}

}  // namespace nemo::knem
