#include <cerrno>

#include "core/comm.hpp"
#include "lmt/backends.hpp"

namespace nemo::lmt {

namespace {

/// A cross-process copy found the peer's pid gone (ESRCH): that is a death
/// verdict, not a capability problem. Flag the shared liveness cell so
/// every rank converts it eagerly, then fail this rank's wait on it.
[[noreturn]] void peer_gone(core::Engine& eng, int peer, resil::Site site) {
  resil::Liveness live = eng.world().liveness();
  if (live.valid() && peer >= 0) live.mark_dead(peer);
  throw resil::PeerDeadError(peer, site, /*from_timeout=*/false);
}

bool coop_recv_copy(core::Engine& eng, RecvCtx& ctx,
                    const knem::Device::Resolved& src) {
  knem::Device& dev = eng.knem_device();
  const core::World& world = eng.world();
  const std::uint64_t cookie = ctx.rts.knem_cookie;
  bool cma_write = world.cma_ok() && !world.config().cma_sim_fail;
  if (!dev.coop_offer(cookie, src, ctx.segs, cma_write)) {
    eng.counters().lmt_coop_declined++;
    shm::RemoteMemPort(src.mode, src.pid)
        .read(src.segs, ctx.segs, /*non_temporal=*/false);
    return true;
  }
  eng.counters().lmt_coop_msgs++;
  if (trace::on())
    eng.tracer().emit(trace::kLmtCoop, trace::kInstant,
                      static_cast<std::uint64_t>(ctx.peer), src.total);
  dev.coop_copy(cookie, src, ctx.segs);
  ctx.coop = true;
  return dev.coop_complete(cookie);
}

}  // namespace

bool coop_recv(core::Engine& eng, RecvCtx& ctx,
               const knem::Device::Resolved& src) {
  try {
    return coop_recv_copy(eng, ctx, src);
  } catch (const SysError& e) {
    // The sender died after publishing its RTS: its pages are gone, and
    // no staging fallback could ever be fulfilled.
    if (e.sys_errno() != ESRCH) throw;
    peer_gone(eng, ctx.peer, resil::Site::kCmaRendezvous);
  }
}

bool coop_send(core::Engine& eng, SendCtx& ctx) {
  if (ctx.coop_settled) return true;
  std::optional<std::uint64_t> moved;
  try {
    moved = eng.knem_device().coop_send(
        ctx.knem_cookie, std::span<const ConstSegment>(ctx.segs));
  } catch (const SysError& e) {
    // The receiver's pid vanished under a CMA write.
    if (e.sys_errno() != ESRCH) throw;
    peer_gone(eng, ctx.peer, resil::Site::kLmtCoop);
  }
  if (!moved) return false;
  ctx.coop_settled = true;
  eng.counters().lmt_coop_sender_bytes += *moved;
  return true;
}

void KnemBackend::send_init(SendCtx& ctx) {
  // Declare the (possibly vectorial) send buffer; the cookie id travels in
  // the RTS through the normal rendezvous handshake (Figure 1, steps 1-3).
  ctx.knem_cookie = eng_.knem_device().submit_send(
      std::span<const ConstSegment>(ctx.segs));
  ctx.rts.kind = static_cast<std::uint32_t>(LmtKind::kKnem);
  ctx.rts.total = ctx.total;
  ctx.rts.knem_cookie = ctx.knem_cookie;
  ctx.rts.nsegs = static_cast<std::uint32_t>(ctx.segs.size());
  int core = eng_.world().core_of(eng_.rank());
  ctx.rts.sender_core = core >= 0 ? static_cast<std::uint32_t>(core) : 0;
}

bool KnemBackend::send_progress(SendCtx& ctx) {
  // The receiver drives the copy. When it offers a split, this core, idle
  // until FIN otherwise, copies chunks too.
  return ctx.fin_seen || coop_send(eng_, ctx);
}

void KnemBackend::send_fin(SendCtx& ctx) {
  if (ctx.knem_cookie != 0) {
    eng_.knem_device().release(ctx.knem_cookie);
    ctx.knem_cookie = 0;
  }
}

void KnemBackend::recv_init(RecvCtx& ctx) {
  // Decide the copy engine now (receive-command flags, §3.3): the receiver
  // knows its own core, so the DMAmin policy is evaluated here.
  int my_core = eng_.world().core_of(eng_.rank());
  ctx.rts.knem_flags = eng_.policy().knem_flags(
      ctx.total, my_core, eng_.world().config().knem_mode);
}

bool KnemBackend::recv_progress(RecvCtx& ctx) {
  knem::Device& dev = eng_.knem_device();
  const std::uint64_t cookie = ctx.rts.knem_cookie;
  if (ctx.coop) return dev.coop_complete(cookie);
  std::uint32_t flags = ctx.rts.knem_flags;

  if (flags == 0) {
    // CPU copy on this (receiver) core, split with the sender's core when
    // the message is large enough.
    auto r = dev.resolve(cookie);
    NEMO_ASSERT_MSG(r.has_value(), to_string(knem::KnemResult::kBadCookie));
    NEMO_ASSERT_MSG(total_bytes(ctx.segs) >= r->total,
                    to_string(knem::KnemResult::kTruncated));
    dev.note_recv(r->total);
    return coop_recv(eng_, ctx, *r);
  }

  // The DMA and kernel-thread modes keep the paper's offload: the copy
  // stays off both cores, so the sender is told not to join.
  if (!ctx.async_submitted) {
    dev.coop_decline(cookie);
    eng_.counters().lmt_coop_declined++;
  }
  bool dma = (flags & knem::kFlagDma) != 0;
  if ((flags & knem::kFlagAsync) == 0) {
    // Synchronous I/OAT mode: DMA-submitted and polled before returning.
    knem::KnemResult res =
        dev.recv_sync(cookie, ctx.segs, flags, &eng_.dma_channel());
    NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
    return true;
  }

  if (!ctx.async_submitted) {
    // Asynchronous: queue on the DMA engine (kFlagDma) or on the kernel-
    // thread channel pinned to this core (the competing-copy model of §3.4).
    shm::DmaEngine& engine =
        dma ? eng_.dma_channel() : eng_.kthread_channel();
    knem::KnemResult res =
        dev.recv_async(cookie, ctx.segs, flags, engine, &ctx.async_status);
    NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
    ctx.async_submitted = true;
    return false;
  }
  // Poll the status byte the engine writes in order, behind the payload.
  if (ctx.async_status ==
      static_cast<std::uint8_t>(shm::DmaStatus::kSuccess)) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return true;
  }
  return false;
}

std::unique_ptr<Backend> make_backend(LmtKind kind, core::Engine& eng) {
  switch (kind) {
    case LmtKind::kDefaultShm:
      return std::make_unique<ShmCopyBackend>(eng);
    case LmtKind::kVmsplice:
      return std::make_unique<VmspliceBackend>(eng, /*use_writev=*/false);
    case LmtKind::kVmspliceWritev:
      return std::make_unique<VmspliceBackend>(eng, /*use_writev=*/true);
    case LmtKind::kKnem:
      return std::make_unique<KnemBackend>(eng);
    case LmtKind::kCma:
      return std::make_unique<CmaBackend>(eng);
    case LmtKind::kAuto:
      break;
  }
  NEMO_ASSERT_MSG(false, "kAuto must be resolved before backend creation");
  return nullptr;
}

}  // namespace nemo::lmt
