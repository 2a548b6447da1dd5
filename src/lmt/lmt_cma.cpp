// CMA backend: single-copy large-message transfer via cross-memory attach
// (process_vm_readv), the mainline kernel's descendant of the paper's KNEM
// module. The handshake reuses the arena-resident cookie table — the sender
// declares its segments and ships the cookie id in the RTS; the receiver
// resolves it to (pid, iovec) and pulls the payload with one kernel-mediated
// copy. Like KNEM the flow is receiver-driven with a FIN releasing the
// cookie. Large messages split that one copy with the sender's core
// (coop_recv/coop_send: the sender writes with process_vm_writev). When the
// CMA syscalls fail at transfer time (EPERM under Yama ptrace_scope /
// seccomp, ENOSYS on old kernels) the transfer degrades to a sender-staged
// copy through the arena instead of failing.
#include <cerrno>
#include <cstring>

#include "core/comm.hpp"
#include "lmt/backends.hpp"

namespace nemo::lmt {

void CmaBackend::send_init(SendCtx& ctx) {
  ctx.knem_cookie = eng_.knem_device().submit_send(
      std::span<const ConstSegment>(ctx.segs));
  ctx.rts.kind = static_cast<std::uint32_t>(LmtKind::kCma);
  ctx.rts.total = ctx.total;
  ctx.rts.knem_cookie = ctx.knem_cookie;
  ctx.rts.nsegs = static_cast<std::uint32_t>(ctx.segs.size());
  int core = eng_.world().core_of(eng_.rank());
  ctx.rts.sender_core = core >= 0 ? static_cast<std::uint32_t>(core) : 0;
}

bool CmaBackend::send_progress(SendCtx& ctx) {
  // Data motion is receiver-driven; the sender copies the chunks of an
  // offered split, and watches the cookie slot for a staging request (the
  // receiver's CMA syscalls failed) to fulfil — the sender can always read
  // its own pages.
  if (ctx.fin_seen) return true;
  coop_send(eng_, ctx);
  return eng_.knem_device().try_fulfill_stage(
      ctx.knem_cookie, std::span<const ConstSegment>(ctx.segs));
}

void CmaBackend::send_fin(SendCtx& ctx) {
  if (ctx.knem_cookie != 0) {
    eng_.knem_device().release(ctx.knem_cookie);
    ctx.knem_cookie = 0;
  }
}

void CmaBackend::recv_init(RecvCtx&) {
  // No receive-command flags: the receiving core always drives the copy
  // (CMA has no DMA or kernel-thread variant).
}

bool CmaBackend::recv_progress(RecvCtx& ctx) {
  knem::Device& dev = eng_.knem_device();
  if (ctx.coop) return dev.coop_complete(ctx.rts.knem_cookie);
  // async_submitted doubles as "staging fallback requested"; ring_cursor
  // holds the staging buffer's arena offset.
  if (!ctx.async_submitted) {
    auto r = dev.resolve(ctx.rts.knem_cookie);
    NEMO_ASSERT_MSG(r.has_value(), "stale CMA cookie");
    std::size_t cap = 0;
    for (const auto& seg : ctx.segs) cap += seg.len;
    NEMO_ASSERT_MSG(cap >= r->total, "CMA receive buffer too small");

    bool sim_fail = eng_.world().config().cma_sim_fail;
    if (!sim_fail) {
      try {
        bool done = coop_recv(eng_, ctx, *r);
        dev.note_cma_read(r->total);
        return done;
      } catch (const SysError& e) {
        // (A dead sender's ESRCH already surfaced from coop_recv as a
        // PeerDeadError: staging would wait forever on it.)
        int err = e.sys_errno();
        if (err != EPERM && err != ENOSYS) throw;
        // Kernel refused the attach: degrade to the staged path below. An
        // offered split may be part-copied; the stage rewrites every byte.
      }
    } else {
      dev.coop_decline(ctx.rts.knem_cookie);
      eng_.counters().lmt_coop_declined++;
    }
    std::uint64_t off = dev.request_stage(ctx.rts.knem_cookie);
    NEMO_ASSERT_MSG(off != shm::kNil, "stale CMA cookie on stage request");
    ctx.ring_cursor = off;
    ctx.async_submitted = true;
    return false;
  }

  if (!dev.stage_ready(ctx.rts.knem_cookie)) return false;
  // Second copy of the degraded path: out of the arena stage into the
  // posted receive segments.
  const std::byte* src = eng_.world().arena().at(ctx.ring_cursor);
  std::size_t left = ctx.total;
  for (const auto& seg : ctx.segs) {
    if (left == 0) break;
    std::size_t n = seg.len < left ? seg.len : left;
    std::memcpy(seg.base, src, n);
    src += n;
    left -= n;
  }
  return true;
}

}  // namespace nemo::lmt
