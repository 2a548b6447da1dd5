// KNEM pseudo-device: a user-space reimplementation of the KNEM kernel
// module's command interface (paper §3.2-3.4, Figure 1).
//
//   send command:    declare a (possibly vectorial) send buffer; the device
//                    records its virtual segments, accounts the page pinning,
//                    and returns a COOKIE id. The cookie travels to the
//                    receiver through the normal rendezvous handshake.
//   receive command: hand the device a cookie + a local buffer; the device
//                    moves the data with a single copy. Flags select the
//                    copy engine (CPU vs DMA) and completion model (inline
//                    vs status-byte polled), exactly as in the paper:
//                      kFlagDma   -> I/OAT-like engine (non-temporal, no
//                                    cache fill, background channel)
//                      kFlagAsync -> return immediately; completion = the
//                                    engine's trailing 1-byte status write.
//
// The cookie table lives in the shared arena so every rank (thread or forked
// process) sees the same registry — standing in for kernel memory. Where the
// real module reads the sender's pages via its kernel mapping, we read them
// directly when they are shared (same address space or arena pages) and via
// cross-memory attach otherwise.
//
// Cooperative copy: a CPU-copy receive leaves the sender's core idle in
// send() until FIN. For large messages the receiver instead offers a split
// in the cookie slot (its destination segments and how the sender can reach
// them); both cores then claim kCoopChunk byte ranges from one atomic cursor
// and copy them, the receiver reading and the sender writing. Still one
// copy of every byte, so the paper's copy and cache-line counts hold.
#pragma once

#include <cstdint>
#include <optional>

#include "common/iovec.hpp"
#include "shm/arena.hpp"
#include "shm/dma_engine.hpp"
#include "shm/remote_mem.hpp"

namespace nemo::knem {

inline constexpr std::uint32_t kFlagDma = 1u << 0;
inline constexpr std::uint32_t kFlagAsync = 1u << 1;

inline constexpr std::uint32_t kInlineSegs = 16;
inline constexpr std::uint32_t kBlockSegs = 30;

// Cooperative-copy geometry, from a 2-rank threads-mode KNEM pingpong
// sweep (fig4 real block, contiguous arena buffers, 4-core Xeon VM; MiB/s,
// median of 3-4 runs; the receiver-only copy ran 6-9k at every size):
//
//   chunk \ msg   256K    512K     1M     4M     8M
//     32 KiB    10.5k   14.4k  15.8k  16.0k  16.1k
//     64 KiB    15.2k   14.1k  17.5k  16.1k  16.7k
//    128 KiB    11.6k   15.3k  18.5k  16.9k  17.0k
//    256 KiB     6.6k   11.8k  18.9k  17.7k  17.5k
//    512 KiB     6.6k    7.6k  13.7k  17.2k  15.9k
//
// 128 KiB holds the best or near-best median from 512 KiB up, where large
// traffic lives; a chunk of half the message or more leaves the sender
// nothing to claim. A 128 KiB message split in 64 KiB chunks did run
// faster (9-11k vs 6-7k), but kCoopMin keeps the eager and medium classes
// (<= 128 KiB) receiver-only so their latency path stays the paper's.
inline constexpr std::uint64_t kCoopMin = 256 * KiB;   ///< Smallest split.
inline constexpr std::uint64_t kCoopChunk = 128 * KiB; ///< Claim unit.

/// CookieSlot::coop_state values, published by the receiver.
inline constexpr std::uint64_t kCoopPending = 0;   ///< Not yet decided.
inline constexpr std::uint64_t kCoopOffered = 1;   ///< Sender may claim.
inline constexpr std::uint64_t kCoopDeclined = 2;  ///< Receiver copies alone.

/// How the sender reaches an offered destination.
enum class CoopReach : std::uint32_t {
  kSamePid = 0,  ///< Same address space: raw addresses.
  kArena = 1,    ///< Arena-resident: rebase from the receiver's mapping.
  kCma = 2,      ///< Private memory of coop_pid: process_vm_writev.
};

/// Extension block for cookies with more than kInlineSegs segments.
struct SegBlock {
  std::uint64_t next;  ///< Offset of next block or kNil.
  std::uint32_t nsegs;
  std::uint32_t pad;
  shm::RemoteSegment segs[kBlockSegs];
};

struct CookieSlot {
  std::uint64_t state;    ///< 0 free, 1 claimed (atomic).
  std::uint64_t id;       ///< Generation-stamped id (0 = invalid).
  std::int32_t owner_pid;
  std::uint32_t owner_rank;
  std::uint32_t nsegs;    ///< Total segments.
  std::uint32_t flags;
  std::uint64_t total_bytes;
  std::uint64_t pinned_pages;
  /// Sender's virtual base address of the shared arena. Forked ranks map the
  /// arena at per-process bases, so arena-resident segments must be rebased
  /// (addr - owner_arena_base + local base) before they are dereferenced.
  std::uint64_t owner_arena_base;
  /// CMA staging fallback (atomic): 0 unused, 1 receiver requested a staged
  /// copy (stage_off published), 2 sender finished copying into the stage.
  std::uint64_t stage_state;
  /// Arena offset and power-of-two capacity of this slot's staging buffer.
  /// Both outlive the cookie: the bump arena cannot free, so the next
  /// cookie in the slot reuses the buffer whenever it is large enough.
  std::uint64_t stage_off;
  std::uint64_t stage_cap;
  shm::RemoteSegment inline_segs[kInlineSegs];
  std::uint64_t more;     ///< First SegBlock offset or kNil.
  // Cooperative copy (see Device::coop_offer). The receiver writes the
  // destination words, then release-stores coop_state.
  std::uint64_t coop_state;  ///< Atomic kCoop* value.
  std::uint64_t coop_next;   ///< Atomic: first unclaimed message byte.
  std::uint64_t coop_done;   ///< Atomic: bytes landed by either side.
  std::uint64_t coop_base;   ///< Receiver's arena base (kArena reach).
  std::int32_t coop_pid;     ///< Receiver's pid (kCma reach).
  std::uint32_t coop_reach;  ///< CoopReach.
  std::uint32_t coop_nsegs;
  std::uint32_t coop_pad;
  shm::RemoteSegment coop_segs[kInlineSegs];  ///< Receiver's destination.
};

struct DeviceStats {
  std::uint64_t send_cmds;
  std::uint64_t recv_cmds;
  std::uint64_t dma_recv_cmds;
  std::uint64_t async_recv_cmds;
  std::uint64_t bytes_copied;
  std::uint64_t pages_pinned;   ///< Cumulative.
  std::uint64_t cookie_leaks;   ///< Releases of stale ids (diagnostic).
  std::uint64_t cma_read_cmds;  ///< CMA-backend receives (single copy).
  std::uint64_t cma_bytes;      ///< Bytes moved by those single copies.
  std::uint64_t cma_stage_fallbacks;  ///< Transfers downgraded to staging.
  std::uint64_t cma_stage_bytes;      ///< Bytes moved through the stage.
  std::uint64_t coop_offers;          ///< Receives split with the sender.
  std::uint64_t coop_sender_bytes;    ///< Bytes the senders copied.
  std::uint64_t coop_receiver_bytes;  ///< Bytes the receivers copied.
};

struct DeviceState {
  std::uint32_t nslots;
  std::uint32_t nblocks;
  std::uint64_t gen;        ///< Atomic generation counter.
  std::uint64_t slots_off;
  std::uint64_t blocks_off;
  std::uint64_t block_free; ///< Spinlock-protected freelist head (offset).
  std::uint32_t block_lock; ///< Spinlock word.
  std::uint32_t pad;
  DeviceStats stats;        ///< Updated with atomics.
};

/// Error results from recv-side command validation.
enum class KnemResult {
  kOk,
  kBadCookie,       ///< Unknown/stale cookie id.
  kTruncated,       ///< Receive buffer smaller than declared send buffer.
};

const char* to_string(KnemResult r);

class Device {
 public:
  /// Allocate + initialise device state in the arena. `nslots` bounds the
  /// number of in-flight send declarations; `nblocks` bounds total extension
  /// blocks for highly-fragmented (vectorial) buffers.
  static std::uint64_t create(shm::Arena& arena, std::uint32_t nslots = 256,
                              std::uint32_t nblocks = 256);

  Device(shm::Arena& arena, std::uint64_t state_off, int my_rank,
         pid_t my_pid);

  /// SEND COMMAND — declare the buffer, get a cookie id (nonzero).
  /// Accounts pinning of every page the segments touch.
  std::uint64_t submit_send(std::span<const ConstSegment> segs);

  /// Release a cookie (after the receiver's FIN). Safe on stale ids
  /// (counted in stats as leaks).
  void release(std::uint64_t cookie_id);

  struct Resolved {
    pid_t pid = 0;
    std::uint32_t owner_rank = 0;
    std::uint64_t total = 0;
    shm::RemoteSegmentList segs;
    shm::RemoteMode mode = shm::RemoteMode::kDirect;
  };

  /// Look up a cookie and decide the copy mode (direct for same-address-
  /// space or arena-resident buffers; CMA otherwise).
  [[nodiscard]] std::optional<Resolved> resolve(std::uint64_t cookie_id) const;

  /// RECEIVE COMMAND, synchronous: returns when the data is in `local`.
  /// With kFlagDma the copy runs on `engine` (completion is polled — the
  /// paper's synchronous I/OAT mode); otherwise the calling thread copies.
  KnemResult recv_sync(std::uint64_t cookie_id,
                       std::span<const Segment> local, std::uint32_t flags,
                       shm::DmaEngine* engine);

  /// RECEIVE COMMAND, asynchronous: queues the copy and the trailing status
  /// write on `engine`; poll `*status` for DmaStatus::kSuccess.
  KnemResult recv_async(std::uint64_t cookie_id, SegmentList local,
                        std::uint32_t flags, shm::DmaEngine& engine,
                        std::uint8_t* status);

  // -- CMA staging fallback (receiver-driven downgrade when the CMA
  //    syscalls fail at transfer time: EPERM from ptrace_scope/seccomp).
  //    The receiver allocates a staging buffer and publishes a request in
  //    the cookie slot; the sender (which can always read its own pages)
  //    copies into it and marks it ready; the receiver copies out. Two
  //    copies, but the transfer still completes. The staging buffer comes
  //    from the bump allocator and is not reclaimed — acceptable for a
  //    should-never-happen path that exists for graceful degradation.

  /// Receiver: request a staged copy. Returns the staging buffer's arena
  /// offset, or shm::kNil for a stale cookie. Idempotent per cookie.
  std::uint64_t request_stage(std::uint64_t cookie_id);

  /// Receiver: true once the sender has filled the staging buffer.
  [[nodiscard]] bool stage_ready(std::uint64_t cookie_id) const;

  /// Sender: if the receiver requested staging on this cookie, copy `segs`
  /// into the stage and mark it ready. Returns true when the stage is
  /// fulfilled (now or previously), false when no request is pending.
  bool try_fulfill_stage(std::uint64_t cookie_id,
                         std::span<const ConstSegment> segs);

  /// Bump the CMA single-copy counters (the CMA backend's data motion does
  /// not go through recv_sync, so it accounts itself).
  void note_cma_read(std::uint64_t bytes);

  /// Count a KNEM CPU-copy receive command whose data moves through the
  /// cooperative calls below instead of recv_sync.
  void note_recv(std::uint64_t bytes);

  // -- Cooperative copy. Receiver: resolve(), then coop_offer(); when it
  //    returns true, coop_copy() and poll coop_complete() before FIN. The
  //    sender polls coop_send() from its progress loop.

  /// Receiver: publish an offer when the message is at least kCoopMin, the
  /// destination (trimmed to the message) has at most kInlineSegs segments
  /// and the sender can reach it: same pid, arena-resident, or `cma_write`.
  /// Otherwise publish kCoopDeclined. Returns true when offered.
  bool coop_offer(std::uint64_t cookie_id, const Resolved& src,
                  std::span<const Segment> dst, bool cma_write);

  /// Receiver: publish kCoopDeclined (DMA and async receives).
  void coop_decline(std::uint64_t cookie_id);

  /// Receiver: claim and copy chunks until none are left; returns the bytes
  /// this side landed.
  std::uint64_t coop_copy(std::uint64_t cookie_id, const Resolved& src,
                          std::span<const Segment> dst);

  /// Receiver: true once both sides' chunks cover the whole message.
  [[nodiscard]] bool coop_complete(std::uint64_t cookie_id) const;

  /// Sender: nullopt while the receiver has not decided; otherwise claims
  /// and copies chunks from `src` until none are left and returns the bytes
  /// it landed (0 when declined, or when a CMA destination refuses this
  /// process). Crash site kLmtCoop sits before each claimed chunk's copy.
  std::optional<std::uint64_t> coop_send(std::uint64_t cookie_id,
                                         std::span<const ConstSegment> src);

  [[nodiscard]] DeviceStats stats() const;
  [[nodiscard]] std::uint32_t slots_in_use() const;

 private:
  CookieSlot* slot_at(std::uint32_t i) const;
  SegBlock* block_at(std::uint64_t off) const;
  std::uint64_t pop_block();
  void push_block(std::uint64_t off);
  void free_chain(CookieSlot* s);
  [[nodiscard]] const CookieSlot* find(std::uint64_t cookie_id) const;

  shm::Arena* arena_;
  DeviceState* st_;
  int rank_;
  pid_t pid_;
};

}  // namespace nemo::knem
