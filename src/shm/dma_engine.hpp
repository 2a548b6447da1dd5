// Software model of an I/OAT DMA engine channel (paper §3.3-3.4).
//
// A channel executes copy descriptors IN ORDER on a dedicated worker thread.
// The three properties the paper's design depends on are reproduced:
//   1. the submitting CPU is free once the descriptor is queued;
//   2. the copy does not fill the submitting core's cache (non-temporal
//      stores when the source is directly addressable);
//   3. there is no completion interrupt — completion is observed by queueing
//      a trailing 1-byte status write *behind* the payload copy and polling
//      the status variable from user space (Figure 2's trick, literally).
//
// The same class doubles as KNEM's non-I/OAT "kernel thread" offload when
// constructed with use_nt=false and pinned to the receiving core: the copy
// then competes with the application for that core, which is exactly the
// effect Figure 6 measures.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/iovec.hpp"
#include "shm/remote_mem.hpp"

namespace nemo::shm {

/// Completion status values (mirrors KNEM's status byte protocol).
enum class DmaStatus : std::uint8_t {
  kPending = 0,
  kSuccess = 1,
  kFailed = 2,
};

/// Acquire-load of a status byte the engine writes: a poller that reads
/// kSuccess also sees every byte the jobs queued before it copied.
[[nodiscard]] inline DmaStatus load_status(std::uint8_t& status) {
  return static_cast<DmaStatus>(
      std::atomic_ref<std::uint8_t>(status).load(std::memory_order_acquire));
}

struct DmaStats {
  std::uint64_t jobs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t status_writes = 0;
};

class DmaEngine {
 public:
  struct Config {
    bool use_nt = true;      ///< Non-temporal stores for directly-mapped srcs.
    int pin_core = -1;       ///< sched_setaffinity target; -1 = unpinned.
    std::size_t chunk = 256 * KiB;  ///< Max bytes per descriptor execution
                                    ///< slice (models I/OAT per-descriptor
                                    ///< granularity; keeps FIFO latency low).
  };

  DmaEngine() : DmaEngine(Config{}) {}
  explicit DmaEngine(Config cfg);
  ~DmaEngine();
  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Queue a gather copy: remote -> local through `port`. Non-blocking.
  void submit_copy(RemoteMemPort port, RemoteSegmentList remote,
                   SegmentList local);

  /// Queue a single-byte status write, executed strictly after everything
  /// already queued (the in-order completion-notification trick).
  void submit_status_write(std::uint8_t* status, DmaStatus value);

  /// Convenience: copy followed by trailing status write.
  void submit_copy_with_status(RemoteMemPort port, RemoteSegmentList remote,
                               SegmentList local, std::uint8_t* status);

  /// Block until the queue is empty and the worker is idle.
  void drain();

  [[nodiscard]] DmaStats stats() const;
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct Job {
    bool is_status = false;
    RemoteMode mode = RemoteMode::kDirect;
    pid_t peer_pid = 0;
    RemoteSegmentList remote;
    SegmentList local;
    std::uint8_t* status = nullptr;
    DmaStatus status_value = DmaStatus::kSuccess;
  };

  void worker_main();
  void execute(const Job& job);

  Config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  bool stop_ = false;
  bool busy_ = false;
  DmaStats stats_;
  std::thread worker_;
};

}  // namespace nemo::shm
