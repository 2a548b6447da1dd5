#include "shm/dma_engine.hpp"

#include <sched.h>
#include <pthread.h>

#include "common/common.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::shm {

DmaEngine::DmaEngine(Config cfg) : cfg_(cfg) {
  worker_ = std::thread([this] { worker_main(); });
  if (cfg_.pin_core >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cfg_.pin_core, &set);
    // Best effort: containers may forbid affinity; the model degrades to an
    // unpinned worker, which only softens the Fig. 6 competition effect.
    (void)pthread_setaffinity_np(worker_.native_handle(), sizeof(set), &set);
  }
}

DmaEngine::~DmaEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void DmaEngine::submit_copy(RemoteMemPort port, RemoteSegmentList remote,
                            SegmentList local) {
  Job j;
  j.is_status = false;
  j.mode = port.mode();
  j.peer_pid = port.peer_pid();
  j.remote = std::move(remote);
  j.local = std::move(local);
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(j));
  }
  cv_.notify_one();
}

void DmaEngine::submit_status_write(std::uint8_t* status,
                                    DmaStatus value) {
  Job j;
  j.is_status = true;
  j.status = status;
  j.status_value = value;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(j));
  }
  cv_.notify_one();
}

void DmaEngine::submit_copy_with_status(RemoteMemPort port,
                                        RemoteSegmentList remote,
                                        SegmentList local,
                                        std::uint8_t* status) {
  submit_copy(port, std::move(remote), std::move(local));
  submit_status_write(status, DmaStatus::kSuccess);
}

void DmaEngine::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
}

DmaStats DmaEngine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void DmaEngine::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    execute(job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_ = false;
      stats_.jobs++;
      if (job.is_status) {
        stats_.status_writes++;
      } else {
        for (const auto& s : job.remote) stats_.bytes += s.len;
      }
    }
    idle_cv_.notify_all();
  }
}

void DmaEngine::execute(const Job& job) {
  if (job.is_status) {
    // Release so payload stores from prior jobs are visible before Success.
    std::atomic_ref<std::uint8_t>(*job.status)
        .store(static_cast<std::uint8_t>(job.status_value),
               std::memory_order_release);
    return;
  }
  RemoteMemPort port(job.mode, job.peer_pid);
  // Slice the descriptor so one multi-MiB copy cannot monopolise the channel
  // ahead of queued status writes from *other* transfers... in-order per the
  // hardware, so no reordering: we only bound the per-iteration chunk to keep
  // cancellation/teardown latency low.
  SegmentCursor lcur(job.local);
  std::size_t roff_seg = 0, roff_in = 0;
  while (!lcur.done() && roff_seg < job.remote.size()) {
    Segment dst = lcur.take(cfg_.chunk);
    std::size_t want = dst.len;
    std::size_t done = 0;
    while (done < want && roff_seg < job.remote.size()) {
      const RemoteSegment& rs = job.remote[roff_seg];
      std::size_t avail = rs.len - roff_in;
      if (avail == 0) {
        ++roff_seg;
        roff_in = 0;
        continue;
      }
      std::size_t n = want - done < avail ? want - done : avail;
      RemoteSegment rpiece{rs.addr + roff_in, n};
      Segment lpiece{dst.base + done, n};
      port.read(std::span<const RemoteSegment>(&rpiece, 1),
                std::span<const Segment>(&lpiece, 1),
                cfg_.use_nt && port.mode() == RemoteMode::kDirect);
      roff_in += n;
      done += n;
    }
  }
}

}  // namespace nemo::shm
