// Process-wide worker pool for morsel-driven intra-query parallelism
// (docs/PARALLELISM.md).  NUMA-oblivious and fixed-size: a set of plain
// threads created on first use, shared by every query in the process.
//
// Two pieces:
//
//  * Admission (`Admit`): a query operator asks for `want` lanes and gets
//    an RAII Lease for what the pool can spare right now.  Lane 0 is
//    always the calling thread, so a lease is never smaller than 1 — when
//    the pool is saturated (many concurrent queries, the server's
//    admission problem) the operator degrades to serial execution instead
//    of queueing, and the `parallel.shed` counter records the downgrade.
//    This is the same shed-don't-queue posture the network server takes
//    at its session cap.
//
//  * Fan-out (`ParallelFor`): runs fn(lane) for every lane of a lease.
//    The caller runs lane 0 itself; the remaining lanes are claimed off a
//    shared atomic counter by pool workers *and* by the caller once its
//    own lane finishes.  Because any unclaimed lane can always be taken
//    by the caller, fan-out never waits on pool capacity — a saturated or
//    busy pool just means the caller does more of the work itself, and
//    nested ParallelFor calls (an operator inside a worker lane) cannot
//    deadlock.
//
// fn must report failure through out-of-band state (per-lane Status
// slots), never by throwing.

#ifndef MRA_PARALLEL_WORKER_POOL_H_
#define MRA_PARALLEL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mra {
namespace parallel {

class WorkerPool {
 public:
  /// The process-wide pool.  Threads are created on demand — when a
  /// fan-out finds fewer idle workers than helper lanes — and joined at
  /// process exit.
  static WorkerPool& Global();

  /// Reserved pool lanes, returned on destruction.  Movable, not
  /// copyable; `lanes()` counts the calling thread's lane 0, so it is
  /// always >= 1.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      Reset();
      pool_ = other.pool_;
      extra_ = other.extra_;
      other.pool_ = nullptr;
      other.extra_ = 0;
      return *this;
    }
    ~Lease() { Reset(); }

    /// Total lanes including the caller's own: 1 + reserved pool lanes.
    size_t lanes() const { return 1 + extra_; }

   private:
    friend class WorkerPool;
    Lease(WorkerPool* pool, size_t extra) : pool_(pool), extra_(extra) {}
    void Reset();

    WorkerPool* pool_ = nullptr;
    size_t extra_ = 0;
  };

  /// Reserves up to `want - 1` pool lanes (the caller is the first lane).
  /// `want` <= 1 — and a saturated pool — yields a serial lease of one
  /// lane; the saturated case also bumps `parallel.shed`.
  Lease Admit(size_t want);

  /// Runs fn(0) … fn(lease.lanes() - 1), lane 0 on the calling thread,
  /// and returns when every lane has finished.  Safe to call from inside
  /// a worker lane (nested fan-out degrades gracefully, see above).
  void ParallelFor(const Lease& lease, const std::function<void(size_t)>& fn);

  /// Fixed thread capacity (hardware concurrency, at least 2).
  size_t capacity() const { return capacity_; }

  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool();

  struct Task {
    explicit Task(size_t lanes, const std::function<void(size_t)>* fn)
        : lanes(lanes), fn(fn) {}
    const size_t lanes;
    const std::function<void(size_t)>* const fn;
    std::atomic<size_t> next_lane{1};  // Lane 0 belongs to the caller.
    std::mutex mu;
    std::condition_variable done_cv;
    size_t finished = 0;  // Guarded by mu; lanes run to completion.
  };

  /// Claims and runs lanes of `task` until none are left; returns the
  /// number of lanes this thread ran.
  static size_t RunLanes(Task& task);
  /// Counts `ran` helper lanes as finished, waking the caller at the last.
  static void ReportLanes(Task& task, size_t ran);

  void WorkerLoop();

  const size_t capacity_;
  std::atomic<size_t> reserved_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  std::vector<std::thread> threads_;  // Guarded by mu_ (growth only).
  size_t busy_ = 0;                   // Workers running lanes; mu_.
  bool stopping_ = false;
};

}  // namespace parallel
}  // namespace mra

#endif  // MRA_PARALLEL_WORKER_POOL_H_
