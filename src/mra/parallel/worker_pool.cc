#include "mra/parallel/worker_pool.h"

#include <algorithm>

#include "mra/obs/metrics.h"

namespace mra {
namespace parallel {

namespace {

obs::Counter* TasksTotal() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("parallel.tasks_total");
  return c;
}

obs::Counter* ShedTotal() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("parallel.shed_total");
  return c;
}

obs::Gauge* ReservedLanes() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("parallel.reserved_lanes");
  return g;
}

}  // namespace

WorkerPool& WorkerPool::Global() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::WorkerPool()
    : capacity_(std::max<size_t>(2, std::thread::hardware_concurrency())) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Lease::Reset() {
  if (pool_ != nullptr && extra_ > 0) {
    pool_->reserved_.fetch_sub(extra_, std::memory_order_relaxed);
    ReservedLanes()->Add(-static_cast<int64_t>(extra_));
  }
  pool_ = nullptr;
  extra_ = 0;
}

WorkerPool::Lease WorkerPool::Admit(size_t want) {
  want = std::min(want, capacity_);
  if (want <= 1) return Lease(this, 0);
  size_t ask = want - 1;  // Lane 0 is the caller's own thread.
  size_t granted = 0;
  size_t reserved = reserved_.load(std::memory_order_relaxed);
  while (true) {
    size_t free = reserved < capacity_ ? capacity_ - reserved : 0;
    granted = std::min(ask, free);
    if (granted == 0) break;
    if (reserved_.compare_exchange_weak(reserved, reserved + granted,
                                        std::memory_order_relaxed)) {
      break;
    }
    // CAS failure reloaded `reserved`; recompute against the new value.
  }
  if (granted == 0) {
    // Saturated: run serial rather than queue behind other queries — the
    // same shed posture the server takes at its session cap.
    ShedTotal()->Inc();
    return Lease(this, 0);
  }
  ReservedLanes()->Add(static_cast<int64_t>(granted));
  return Lease(this, granted);
}

size_t WorkerPool::RunLanes(Task& task) {
  size_t ran = 0;
  while (true) {
    size_t lane = task.next_lane.fetch_add(1, std::memory_order_relaxed);
    if (lane >= task.lanes) break;
    (*task.fn)(lane);
    ++ran;
  }
  return ran;
}

void WorkerPool::ReportLanes(Task& task, size_t ran) {
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(task.mu);
  task.finished += ran;
  if (task.finished == task.lanes - 1) task.done_cv.notify_all();
}

void WorkerPool::ParallelFor(const Lease& lease,
                             const std::function<void(size_t)>& fn) {
  size_t lanes = lease.lanes();
  if (lanes <= 1) {
    fn(0);
    return;
  }
  TasksTotal()->Inc();
  auto task = std::make_shared<Task>(lanes, &fn);
  const size_t helpers = lanes - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One queue entry per helper lane; a worker that drains the claim
    // counter early just drops its entry.
    for (size_t i = 0; i < helpers; ++i) queue_.push_back(task);
    // Threads start on demand: only when fewer workers are free than
    // helper lanes.  Back-to-back phases then reuse the same threads, and
    // their allocator arenas, instead of spreading a query's allocations
    // over one thread per lane ever reserved.
    const size_t free = threads_.size() - busy_;
    size_t spawn = helpers > free ? helpers - free : 0;
    spawn = std::min(spawn, capacity_ - threads_.size());
    for (size_t i = 0; i < spawn; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  for (size_t i = 0; i < helpers; ++i) work_cv_.notify_one();

  fn(0);
  // Help with (or, when every worker is busy elsewhere, simply run) the
  // unclaimed lanes.  Every lane is claimable by this thread, which is
  // what makes fan-out deadlock-free under nesting and saturation.
  ReportLanes(*task, RunLanes(*task));

  std::unique_lock<std::mutex> lock(task->mu);
  task->done_cv.wait(lock,
                     [&] { return task->finished == task->lanes - 1; });
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    size_t ran = RunLanes(*task);
    {
      // Free again before the caller can see the lanes finish, so its
      // next fan-out finds this thread instead of starting another.
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
    }
    ReportLanes(*task, ran);
  }
}

}  // namespace parallel
}  // namespace mra
