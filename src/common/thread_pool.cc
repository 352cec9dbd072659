#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/request.h"

namespace wsv {

int ResolveJobCount(int jobs) {
  if (jobs > 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  WSV_COUNT1("pool/tasks_submitted");
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(
        QueuedTask{std::move(task), WSV_OBS_NOW(), obs::CurrentRequestId()});
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

size_t ThreadPool::CancelPending() {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = queue_.size();
    queue_.clear();
  }
  WSV_COUNT("pool/tasks_cancelled", dropped);
  idle_cv_.notify_all();
  return dropped;
}

size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    {
      // Attribute the task's metric writes (including the pool's own
      // scheduling metrics) to the request that submitted it. The
      // binding ends, publishing the task's deferred counts, before the
      // task counts as finished, so a waiter's snapshot sees them.
      obs::RequestBinding bind(task.request);
      WSV_COUNT1("pool/tasks_run");
      WSV_HIST("pool/queue_latency_ns", WSV_OBS_NOW() - task.enqueue_ns);
      try {
        task.fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace wsv
