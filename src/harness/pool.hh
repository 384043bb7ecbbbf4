/**
 * @file
 * Fixed-size worker thread pool for the sweep runner. Tasks are
 * plain closures; wait() blocks the submitting thread until every
 * task submitted so far has finished, so a sweep can join its whole
 * grid before rendering results.
 */

#ifndef PERSPECTIVE_HARNESS_POOL_HH
#define PERSPECTIVE_HARNESS_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perspective::harness
{

/**
 * A minimal thread pool. With zero threads requested the pool runs
 * every task inline on the submitting thread, which keeps single-job
 * sweeps free of any threading machinery (and trivially
 * deterministic to debug under).
 */
class ThreadPool
{
  public:
    /** Spin up @p threads workers; 0 means run tasks inline. */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution. */
    void submit(std::function<void()> task);

    /**
     * Block until all submitted tasks have completed. If any task
     * threw, the first exception (in completion order) is rethrown
     * here — the task still counts as completed, so wait() never
     * hangs on a throwing task. Later exceptions of the same batch
     * are dropped.
     */
    void wait();

    unsigned threads() const { return numThreads_; }

    /**
     * Lane of the current thread *in this pool*: the 0-based worker
     * index if the calling thread is one of this pool's workers,
     * else 0 (the inline-mode lane). Lets tasks attribute their
     * runtime to a worker lane; a thread belonging to some other
     * pool reports lane 0, so per-pool accounting stays correct even
     * when pools nest.
     */
    unsigned currentLane() const;

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned defaultThreads();

  private:
    void workerLoop(unsigned worker);

    unsigned numThreads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0; ///< queued + currently running
    bool stopping_ = false;
    std::exception_ptr firstError_; ///< rethrown by wait()
};

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_POOL_HH
