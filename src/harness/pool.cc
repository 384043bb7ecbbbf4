#include "pool.hh"

#include <utility>

namespace perspective::harness
{

namespace
{
/** Worker lane of the current thread; 0 on non-pool threads. */
thread_local unsigned tlsWorker = 0;
/** The pool that owns the current thread; nullptr off-pool. Lets
 * currentLane() tell "worker 3 of *this* pool" apart from "worker 3
 * of whatever pool happens to be running nested code". */
thread_local const ThreadPool *tlsPool = nullptr;
} // namespace

ThreadPool::ThreadPool(unsigned threads) : numThreads_(threads)
{
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

unsigned
ThreadPool::defaultThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned
ThreadPool::currentLane() const
{
    return tlsPool == this ? tlsWorker : 0;
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (numThreads_ == 0) {
        // Inline mode mirrors the pool's contract: the exception is
        // captured here and rethrown by wait(), not thrown through
        // submit(), so callers see one failure model at any width.
        try {
            task();
        } catch (...) {
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    if (numThreads_ == 0) {
        err = std::exchange(firstError_, nullptr);
    } else {
        std::unique_lock<std::mutex> lk(mu_);
        allDone_.wait(lk, [this] { return inFlight_ == 0; });
        err = std::exchange(firstError_, nullptr);
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::workerLoop(unsigned worker)
{
    tlsWorker = worker;
    tlsPool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            taskReady_.wait(
                lk, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // A throwing task must still complete the in-flight count,
        // or wait() hangs forever (and an escaped exception would
        // std::terminate the worker). Capture the first one for
        // wait() to rethrow.
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (err && !firstError_)
                firstError_ = err;
            if (--inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

} // namespace perspective::harness
