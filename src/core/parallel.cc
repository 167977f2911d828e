#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/experiment.hh" // parallelJobsFromEnv

namespace reqobs::core {

namespace {

/**
 * Persistent worker pool shared by every parallel harness call in the
 * process. The original implementation spawned and joined a fresh
 * std::thread set per runExperimentsParallel call; figure sweeps issue
 * many short batches back-to-back, and on those the clone/join cost per
 * call ate the entire parallel win (the sweep bench measured ~1.0x).
 * Threads are created lazily, grow to the largest worker count ever
 * requested, and block on a condition variable between batches, so
 * batch N+1 reuses batch N's warm threads. A batch narrower than the
 * pool is joined by only as many threads as it asked for.
 */
class WorkerPool
{
public:
    static WorkerPool &instance()
    {
        static WorkerPool pool;
        return pool;
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * True on a pool thread, and on a caller while it drains its own
     * batch. A nested parallel call must run inline there instead of
     * publishing a second batch: the pool has one batch slot, and the
     * outer batch's unfinished jobs would deadlock against the inner
     * caller's wait.
     */
    static bool inWorker() { return inWorker_; }

    /**
     * Run fn(0) .. fn(jobs-1) across @p workers threads, the calling
     * thread included, and return once every index has completed.
     * Indices are claimed from a shared atomic counter, so any thread
     * may run any index; callers must make fn(i) independent of
     * execution order (each experiment owns its whole simulation).
     */
    void run(std::size_t jobs, unsigned workers,
             const std::function<void(std::size_t)> &fn)
    {
        auto batch = std::make_shared<Batch>();
        batch->fn = &fn;
        batch->jobs = jobs;
        batch->workers = workers;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The caller participates, so the pool itself only ever
            // needs workers-1 threads for a workers-wide batch.
            while (threads_.size() + 1 < workers) {
                const std::size_t index = threads_.size();
                threads_.emplace_back([this, index] { workerLoop(index); });
            }
            batch_ = batch;
            ++gen_;
            workCv_.notify_all();
        }
        inWorker_ = true;
        drainAndSignal(*batch);
        inWorker_ = false;
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] {
            return batch->done.load(std::memory_order_acquire) == jobs;
        });
    }

private:
    struct Batch
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t jobs = 0;
        unsigned workers = 0; ///< participants, the caller included
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
    };

    WorkerPool() = default;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
            workCv_.notify_all();
        }
        for (auto &t : threads_)
            t.join();
    }

    void drainAndSignal(Batch &b)
    {
        for (;;) {
            const std::size_t i =
                b.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= b.jobs)
                return;
            (*b.fn)(i);
            if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                b.jobs) {
                // Last job in: wake the batch owner. Taking the lock
                // orders this notify after the owner enters its wait,
                // closing the lost-wakeup window.
                std::lock_guard<std::mutex> lock(mu_);
                doneCv_.notify_all();
            }
        }
    }

    /**
     * Pool thread @p index is participant index + 1 (the caller is
     * participant 0), so it joins only batches at least that wide.
     */
    void workerLoop(std::size_t index)
    {
        inWorker_ = true;
        std::uint64_t seen = 0;
        std::shared_ptr<Batch> b;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                workCv_.wait(lock,
                             [&] { return stop_ || gen_ != seen; });
                if (stop_)
                    return;
                seen = gen_;
                if (index + 1 < batch_->workers)
                    b = batch_;
            }
            if (!b)
                continue;
            // A stale or already-drained batch claims next >= jobs on
            // the first try and falls straight back to the wait; fn is
            // never dereferenced after its batch completed.
            drainAndSignal(*b);
            b.reset();
        }
    }

    static thread_local bool inWorker_;

    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> threads_;
    std::shared_ptr<Batch> batch_;
    std::uint64_t gen_ = 0;
    bool stop_ = false;
};

thread_local bool WorkerPool::inWorker_ = false;

} // namespace

unsigned
resolveWorkerCount(unsigned requested, std::size_t jobs)
{
    unsigned n = requested;
    if (n == 0)
        n = parallelJobsFromEnv();
    if (n == 0)
        n = std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    return static_cast<unsigned>(
        std::min<std::size_t>(n, std::max<std::size_t>(jobs, 1)));
}

void
poolRun(std::size_t jobs, unsigned threads,
        const std::function<void(std::size_t)> &fn)
{
    const unsigned workers = resolveWorkerCount(threads, jobs);
    if (workers <= 1 || WorkerPool::inWorker()) {
        for (std::size_t i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    WorkerPool::instance().run(jobs, workers, fn);
}

} // namespace reqobs::core
