/**
 * @file
 * Process-wide worker pool shared by every parallel harness.
 *
 * runExperimentsParallel and runClusterExperimentsParallel fan
 * independent experiments out over the single persistent pool defined
 * here, so the process observes one thread budget (REQOBS_JOBS) no
 * matter which harness went parallel. A nested call (a sweep launched
 * from inside a pool job) runs inline on the job's thread instead of
 * deadlocking on the pool's single batch slot.
 */

#ifndef REQOBS_CORE_PARALLEL_HH
#define REQOBS_CORE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace reqobs::core {

/**
 * Worker-count resolution shared by all parallel entry points:
 * @p requested if nonzero, else REQOBS_JOBS / REQOBS_THREADS from the
 * environment, else hardware concurrency — clamped to @p jobs.
 */
unsigned resolveWorkerCount(unsigned requested, std::size_t jobs);

/**
 * Run fn(0) .. fn(jobs-1) and return once every index has completed.
 * The worker count is resolveWorkerCount(@p threads, @p jobs), the
 * calling thread included, and no more threads than that take part.
 * When that count is 1, or the caller is itself running a pool job, the
 * indices run inline on the calling thread in order. Otherwise indices
 * are claimed from a shared atomic counter, so any participating thread
 * may run any index; callers must make fn(i) independent of execution
 * order. The pool's batch hand-off (mutex + condition variable)
 * establishes happens-before between everything written by the workers
 * during the batch and the caller after return.
 */
void poolRun(std::size_t jobs, unsigned threads,
             const std::function<void(std::size_t)> &fn);

} // namespace reqobs::core

#endif // REQOBS_CORE_PARALLEL_HH
