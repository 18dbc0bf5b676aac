#ifndef TRANSFW_SIM_TASK_POOL_HPP
#define TRANSFW_SIM_TASK_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace transfw::sim {

/**
 * Fixed-size worker-thread pool for coarse-grained jobs — one job is
 * one complete, independent, single-threaded simulation instance.
 * Simulation code itself stays untouched by threading: determinism
 * lives inside each instance, the pool only decides which core runs
 * which instance (the MGPUSim model of sweep parallelism).
 */
class TaskPool
{
  public:
    /** @p threads is clamped to at least 1. */
    explicit TaskPool(unsigned threads);

    /** Joins the workers after draining remaining jobs. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Enqueue @p job for execution on some worker. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Parallelism for this machine/process: the TRANSFW_JOBS
     * environment variable when set (positive), else the larger of
     * std::thread::hardware_concurrency() and (on POSIX)
     * sysconf(_SC_NPROCESSORS_ONLN) — hardware_concurrency() may
     * legally return 0, and under some container runtimes reports 1
     * on many-core hosts, silently degrading sweeps to serial.
     */
    static unsigned defaultThreads();

    /**
     * TRANSFW_JOBS when set, else 0; a value that is not a positive
     * integer is fatal.
     */
    static unsigned envThreads();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable workCv_; ///< signals workers: job or stop
    std::condition_variable idleCv_; ///< signals wait(): all done
    std::deque<std::function<void()>> jobs_;
    std::size_t unfinished_ = 0; ///< queued + running jobs
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_TASK_POOL_HPP
