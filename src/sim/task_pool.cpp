#include "sim/task_pool.hpp"

#include <cstdlib>
#include <string>

#include "sim/logging.hpp"
#include "sim/parse.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace transfw::sim {

TaskPool::TaskPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
TaskPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(std::move(job));
        ++unfinished_;
    }
    workCv_.notify_one();
}

void
TaskPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock, [this] { return unfinished_ == 0; });
}

void
TaskPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock,
                         [this] { return stop_ || !jobs_.empty(); });
            if (jobs_.empty())
                return; // stop_ set and queue drained
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--unfinished_ == 0)
                idleCv_.notify_all();
        }
    }
}

unsigned
TaskPool::envThreads()
{
    const char *env = std::getenv("TRANSFW_JOBS");
    if (!env)
        return 0;
    std::optional<unsigned> v = parseToken<unsigned>(env);
    if (!v || *v == 0)
        fatal(std::string("TRANSFW_JOBS must be a positive integer, not '") +
              env + "'");
    return *v;
}

unsigned
TaskPool::defaultThreads()
{
    if (unsigned env = envThreads())
        return env;
    unsigned hw = std::thread::hardware_concurrency();
#ifdef __unix__
    // hardware_concurrency() is allowed to return 0, and in some
    // containers/cgroup setups reports 1 on many-core hosts (observed
    // here: BENCH_core.json shipped with hardware_threads=1 and the
    // "parallel" sweep silently ran serial). sysconf sees the CPUs the
    // process can actually schedule on; trust whichever is larger.
    long online = sysconf(_SC_NPROCESSORS_ONLN);
    if (online > 0 && static_cast<unsigned>(online) > hw)
        hw = static_cast<unsigned>(online);
#endif
    return hw ? hw : 1;
}

} // namespace transfw::sim
