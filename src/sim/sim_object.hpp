#ifndef TRANSFW_SIM_SIM_OBJECT_HPP
#define TRANSFW_SIM_SIM_OBJECT_HPP

#include <string>
#include <utility>

#include "sim/event_queue.hpp"

namespace transfw::sim {

/**
 * Base class for every timed simulation component. Provides a
 * hierarchical name (for logging/stats) and access to the shared event
 * queue.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : eq_(&eq), name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    EventQueue &eventq() { return *eq_; }
    Tick curTick() const { return eq_->now(); }

    /**
     * Re-home this object onto another event queue. The system uses
     * this to hand each interconnect link to the queue that drives it
     * (links are constructed before the per-GPU queues are wired);
     * only call while no event scheduled by this object is pending.
     */
    void rebindEventQueue(EventQueue &eq) { eq_ = &eq; }

  protected:
    /** Schedule a member callback @p delay ticks in the future. */
    template <typename F>
    void
    schedule(Tick delay, F &&cb)
    {
        eq_->schedule(delay, std::forward<F>(cb));
    }

  private:
    EventQueue *eq_;
    std::string name_;
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_SIM_OBJECT_HPP
