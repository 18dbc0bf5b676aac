#include "gpu/compute_unit.hpp"

#include "sim/logging.hpp"

namespace transfw::gpu {

ComputeUnit::ComputeUnit(sim::EventQueue &eq,
                         const cfg::SystemConfig &config, Gpu &gpu,
                         int cu_id, const wl::Workload &workload,
                         CtaScheduler &scheduler, std::uint64_t seed)
    : SimObject(eq, sim::strfmt("gpu%d.cu%d", gpu.id(), cu_id)),
      cfg_(config), gpu_(gpu), cuId_(cu_id), workload_(workload),
      scheduler_(scheduler), seed_(seed),
      slots_(static_cast<std::size_t>(config.wavefrontSlotsPerCu))
{}

void
ComputeUnit::start()
{
    gpu_.attachClient(cuId_, *this);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        acquireCta(s);
}

void
ComputeUnit::acquireCta(std::size_t slot)
{
    std::optional<int> cta = scheduler_.nextCta(gpu_.id());
    if (!cta) {
        slots_[slot].stream.reset();
        return; // slot retires; CU is done when all slots retire
    }
    if (!slots_[slot].stream)
        ++activeSlots_;
    ++ctas_;
    slots_[slot].stream =
        workload_.makeStream(*cta, cfg_.numGpus, seed_);
    step(slot);
}

void
ComputeUnit::step(std::size_t slot)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::ComputeUnit);
    Slot &s = slots_[slot];
    if (!s.stream->next(s.op)) {
        // CTA finished: retire the stream and pull the next CTA.
        s.stream.reset();
        --activeSlots_;
        acquireCta(slot);
        return;
    }
    if (s.op.computeGap > 0) {
        schedule(s.op.computeGap, [this, slot]() { issue(slot); });
    } else {
        issue(slot);
    }
}

void
ComputeUnit::issue(std::size_t slot)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::ComputeUnit);
    Slot &s = slots_[slot];
    s.pendingPages = s.op.numPages;
    if (s.pendingPages == 0)
        sim::panic("memory instruction with no pages");
    for (int i = 0; i < s.op.numPages; ++i) {
        const wl::PageAccess &access =
            s.op.pages[static_cast<std::size_t>(i)];
        gpu_.access(cuId_, static_cast<int>(slot), access.vpn,
                    access.write);
    }
}

void
ComputeUnit::pageDone(int slot)
{
    Slot &s = slots_[static_cast<std::size_t>(slot)];
    if (--s.pendingPages == 0) {
        instructions_ += s.op.instructions;
        ++memOps_;
        step(static_cast<std::size_t>(slot));
    }
}

} // namespace transfw::gpu
