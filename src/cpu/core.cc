#include "cpu/core.h"

#include "common/log.h"

namespace qprac::cpu {

O3Core::O3Core(int id, const CoreConfig& config, TraceSource& trace,
               SharedLlc& llc)
    : id_(id), cfg_(config), trace_(trace), llc_(llc)
{
    QP_ASSERT(cfg_.width >= 1 && cfg_.window >= cfg_.width,
              "invalid core configuration");
    std::size_t ring = 1;
    while (ring < static_cast<std::size_t>(cfg_.window))
        ring <<= 1;
    done_.assign(ring, 0);
    ring_mask_ = ring - 1;
    llc_.attach(id_, this);
}

O3Core::~O3Core()
{
    llc_.detach(id_);
}

void
O3Core::tick(Cycle master_cycle)
{
    cpu_budget_ += cfg_.cpu_per_dram_clk;
    while (cpu_budget_ >= 1.0) {
        cpu_budget_ -= 1.0;
        cpuCycle(master_cycle);
    }
}

void
O3Core::loadDone(std::uint64_t seq)
{
    QP_ASSERT(seq - head_ < tail_ - head_,
              "load completion outside the core's window");
    done_[seq & ring_mask_] = 1;
}

bool
O3Core::dispatchMem(Cycle master_cycle)
{
    const std::uint64_t seq = tail_;
    const bool is_store = current_.is_store;
    // Stores are posted: they occupy an already completed slot. Loads
    // block retirement until the hierarchy hands their token back.
    done_[seq & ring_mask_] = is_store ? 1 : 0;
    if (!llc_.access(current_.addr, is_store, id_, seq, master_cycle))
        return false;
    ++tail_;
    if (is_store)
        ++stores_issued_;
    else
        ++loads_issued_;
    return true;
}

void
O3Core::cpuCycle(Cycle master_cycle)
{
    ++cpu_cycles_;

    // Retire.
    for (int i = 0; i < cfg_.width && head_ != tail_; ++i) {
        if (!done_[head_ & ring_mask_])
            break;
        ++head_;
        ++retired_;
        if (!finished_ && retired_ >= cfg_.target_insts) {
            finished_ = true;
            finish_cycles_ = cpu_cycles_;
        }
    }

    // Dispatch.
    int dispatched = 0;
    bool stalled = false;
    const auto window = static_cast<std::uint64_t>(cfg_.window);
    while (dispatched < cfg_.width && tail_ - head_ < window && !stalled) {
        if (!entry_valid_) {
            if (trace_exhausted_ || !trace_.next(current_)) {
                trace_exhausted_ = true;
                break;
            }
            entry_valid_ = true;
            bubbles_left_ = current_.bubbles;
        }
        if (bubbles_left_ > 0) {
            done_[tail_++ & ring_mask_] = 1;
            --bubbles_left_;
            ++dispatched;
            continue;
        }
        if (current_.has_mem) {
            if (dispatchMem(master_cycle)) {
                ++dispatched;
                entry_valid_ = false;
            } else {
                stalled = true; // LLC/MSHR back-pressure; retry next cycle
            }
        } else {
            entry_valid_ = false;
        }
    }
    if (dispatched == 0 && head_ != tail_)
        ++stall_cycles_;
}

double
O3Core::ipc() const
{
    std::uint64_t cycles = finished_ ? finish_cycles_ : cpu_cycles_;
    if (cycles == 0)
        return 0.0;
    std::uint64_t insts = finished_ ? cfg_.target_insts : retired_;
    return static_cast<double>(insts) / static_cast<double>(cycles);
}

void
O3Core::exportStats(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "retired", static_cast<double>(retired_));
    out.set(prefix + "cpu_cycles", static_cast<double>(cpu_cycles_));
    out.set(prefix + "finish_cycles", static_cast<double>(finish_cycles_));
    out.set(prefix + "ipc", ipc());
    out.set(prefix + "loads", static_cast<double>(loads_issued_));
    out.set(prefix + "stores", static_cast<double>(stores_issued_));
    out.set(prefix + "stall_cycles", static_cast<double>(stall_cycles_));
}

} // namespace qprac::cpu
