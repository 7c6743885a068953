#include "dram/timing.h"

#include <cmath>

#include "common/log.h"

namespace qprac::dram {

int
TimingParams::nsToCycles(double ns) const
{
    return static_cast<int>(std::ceil(ns * clock_mhz / 1000.0 - 1e-9));
}

double
TimingParams::cyclesToNs(Cycle cycles) const
{
    return static_cast<double>(cycles) * 1000.0 / clock_mhz;
}

Cycle
TimingParams::trefwCycles() const
{
    return static_cast<Cycle>(tREFW_ms * 1e6 * clock_mhz / 1000.0);
}

long
TimingParams::actBudgetPerTrefw() const
{
    const double trefw_ns = tREFW_ms * 1e6;
    const double num_refs = trefw_ns / cyclesToNs(tREFI);
    const double ref_ns = num_refs * cyclesToNs(tRFC);
    return static_cast<long>((trefw_ns - ref_ns) / cyclesToNs(tRC));
}

TimingParams
TimingParams::ddr5Prac()
{
    TimingParams t;
    t.clock_mhz = 3200.0;
    // Paper Table II (PRAC timings): tRCD/tCL/tRAS = 16ns, tRP = 36ns,
    // tRTP = 5ns, tWR = 10ns, tRC = 52ns, tRFC = 410ns, tREFI = 3.9us,
    // tABO_ACT = 180ns, tRFMab = 350ns.
    t.tRCD = t.nsToCycles(16);
    t.tCL = t.nsToCycles(16);
    t.tCWL = t.nsToCycles(14);
    t.tRAS = t.nsToCycles(16);
    t.tRP = t.nsToCycles(36);
    t.tRTP = t.nsToCycles(5);
    t.tWR = t.nsToCycles(10);
    // tRC = tRAS + tRP after per-parameter rounding (52 ns nominal).
    t.tRC = t.tRAS + t.tRP;
    t.tBL = 8; // BL16 at DDR: 8 command-clock cycles of data-bus occupancy
    t.tCCD_S = 8;
    t.tCCD_L = 16;
    t.tRRD_S = t.nsToCycles(2.5);
    t.tRRD_L = t.nsToCycles(5.0);
    t.tFAW = t.nsToCycles(13.333);
    t.tRFC = t.nsToCycles(410);
    t.tREFI = t.nsToCycles(3900);
    t.tREFW_ms = 32.0;
    t.tRFMab = t.nsToCycles(350);
    t.tRFMsb = t.nsToCycles(190);
    t.tRFMpb = t.nsToCycles(190);
    t.tABO_window = t.nsToCycles(180);
    t.abo_act_max = 3;
    // The conventional split the same device would use if the counter
    // RMW were not serialized into the row cycle (ddr5NoPrac's values).
    t.tRAS_base = t.nsToCycles(32);
    t.tRP_base = t.nsToCycles(16);
    QP_ASSERT(t.tRC == t.tRAS + t.tRP, "PRAC tRC must equal tRAS+tRP");
    return t;
}

TimingParams
TimingParams::ddr5NoPrac()
{
    TimingParams t = ddr5Prac();
    // Without PRAC's counter-update-in-precharge, DDR5 uses the classic
    // tRAS = 32ns / tRP = 16ns split (tRC = 48ns < PRAC's 52ns).
    t.tRAS = t.nsToCycles(32);
    t.tRP = t.nsToCycles(16);
    t.tRC = t.tRAS + t.tRP; // 48 ns nominal
    t.tRAS_base = t.tRAS; // already counter-free: nothing to recover
    t.tRP_base = t.tRP;
    t.tABO_window = 0;
    t.abo_act_max = 0;
    QP_ASSERT(t.tRC == t.tRAS + t.tRP, "tRC must equal tRAS+tRP");
    return t;
}

const char*
counterUpdateModeName(CounterUpdateMode mode)
{
    switch (mode) {
      case CounterUpdateMode::Inline:
        return "inline";
      case CounterUpdateMode::Queued:
        return "queued";
    }
    return "?";
}

bool
parseCounterUpdateMode(const std::string& name, CounterUpdateMode* out)
{
    if (name == "inline")
        *out = CounterUpdateMode::Inline;
    else if (name == "queued")
        *out = CounterUpdateMode::Queued;
    else
        return false;
    return true;
}

} // namespace qprac::dram
