/**
 * @file
 * DDR5 timing parameters with PRAC-specific changes (paper Table I/II).
 *
 * All latencies are stored in DRAM command-clock cycles at 3200 MHz
 * (tCK = 0.3125 ns), i.e. the paper's "Bus Speed 3200MHz (6400MHz DDR)".
 */
#ifndef QPRAC_DRAM_TIMING_H
#define QPRAC_DRAM_TIMING_H

#include <string>

#include "common/types.h"

namespace qprac::dram {

/**
 * Timing parameter set. Default-constructed values are invalid; use the
 * ddr5Prac() / ddr5NoPrac() presets or fill in all fields.
 */
struct TimingParams
{
    /** Command clock frequency in MHz (data rate is 2x). */
    double clock_mhz = 3200.0;

    // Core timings (cycles).
    int tRCD = 0;   ///< ACT -> internal RD/WR
    int tCL = 0;    ///< RD -> first data beat
    int tCWL = 0;   ///< WR -> first data beat
    int tRAS = 0;   ///< ACT -> PRE (same bank)
    int tRP = 0;    ///< PRE -> ACT (same bank); larger under PRAC
    int tRTP = 0;   ///< RD -> PRE
    int tWR = 0;    ///< end of write data -> PRE
    int tRC = 0;    ///< ACT -> ACT (same bank)
    int tBL = 0;    ///< data burst occupancy (BL16 at DDR = 8 cycles)
    int tCCD_S = 0; ///< CAS -> CAS, different bank group
    int tCCD_L = 0; ///< CAS -> CAS, same bank group
    int tRRD_S = 0; ///< ACT -> ACT, different bank group
    int tRRD_L = 0; ///< ACT -> ACT, same bank group
    int tFAW = 0;   ///< four-activate window per rank

    // Refresh.
    int tRFC = 0;   ///< REF (all-bank) duration
    int tREFI = 0;  ///< average interval between REFs
    double tREFW_ms = 32.0; ///< refresh window (ms)

    // PRAC / RFM (paper Table I & II).
    int tRFMab = 0;       ///< all-bank RFM duration
    int tRFMsb = 0;       ///< same-bank RFM duration
    int tRFMpb = 0;       ///< per-bank RFM duration (proposed extension)
    int tABO_window = 0;  ///< max delay from ALERT to RFM (180 ns)
    int abo_act_max = 3;  ///< max ACTs the host may issue inside the window

    // Conventional (counter-RMW-free) row-cycle split. PRAC folds the
    // per-row counter read-modify-write into tRP (and shortens tRAS to
    // compensate); when counter updates are taken off the critical path
    // (counter-update=queued, PRACtical-style) banks revert to this
    // split and the RMW, tRP - tRP_base, runs while the bank waits out
    // its next row cycle. 0 means "same as tRAS/tRP" (no
    // off-critical-path headroom to recover).
    int tRAS_base = 0; ///< ACT -> PRE without the inline counter RMW
    int tRP_base = 0;  ///< PRE -> ACT without the inline counter RMW

    /** Convert nanoseconds to (rounded-up) cycles at this clock. */
    int nsToCycles(double ns) const;

    /** Convert cycles back to nanoseconds. */
    double cyclesToNs(Cycle cycles) const;

    /** tREFW in cycles. */
    Cycle trefwCycles() const;

    /**
     * Activations a single bank can absorb in one tREFW once REF time is
     * subtracted; the paper quotes ~550K for this configuration and the
     * security analysis uses it as the attacker's ACT budget.
     */
    long actBudgetPerTrefw() const;

    /** DDR5 with PRAC timing updates (paper Table II). */
    static TimingParams ddr5Prac();

    /** Conventional DDR5 timings (used for Mithril/PrIDE in Fig 20). */
    static TimingParams ddr5NoPrac();
};

/**
 * How ACT-driven PRAC counter updates reach the counter array (scenario
 * key `counter-update`). The counter value always commits at ACT, so
 * mitigation decisions are identical in both modes; the mode only
 * selects the row-cycle split banks run.
 */
enum class CounterUpdateMode
{
    Inline, ///< paper-faithful PRAC: the RMW inside every precharge
    Queued, ///< RMW off the row cycle: conventional tRAS_base/tRP_base
};

/** Short lowercase name ("inline", "queued"). */
const char* counterUpdateModeName(CounterUpdateMode mode);

/** Parse a mode name; returns false on unknown names. */
bool parseCounterUpdateMode(const std::string& name,
                            CounterUpdateMode* out);

/** The counter-update axis of a device (PRACtical, arXiv:2507.18581). */
struct CounterUpdateConfig
{
    CounterUpdateMode mode = CounterUpdateMode::Inline;
};

} // namespace qprac::dram

#endif // QPRAC_DRAM_TIMING_H
