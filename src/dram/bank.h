/**
 * @file
 * Per-bank DRAM state machine and timing windows.
 */
#ifndef QPRAC_DRAM_BANK_H
#define QPRAC_DRAM_BANK_H

#include "common/types.h"
#include "dram/timing.h"

namespace qprac::dram {

/** DRAM commands the controller can issue. */
enum class Command
{
    ACT,
    PRE,
    RD,
    WR,
    REF,    ///< all-bank refresh (rank level)
    RFMab,
    RFMsb,
    RFMpb,
};

const char* commandName(Command cmd);

/**
 * One DRAM bank: open-row state plus earliest-issue times for each
 * command class. The controller asks canAct/canRead/... and the device
 * applies issue() effects.
 */
class Bank
{
  public:
    explicit Bank(const TimingParams& timing);

    bool isOpen() const { return open_row_ != kNoRow; }
    int openRow() const { return open_row_; }

    bool canAct(Cycle now) const;
    bool canPre(Cycle now) const;
    bool canRead(Cycle now) const;
    bool canWrite(Cycle now) const;

    /** Apply an ACT to @p row at @p now. */
    void doAct(int row, Cycle now);

    /** Apply a PRE at @p now. */
    void doPre(Cycle now);

    /** Apply a RD at @p now; returns the cycle the data burst completes. */
    Cycle doRead(Cycle now);

    /** Apply a WR at @p now; returns the cycle the data burst completes. */
    Cycle doWrite(Cycle now);

    /**
     * Block the bank until @p until (REF/RFM); the bank must be
     * precharged. Subsequent ACTs are allowed from @p until.
     */
    void block(Cycle until);

    /** Earliest cycle the bank could accept an ACT (for schedulers). */
    Cycle nextActReady() const { return next_act_; }

    /** Earliest cycle the bank could accept a PRE. */
    Cycle nextPreReady() const { return next_pre_; }

    /** Earliest cycle the open row could accept a RD. */
    Cycle nextRdReady() const { return next_rd_; }

    /** Earliest cycle the open row could accept a WR. */
    Cycle nextWrReady() const { return next_wr_; }

    /** True if the bank is precharged and past all blocking windows. */
    bool idleAt(Cycle now) const;

    std::uint64_t activations() const { return num_acts_; }
    std::uint64_t rowHits() const { return num_row_hits_; }

    /** Record that a CAS hit the open row (stat only). */
    void noteRowHit() { ++num_row_hits_; }

  private:
    const TimingParams& t_;
    int open_row_ = kNoRow;
    Cycle next_act_ = 0;
    Cycle next_pre_ = 0;
    Cycle next_rd_ = 0;
    Cycle next_wr_ = 0;
    std::uint64_t num_acts_ = 0;
    std::uint64_t num_row_hits_ = 0;
};

} // namespace qprac::dram

#endif // QPRAC_DRAM_BANK_H
