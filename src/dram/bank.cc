#include "dram/bank.h"

#include <algorithm>

#include "common/log.h"

namespace qprac::dram {

const char*
commandName(Command cmd)
{
    switch (cmd) {
      case Command::ACT: return "ACT";
      case Command::PRE: return "PRE";
      case Command::RD: return "RD";
      case Command::WR: return "WR";
      case Command::REF: return "REF";
      case Command::RFMab: return "RFMab";
      case Command::RFMsb: return "RFMsb";
      case Command::RFMpb: return "RFMpb";
    }
    return "?";
}

Bank::Bank(const TimingParams& timing) : t_(timing)
{
}

bool
Bank::canAct(Cycle now) const
{
    return !isOpen() && now >= next_act_;
}

bool
Bank::canPre(Cycle now) const
{
    return isOpen() && now >= next_pre_;
}

bool
Bank::canRead(Cycle now) const
{
    return isOpen() && now >= next_rd_;
}

bool
Bank::canWrite(Cycle now) const
{
    return isOpen() && now >= next_wr_;
}

void
Bank::doAct(int row, Cycle now)
{
    QP_ASSERT(canAct(now), "ACT issued while bank not ready");
    open_row_ = row;
    ++num_acts_;
    next_rd_ = now + t_.tRCD;
    next_wr_ = now + t_.tRCD;
    next_pre_ = now + t_.tRAS;
    next_act_ = now + t_.tRC;
}

void
Bank::doPre(Cycle now)
{
    QP_ASSERT(canPre(now), "PRE issued while bank not ready");
    open_row_ = kNoRow;
    next_act_ = std::max(next_act_, now + t_.tRP);
}

Cycle
Bank::doRead(Cycle now)
{
    QP_ASSERT(canRead(now), "RD issued while bank not ready");
    next_pre_ = std::max(next_pre_, now + t_.tRTP);
    return now + t_.tCL + t_.tBL;
}

Cycle
Bank::doWrite(Cycle now)
{
    QP_ASSERT(canWrite(now), "WR issued while bank not ready");
    Cycle done = now + t_.tCWL + t_.tBL;
    next_pre_ = std::max(next_pre_, done + t_.tWR);
    return done;
}

void
Bank::stallRowCycle(Cycle extra)
{
    next_pre_ += extra;
    next_act_ += extra;
}

void
Bank::block(Cycle until)
{
    QP_ASSERT(!isOpen(), "REF/RFM requires a precharged bank");
    next_act_ = std::max(next_act_, until);
}

bool
Bank::idleAt(Cycle now) const
{
    return !isOpen() && now >= next_act_;
}

} // namespace qprac::dram
