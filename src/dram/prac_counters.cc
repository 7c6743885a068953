#include "dram/prac_counters.h"

#include <algorithm>

#include "common/log.h"

namespace qprac::dram {

PracCounters::PracCounters(int num_banks, int rows_per_bank,
                           int blast_radius)
    : num_banks_(num_banks),
      rows_per_bank_(rows_per_bank),
      blast_radius_(blast_radius)
{
    QP_ASSERT(num_banks > 0 && rows_per_bank > 0 && blast_radius >= 0,
              "invalid PracCounters geometry");
    counts_.reset(static_cast<ActCount*>(
        std::calloc(static_cast<std::size_t>(num_banks) *
                        static_cast<std::size_t>(rows_per_bank),
                    sizeof(ActCount))));
    QP_ASSERT(counts_ != nullptr, "out of memory for PRAC counters");
}

std::size_t
PracCounters::index(int bank, int row) const
{
    QP_ASSERT(bank >= 0 && bank < num_banks_, "bank out of range");
    QP_ASSERT(row >= 0 && row < rows_per_bank_, "row out of range");
    return static_cast<std::size_t>(bank) *
               static_cast<std::size_t>(rows_per_bank_) +
           static_cast<std::size_t>(row);
}

ActCount
PracCounters::onActivate(int bank, int row)
{
    ++total_acts_;
    return ++counts_[index(bank, row)];
}

ActCount
PracCounters::count(int bank, int row) const
{
    return counts_[index(bank, row)];
}

int
PracCounters::mitigate(int bank, int row, VictimInfo* victims,
                       bool reset_aggressor)
{
    const std::size_t aggressor = index(bank, row);
    int written = 0;
    for (int d = 1; d <= blast_radius_; ++d) {
        for (int sign : {-1, +1}) {
            int victim = row + sign * d;
            if (victim < 0 || victim >= rows_per_bank_)
                continue;
            // Mitigative refresh also increments the victim's PRAC
            // counter so transitive (Half-Double) attacks are tracked.
            ActCount c = ++counts_[index(bank, victim)];
            ++total_victims_;
            if (victims)
                victims[written] = {victim, c};
            ++written;
        }
    }
    if (reset_aggressor)
        counts_[aggressor] = 0;
    ++total_mitigations_;
    return written;
}

void
PracCounters::reset(int bank, int row)
{
    counts_[index(bank, row)] = 0;
}

ActCount
PracCounters::maxCount(int bank) const
{
    return counts_[index(bank, maxRow(bank))];
}

int
PracCounters::maxRow(int bank) const
{
    // First row holding the maximum (row 0 when the bank is all zero).
    const ActCount* first = counts_.get() + index(bank, 0);
    return static_cast<int>(
        std::max_element(first, first + rows_per_bank_) - first);
}

} // namespace qprac::dram
