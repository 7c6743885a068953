/**
 * @file
 * PRAC per-row activation counters (paper §II-D).
 *
 * One counter per DRAM row per bank, incremented on every ACT of that
 * row and on every mitigative victim refresh (transitive / Half-Double
 * protection, paper §III-C2). Counters are reset when the row is
 * mitigated (the aggressor is re-activated and its counter cleared).
 * Storage is one flat bank-major array per channel.
 */
#ifndef QPRAC_DRAM_PRAC_COUNTERS_H
#define QPRAC_DRAM_PRAC_COUNTERS_H

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/log.h"
#include "common/types.h"

namespace qprac::dram {

/** Per-row PRAC counters of one channel plus mitigation bookkeeping. */
class PracCounters
{
  public:
    /**
     * Most victims one mitigation refreshes: the size of every caller's
     * victim array, so blast_radius is at most kMaxVictims / 2.
     */
    static constexpr int kMaxVictims = 16;

    /**
     * @param num_banks flat bank count
     * @param rows_per_bank rows per bank
     * @param blast_radius victim rows refreshed on each side of an
     *        aggressor during mitigation (paper default BR = 2; at most
     *        kMaxVictims / 2)
     */
    PracCounters(int num_banks, int rows_per_bank, int blast_radius = 2);

    /** Increment on ACT; returns the post-increment count. */
    ActCount onActivate(int bank, int row)
    {
        ++total_acts_;
        return ++counts_[index(bank, row)];
    }

    /** Current counter value. */
    ActCount count(int bank, int row) const
    {
        return counts_[index(bank, row)];
    }

    /**
     * Result of mitigating one aggressor row: the refreshed victims and
     * their post-increment counts (candidates for PSQ insertion).
     */
    struct VictimInfo
    {
        int row;
        ActCount count;
    };

    /**
     * Mitigate @p row in @p bank: refresh the blast-radius victims above
     * and below (incrementing their counters), then reset the aggressor's
     * counter to 0. Returns the victims refreshed.
     *
     * @param victims output array (kMaxVictims entries always suffice)
     * @param reset_aggressor false models Panopticon's t-bit scheme,
     *        where the counter keeps running and the threshold bit only
     *        re-toggles after another 2^t activations
     * @return number of victims written
     */
    int mitigate(int bank, int row, VictimInfo* victims,
                 bool reset_aggressor = true);

    /** Reset a row's counter without victim refreshes (plain REF sweep). */
    void reset(int bank, int row);

    /** Highest counter value in a bank (linear scan; test/debug use). */
    ActCount maxCount(int bank) const;

    /** Row holding the highest counter value in a bank (scan). */
    int maxRow(int bank) const;

    int numBanks() const { return num_banks_; }
    int rowsPerBank() const { return rows_per_bank_; }
    int blastRadius() const { return blast_radius_; }

    /** Lifetime totals, for energy accounting and tests. */
    std::uint64_t totalActivations() const { return total_acts_; }
    std::uint64_t totalMitigations() const { return total_mitigations_; }
    std::uint64_t totalVictimRefreshes() const { return total_victims_; }

  private:
    /** Position of (@p bank, @p row) in counts_ (range-checked). */
    std::size_t index(int bank, int row) const
    {
        QP_ASSERT(bank >= 0 && bank < num_banks_, "bank out of range");
        QP_ASSERT(row >= 0 && row < rows_per_bank_, "row out of range");
        return static_cast<std::size_t>(bank) *
                   static_cast<std::size_t>(rows_per_bank_) +
               static_cast<std::size_t>(row);
    }

    struct FreeDeleter
    {
        void operator()(ActCount* p) const { std::free(p); }
    };

    int num_banks_;
    int rows_per_bank_;
    int blast_radius_;
    /**
     * rows_per_bank_ counters per bank, bank-major. calloc'd: an array
     * this large comes straight from the OS as zeroed pages mapped on
     * first touch, so building a channel writes none of its counters
     * (32 MiB at the paper's geometry) and a run keeps resident only
     * the pages its rows touch.
     */
    std::unique_ptr<ActCount[], FreeDeleter> counts_;
    std::uint64_t total_acts_ = 0;
    std::uint64_t total_mitigations_ = 0;
    std::uint64_t total_victims_ = 0;
};

} // namespace qprac::dram

#endif // QPRAC_DRAM_PRAC_COUNTERS_H
