/**
 * @file
 * Per-bank SRAM storage model for in-DRAM trackers (paper Table IV) and
 * QPRAC's structure sizing (§III-E).
 */
#ifndef QPRAC_SECURITY_STORAGE_MODEL_H
#define QPRAC_SECURITY_STORAGE_MODEL_H

#include <string>
#include <vector>

namespace qprac::security {

/** Storage of one tracker at one threshold. */
struct TrackerStorage
{
    std::string name;
    double bytes_per_bank = 0.0;
};

/**
 * PRAC counter width per row (paper §III-E): enough bits to hold the
 * maximum possible count before mitigation, at least 6 bits. The paper
 * uses 7-bit counters for TRH = 66.
 */
int pracCounterBits(int trh);

/** QPRAC PSQ bytes per bank: psq_size x (rowid + counter) bits. */
double qpracPsqBytes(int psq_size, int rows_per_bank, int trh);

/**
 * Published per-bank sizes at TRH = 4K for Misra-Gries summaries
 * (Graphene/Mithril), TWiCe and CAT, linearly extrapolated in 1/TRH as
 * Table IV does (entry count scales with activations/threshold).
 */
double misraGriesBytes(int trh);
double twiceBytes(int trh);
double catBytes(int trh);

/** The full Table IV row set at a given TRH. */
std::vector<TrackerStorage> storageTable(int trh);

// --- Off-row-cycle counter updates (PRACtical, arXiv:2507.18581) -----
// Hardware cost of the write-back path that counter-update=queued
// assumes. The simulator models only its timing effect, the
// conventional tRAS/tRP split (bankTimingFor in dram/dram_device.cc).

/**
 * Per-bank SRAM of the counter write-back queue: queue_depth entries
 * of row id + pending-increment count (coalescing needs a small
 * saturating count field; 4 bits covers any realistic merge run).
 */
double counterUpdateQueueBytes(int queue_depth, int rows_per_bank,
                               int trh);

/**
 * Per-bank SRAM of the per-subarray RMW latches: each subarray owns
 * one local read-modify-write latch (counter bits + the row offset
 * within the tile) so an ACT in one subarray can shadow a write-back
 * in another.
 */
double subarrayLatchBytes(int subarrays, int rows_per_bank, int trh);

/**
 * Per-bank storage of the whole queued counter update path
 * (queue + latches), beside the inline baseline (one latch, no queue)
 * for the Table IV-style comparison.
 */
std::vector<TrackerStorage> counterUpdateStorageTable(int subarrays,
                                                      int queue_depth,
                                                      int rows_per_bank,
                                                      int trh);

} // namespace qprac::security

#endif // QPRAC_SECURITY_STORAGE_MODEL_H
