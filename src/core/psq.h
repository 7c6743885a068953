/**
 * @file
 * Linear-scan CAM service queue — the core of QPRAC (paper §III-B).
 *
 * A small per-bank CAM tracking (RowID, activation count) pairs, using
 * the count as the priority. Unlike a FIFO service queue, the PSQ is
 * intentionally "full at all times": an activated row whose PRAC count
 * exceeds the queue's minimum is always inserted (displacing the
 * minimum), so heavily activated rows can never bypass the queue — the
 * property that defeats the Fill+Escape attack.
 *
 * This is the default ServiceQueueBackend; every operation is a linear
 * scan over at most a handful of entries, mirroring the 5-entry CAM the
 * paper synthesizes (15 bytes per bank). For large-queue sweeps see
 * HeapQueue; for insertion-bandwidth reduction see CoalescingQueue.
 */
#ifndef QPRAC_CORE_PSQ_H
#define QPRAC_CORE_PSQ_H

#include <vector>

#include "common/types.h"
#include "core/service_queue.h"

namespace qprac::core {

/** Fixed-capacity priority queue over (row, count), linear-scan CAM. */
class LinearCamQueue final : public ServiceQueueBackend
{
  public:
    using Entry = SqEntry;

    explicit LinearCamQueue(int capacity);

    /**
     * Present an activation of @p row with post-increment PRAC count
     * @p count (paper §III-B2 insertion policy).
     */
    PsqInsert onActivate(int row, ActCount count) override;

    /** Highest-count entry (ties: oldest entry), or nullptr when empty. */
    const Entry* top() const override;

    /** Lowest count currently tracked (0 when not full). */
    ActCount minCount() const override;

    /** Highest count currently tracked (0 when empty). */
    ActCount maxCount() const override;

    /** Remove @p row if present; returns true if removed. */
    bool remove(int row) override;

    bool contains(int row) const override;

    /** Count stored for @p row (0 if absent). */
    ActCount countOf(int row) const override;

    int size() const override { return size_; }
    int capacity() const override { return static_cast<int>(entries_.size()); }

    /** Live entries (unordered), for tests and debugging. */
    std::vector<Entry> snapshot() const override;

    /** Storage cost in bits for @p row_bits-wide rows and @p ctr_bits. */
    static int storageBits(int capacity, int row_bits, int ctr_bits);

  private:
    int findRow(int row) const;
    int findMin() const;

    std::vector<Entry> entries_;
    int size_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace qprac::core

#endif // QPRAC_CORE_PSQ_H
