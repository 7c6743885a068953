/**
 * @file
 * Priority-based Service Queue (PSQ) — the core of QPRAC (paper §III-B).
 *
 * A small per-bank CAM tracking (RowID, activation count) pairs, using
 * the count as the priority. Unlike a FIFO service queue, the PSQ is
 * intentionally "full at all times": an activated row whose PRAC count
 * exceeds the queue's minimum is always inserted (displacing the
 * minimum), so heavily activated rows can never bypass the queue — the
 * property that defeats the Fill+Escape attack. Every operation is a
 * linear scan over at most a handful of entries, mirroring the 5-entry
 * CAM the paper synthesizes (15 bytes per bank, §VI-F).
 *
 * Semantics of one activation of a row with its post-increment count:
 *  - Hit:      the row is tracked; its count is updated in place.
 *  - Inserted: a free slot existed; the row now occupies it.
 *  - Evicted:  the queue was full and the new count is strictly higher
 *              than the minimum; the minimum entry is displaced. Ties on
 *              the minimum count are broken by evicting the OLDEST entry
 *              (smallest insertion sequence number).
 *  - Rejected: the queue was full and the count does not exceed the
 *              minimum.
 *  - top():    the highest-count entry; ties broken toward the OLDEST
 *              entry.
 *
 * Each entry carries a sequence number stamped when it is inserted
 * (Inserted/Evicted outcomes; a Hit keeps the original stamp). Age is
 * the natural hardware tie-break — the CAM slot that has waited longest
 * is serviced first — and it makes every decision a function of the
 * activation stream alone: (count, seq) is a strict order, so no choice
 * depends on which slot an entry happens to occupy.
 */
#ifndef QPRAC_CORE_PSQ_H
#define QPRAC_CORE_PSQ_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace qprac::core {

/** Outcome of presenting an activation to the PSQ. */
enum class PsqInsert
{
    Hit,      ///< row already present; count updated in place
    Inserted, ///< row inserted into a free slot
    Evicted,  ///< row inserted, displacing the lowest-count entry
    Rejected, ///< count not higher than the queue minimum; not inserted
};

/** One tracked (row, activation count) pair. */
struct SqEntry
{
    int row = kNoRow;
    ActCount count = 0;
    /** Insertion order stamp; the tie-break for equal counts. */
    std::uint64_t seq = 0;
};

/** Fixed-capacity priority queue over (row, count), linear-scan CAM. */
class LinearCamQueue
{
  public:
    using Entry = SqEntry;

    explicit LinearCamQueue(int capacity);

    /**
     * Present an activation of @p row with post-increment PRAC count
     * @p count (paper §III-B2 insertion policy).
     */
    PsqInsert onActivate(int row, ActCount count);

    /** Highest-count entry (ties: oldest entry), or nullptr when empty. */
    const Entry* top() const;

    /** Lowest count currently tracked (0 when not full). */
    ActCount minCount() const;

    /** Highest count currently tracked (0 when empty). */
    ActCount maxCount() const;

    /** Remove @p row if present; returns true if removed. */
    bool remove(int row);

    bool contains(int row) const;

    /** Count stored for @p row (0 if absent). */
    ActCount countOf(int row) const;

    int size() const { return size_; }
    int capacity() const { return static_cast<int>(entries_.size()); }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity(); }

    /** Live entries (unordered), for tests and debugging. */
    std::vector<Entry> snapshot() const;

    /** Storage cost in bits for @p row_bits-wide rows and @p ctr_bits. */
    static int storageBits(int capacity, int row_bits, int ctr_bits);

  private:
    /** Eviction order: lower count first, then older (see above). */
    static bool
    evictsBefore(const Entry& a, const Entry& b)
    {
        return a.count < b.count || (a.count == b.count && a.seq < b.seq);
    }

    int findRow(int row) const;
    int findMin() const;

    std::vector<Entry> entries_;
    int size_ = 0;
    std::uint64_t next_seq_ = 0;
};

inline PsqInsert
LinearCamQueue::onActivate(int row, ActCount count)
{
    // One pass finds the row and, should it miss a full queue, the entry
    // to displace.
    int min_idx = 0;
    for (int i = 0; i < size_; ++i) {
        Entry& e = entries_[static_cast<std::size_t>(i)];
        if (e.row == row) {
            // Row already tracked: synchronize with the in-DRAM count.
            e.count = count;
            return PsqInsert::Hit;
        }
        if (evictsBefore(e, entries_[static_cast<std::size_t>(min_idx)]))
            min_idx = i;
    }
    if (size_ < capacity()) {
        entries_[static_cast<std::size_t>(size_++)] = {row, count,
                                                       next_seq_++};
        return PsqInsert::Inserted;
    }
    // Priority-based insertion: only displace the minimum if the new
    // count is strictly higher (paper §III-B2).
    Entry& lowest = entries_[static_cast<std::size_t>(min_idx)];
    if (count > lowest.count) {
        lowest = {row, count, next_seq_++};
        return PsqInsert::Evicted;
    }
    return PsqInsert::Rejected;
}

} // namespace qprac::core

#endif // QPRAC_CORE_PSQ_H
