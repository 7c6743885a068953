/**
 * @file
 * Service-queue backend layer.
 *
 * QPRAC's security argument (paper §III-B) only depends on the PSQ's
 * *insertion policy* — a full queue admits any row whose count beats the
 * current minimum — not on how the queue is implemented. That leaves a
 * design space the paper's 5-entry CAM only samples: follow-on work
 * coalesces activations before insertion (CnC-PRAC) or scales the queue
 * for per-bank recovery (PRACtical). This header defines the backend
 * contract all implementations share, so QPRAC can be instantiated over
 * any of them and the benches can sweep the whole space.
 *
 * Canonical PSQ semantics, identical across backends:
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
 * is serviced first — and it makes the tie-break total and portable:
 * (count, seq) is a strict order, so any two backends fed the same
 * stream make byte-identical decisions.
 *
 * The tie-break rules are part of the contract (not just an
 * implementation detail) so that backends are *decision-equivalent*: a
 * LinearCamQueue and a HeapQueue fed the same activation stream make
 * identical insert/evict/top choices, which the property tests assert.
 */
#ifndef QPRAC_CORE_SERVICE_QUEUE_H
#define QPRAC_CORE_SERVICE_QUEUE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace qprac::core {

/** Outcome of presenting an activation to a service queue. */
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

/**
 * Abstract service-queue backend.
 *
 * Concrete backends are `final` classes: QPRAC is parameterized over the
 * concrete type, so its activation hot path calls these methods with
 * static dispatch (no virtual calls). The virtual interface exists for
 * generic code — tests, sweeps and tools that hold backends behind one
 * pointer type.
 */
class ServiceQueueBackend
{
  public:
    virtual ~ServiceQueueBackend() = default;

    /** Present an activation of @p row with post-increment count. */
    virtual PsqInsert onActivate(int row, ActCount count) = 0;

    /** Highest-count entry (ties: oldest entry), or nullptr when empty. */
    virtual const SqEntry* top() const = 0;

    /** Lowest count currently tracked (0 when not full). */
    virtual ActCount minCount() const = 0;

    /** Highest count currently tracked (0 when empty). */
    virtual ActCount maxCount() const = 0;

    /** Remove @p row if present; returns true if removed. */
    virtual bool remove(int row) = 0;

    virtual bool contains(int row) const = 0;

    /** Count stored for @p row (0 if absent). */
    virtual ActCount countOf(int row) const = 0;

    virtual int size() const = 0;
    virtual int capacity() const = 0;
    bool empty() const { return size() == 0; }
    bool full() const { return size() == capacity(); }

    /** Live entries (unordered), for tests and debugging. */
    virtual std::vector<SqEntry> snapshot() const = 0;
};

/** Available backend implementations. */
enum class SqBackendKind
{
    Linear,     ///< linear-scan CAM — the paper's 5-entry PSQ
    Heap,       ///< binary heap + row→slot map, for large-queue sweeps
    Coalescing, ///< CnC-PRAC-style coalescing buffer in front of the CAM
};

/** Short lowercase name ("linear", "heap", "coalescing"). */
const char* sqBackendName(SqBackendKind kind);

/** Parse a backend name; returns false on unknown names. */
bool parseSqBackend(const std::string& name, SqBackendKind* out);

/** All backend kinds, for sweeps. */
std::vector<SqBackendKind> allSqBackends();

/** Construct a backend of @p kind with @p capacity entries. */
std::unique_ptr<ServiceQueueBackend> makeServiceQueue(SqBackendKind kind,
                                                      int capacity);

} // namespace qprac::core

#endif // QPRAC_CORE_SERVICE_QUEUE_H
