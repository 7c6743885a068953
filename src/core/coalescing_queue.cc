#include "core/coalescing_queue.h"

#include <algorithm>

#include "common/log.h"

namespace qprac::core {

namespace {

/** Strict hottest-first order: count descending, then row ascending. */
bool
hotterFirst(const SqEntry& a, const SqEntry& b)
{
    return a.count > b.count || (a.count == b.count && a.row < b.row);
}

} // namespace

CoalescingQueue::CoalescingQueue(int capacity, int window)
    : main_(capacity), window_capacity_(window)
{
    QP_ASSERT(window >= 1, "coalescing window must hold at least 1 entry");
    window_.reserve(static_cast<std::size_t>(window));
}

int
CoalescingQueue::findStaged(int row) const
{
    // A linear CAM over the small staging window.
    for (std::size_t i = 0; i < window_.size(); ++i)
        if (window_[i].row == row)
            return static_cast<int>(i);
    return -1;
}

void
CoalescingQueue::drain()
{
    // Hottest first, so the window's best candidates get main-queue slots
    // before colder staged rows raise the queue minimum against them.
    std::sort(window_.begin(), window_.end(), hotterFirst);
    for (const SqEntry& e : window_)
        main_.onActivate(e.row, e.count);
    window_.clear();
}

PsqInsert
CoalescingQueue::onActivate(int row, ActCount count)
{
    if (main_.contains(row)) {
        // Already in the CAM: in-place count update, as in the plain PSQ.
        return main_.onActivate(row, count);
    }
    int staged = findStaged(row);
    if (staged >= 0) {
        // The coalescing win: no CAM insertion, just a count refresh.
        window_[static_cast<std::size_t>(staged)].count = count;
        ++coalesced_;
        return PsqInsert::Hit;
    }
    if (static_cast<int>(window_.size()) == window_capacity_)
        drain();
    window_.push_back({row, count});
    return PsqInsert::Inserted;
}

const SqEntry*
CoalescingQueue::top() const
{
    // Ties favour the main queue (its entries are older than anything
    // staged), then window push order.
    const SqEntry* best = main_.top();
    for (const SqEntry& e : window_)
        if (!best || e.count > best->count)
            best = &e;
    if (!best)
        return nullptr;
    top_scratch_ = *best;
    return &top_scratch_;
}

ActCount
CoalescingQueue::minCount() const
{
    // The admission bar of the main queue; staged rows are always
    // admitted to the window, so the effective bar is 0 until the CAM
    // fills.
    return main_.minCount();
}

ActCount
CoalescingQueue::maxCount() const
{
    const SqEntry* t = top();
    return t ? t->count : 0;
}

bool
CoalescingQueue::remove(int row)
{
    int staged = findStaged(row);
    if (staged >= 0) {
        window_[static_cast<std::size_t>(staged)] = window_.back();
        window_.pop_back();
        return true;
    }
    return main_.remove(row);
}

bool
CoalescingQueue::contains(int row) const
{
    return findStaged(row) >= 0 || main_.contains(row);
}

ActCount
CoalescingQueue::countOf(int row) const
{
    int staged = findStaged(row);
    if (staged >= 0)
        return window_[static_cast<std::size_t>(staged)].count;
    return main_.countOf(row);
}

int
CoalescingQueue::size() const
{
    return main_.size() + static_cast<int>(window_.size());
}

int
CoalescingQueue::capacity() const
{
    return main_.capacity() + window_capacity_;
}

std::vector<SqEntry>
CoalescingQueue::snapshot() const
{
    std::vector<SqEntry> out = main_.snapshot();
    out.insert(out.end(), window_.begin(), window_.end());
    return out;
}

} // namespace qprac::core
