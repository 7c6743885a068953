#include "core/psq.h"

#include "common/log.h"

namespace qprac::core {

LinearCamQueue::LinearCamQueue(int capacity)
    : entries_(static_cast<std::size_t>(capacity))
{
    QP_ASSERT(capacity >= 1, "PSQ capacity must be at least 1");
}

int
LinearCamQueue::findRow(int row) const
{
    for (int i = 0; i < size_; ++i)
        if (entries_[static_cast<std::size_t>(i)].row == row)
            return i;
    return -1;
}

int
LinearCamQueue::findMin() const
{
    QP_ASSERT(size_ > 0, "findMin on empty PSQ");
    int best = 0;
    for (int i = 1; i < size_; ++i)
        if (evictsBefore(entries_[static_cast<std::size_t>(i)],
                         entries_[static_cast<std::size_t>(best)]))
            best = i;
    return best;
}

const LinearCamQueue::Entry*
LinearCamQueue::top() const
{
    if (size_ == 0)
        return nullptr;
    int best = 0;
    for (int i = 1; i < size_; ++i) {
        const Entry& e = entries_[static_cast<std::size_t>(i)];
        const Entry& b = entries_[static_cast<std::size_t>(best)];
        if (e.count > b.count || (e.count == b.count && e.seq < b.seq))
            best = i;
    }
    return &entries_[static_cast<std::size_t>(best)];
}

ActCount
LinearCamQueue::minCount() const
{
    if (size_ < capacity())
        return 0;
    return entries_[static_cast<std::size_t>(findMin())].count;
}

ActCount
LinearCamQueue::maxCount() const
{
    const Entry* t = top();
    return t ? t->count : 0;
}

bool
LinearCamQueue::remove(int row)
{
    int idx = findRow(row);
    if (idx < 0)
        return false;
    entries_[static_cast<std::size_t>(idx)] =
        entries_[static_cast<std::size_t>(size_ - 1)];
    --size_;
    return true;
}

bool
LinearCamQueue::contains(int row) const
{
    return findRow(row) >= 0;
}

ActCount
LinearCamQueue::countOf(int row) const
{
    int idx = findRow(row);
    return idx >= 0 ? entries_[static_cast<std::size_t>(idx)].count : 0;
}

std::vector<LinearCamQueue::Entry>
LinearCamQueue::snapshot() const
{
    return {entries_.begin(), entries_.begin() + size_};
}

int
LinearCamQueue::storageBits(int capacity, int row_bits, int ctr_bits)
{
    return capacity * (row_bits + ctr_bits);
}

} // namespace qprac::core
