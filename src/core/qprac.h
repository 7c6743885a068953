/**
 * @file
 * QPRAC — the paper's mitigation (§III), in all evaluated variants.
 *
 *  - QPRAC-NoOp:      on an All-Bank RFM, only the alerting bank mitigates.
 *  - QPRAC:           opportunistic — every covered bank mitigates the top
 *                     entry of its PSQ on every RFM (§III-D1).
 *  - QPRAC+Proactive: additionally mitigates the top PSQ entry of every
 *                     bank during each REF (§III-D2).
 *  - QPRAC+Proactive-EA: energy-aware — proactive mitigation only fires
 *                     when the top entry's count >= NPRO (= NBO/K).
 *  - QPRAC-Ideal:     oracular top-N tracking (UPRAC-style ideal), used
 *                     as the performance/security reference. It mitigates
 *                     a row at its bank's true maximum count; among the
 *                     rows tied at that count, the one that reached it
 *                     first (the service-queue "oldest" rule).
 *
 * Every variant but Ideal keeps one PSQ (core/psq.h) per bank. Ideal
 * keeps none: it picks every row from its exact count buckets, so its
 * `psq_*` stats stay zero and queueOccupancy() reports no queue.
 */
#ifndef QPRAC_CORE_QPRAC_H
#define QPRAC_CORE_QPRAC_H

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/psq.h"
#include "dram/mitigation_iface.h"

namespace qprac::dram {
class PracCounters;
} // namespace qprac::dram

namespace qprac::core {

/** Proactive-mitigation policy on REF commands. */
enum class ProactiveMode
{
    None,        ///< no REF-time mitigations
    EveryRef,    ///< mitigate the top PSQ entry on every REF
    EnergyAware, ///< mitigate only when top count >= npro
};

/** Configuration for one QPRAC instance. */
struct QpracConfig
{
    int nbo = 32;          ///< Back-Off threshold (alert when top >= NBO)
    int nmit = 1;          ///< RFMs per alert (PRAC-1/2/4); sizing only
    int psq_size = 5;      ///< PSQ entries per bank (paper default 5)
    bool opportunistic = true;  ///< false = QPRAC-NoOp
    ProactiveMode proactive = ProactiveMode::None;
    int npro = 16;         ///< EA threshold; paper default NBO/2
    int proactive_period_refs = 1; ///< 1 proactive per N REFs (Fig 17/21)
    bool ideal = false;    ///< QPRAC-Ideal (oracular top-N)

    std::string label() const;

    /** Name this preset resolves to in the MitigationRegistry. */
    std::string registryKey() const;

    // Named presets matching the paper's evaluated designs (§V).
    static QpracConfig noOp(int nbo = 32, int nmit = 1);
    static QpracConfig base(int nbo = 32, int nmit = 1);
    static QpracConfig proactiveEvery(int nbo = 32, int nmit = 1);
    static QpracConfig proactiveEa(int nbo = 32, int nmit = 1);
    static QpracConfig idealTopN(int nbo = 32, int nmit = 1);
};

/**
 * QPRAC-Ideal's exact top-count tracker over one channel's banks.
 *
 * Bucket c of a bank lists the rows whose count is c, in the order they
 * arrived at c, and a running maximum names the top bucket. A row sits
 * in the bucket of the last count QPRAC saw for it, so every count
 * change (an ACT or victim refresh raising it by one, a mitigation
 * clearing it) names the bucket the row leaves: the links carry no
 * count and cost 8 bytes a row. They are calloc'd like PracCounters, so
 * only the pages of touched rows become resident. A row QPRAC first
 * sees at count c (its earlier ACTs came before the mitigation was
 * attached) joins bucket c directly.
 */
class CountBuckets
{
  public:
    CountBuckets(int banks, int rows_per_bank);

    /** @p row's count rose to @p count (> 0) from count - 1. */
    void raise(int bank, int row, ActCount count);

    /** @p row's count fell from @p count (> 0) to zero. */
    void clear(int bank, int row, ActCount count);

    /** Highest count in @p bank (0 when every row is at zero). */
    ActCount maxCount(int bank) const
    {
        return banks_[static_cast<std::size_t>(bank)].max;
    }

    /** Row that reached the bank's highest count first; kNoRow at 0. */
    int topRow(int bank) const;

  private:
    /** Neighbours in a row's bucket, as row + 1 (0 = none). */
    struct Link
    {
        std::uint32_t prev;
        std::uint32_t next;
    };
    struct Bucket
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
    };
    struct Bank
    {
        std::vector<Bucket> buckets; ///< indexed by count; 0 unused
        ActCount max = 0;
    };
    struct FreeDeleter
    {
        void operator()(Link* p) const { std::free(p); }
    };

    Link* bankLinks(int bank);
    void unlink(int bank, int row, ActCount count);

    int rows_per_bank_;
    std::vector<Bank> banks_;
    std::unique_ptr<Link[], FreeDeleter> links_; ///< bank-major
};

/** QPRAC mitigation engine (one instance serves every bank). */
class Qprac final : public dram::RowhammerMitigation
{
  public:
    Qprac(const QpracConfig& config, dram::PracCounters* counters);

    void onActivate(int flat_bank, int row, ActCount count,
                    Cycle cycle) override
    {
        (void)cycle;
        activateOne(flat_bank, row, count);
    }
    void onActivateBatch(const dram::ActEvent* events, int n) override;
    bool wantsAlert() const override { return num_over_ > 0; }
    ActCount alertRiseThreshold() const override
    {
        return static_cast<ActCount>(config_.nbo);
    }
    void onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
               Cycle cycle) override;
    void onRefresh(int flat_bank, Cycle cycle) override;
    int alertingBank() const override;
    bool bankWantsAlert(int bank) const override
    {
        return over_threshold_[static_cast<std::size_t>(bank)] != 0;
    }
    const dram::MitigationStats& stats() const override { return stats_; }
    std::string name() const override { return config_.label(); }
    int queueOccupancy() const override;
    std::int64_t maxTrackedCount() const override;

    const QpracConfig& config() const { return config_; }

    /** PSQ of one bank (inspection/testing; not in Ideal mode). */
    const LinearCamQueue& psq(int flat_bank) const;

    /** Highest tracked count for a bank (PSQ, or true max when ideal). */
    ActCount topCount(int flat_bank) const;

  private:
    /** Per-ACT work shared by both entry points. */
    void activateOne(int flat_bank, int row, ActCount count);

    /** Mitigate one row in @p bank; returns true if a row was mitigated. */
    bool mitigateTop(int bank, bool require_count = false,
                     ActCount min_count = 0);

    void refreshAlertFlag(int bank);

    QpracConfig config_;
    dram::PracCounters* counters_;
    std::vector<LinearCamQueue> psqs_;  ///< empty in Ideal mode
    std::optional<CountBuckets> ideal_; ///< Ideal mode only
    std::vector<char> over_threshold_;
    std::vector<int> refs_seen_;
    int num_over_ = 0;
    dram::MitigationStats stats_;
};

inline void
Qprac::activateOne(int flat_bank, int row, ActCount count)
{
    if (config_.ideal) {
        ideal_->raise(flat_bank, row, count);
    } else {
        auto& psq = psqs_[static_cast<std::size_t>(flat_bank)];
        switch (psq.onActivate(row, count)) {
          case PsqInsert::Hit:
            ++stats_.psq_hits;
            break;
          case PsqInsert::Inserted:
            ++stats_.psq_insertions;
            break;
          case PsqInsert::Evicted:
            ++stats_.psq_insertions;
            ++stats_.psq_evictions;
            break;
          case PsqInsert::Rejected:
            break;
        }
    }

    if (count >= static_cast<ActCount>(config_.nbo) &&
        !over_threshold_[static_cast<std::size_t>(flat_bank)]) {
        over_threshold_[static_cast<std::size_t>(flat_bank)] = 1;
        ++num_over_;
        ++stats_.alerts;
    }
}

} // namespace qprac::core

#endif // QPRAC_CORE_QPRAC_H
