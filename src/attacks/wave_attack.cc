#include "attacks/wave_attack.h"

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "core/qprac.h"
#include "dram/prac_counters.h"

namespace qprac::attacks {

namespace {

using core::Qprac;
using core::QpracConfig;
using dram::PracCounters;

/** Emulates the device-side ABO flow for a single attacked bank. */
class WaveHarness
{
  public:
    WaveHarness(const WaveAttackConfig& cfg, int rows)
        : cfg_(cfg), ctrs_(1, rows, 2), mit_(makeConfig(cfg), &ctrs_),
          acts_to_ref_(cfg.ref_period_acts)
    {
    }

    static QpracConfig
    makeConfig(const WaveAttackConfig& cfg)
    {
        QpracConfig qc = QpracConfig::base(cfg.nbo, cfg.nmit);
        qc.psq_size = cfg.psq_size;
        qc.ideal = cfg.ideal;
        qc.proactive = cfg.proactive ? core::ProactiveMode::EveryRef
                                     : core::ProactiveMode::None;
        return qc;
    }

    int aboDelay() const
    {
        return cfg_.abo_delay < 0 ? cfg_.nmit : cfg_.abo_delay;
    }

    /** One ACT; returns the row's new count. Handles REF + ABO flow. */
    ActCount activate(int row)
    {
        // A REF slot falls after every ref_period_acts ACTs.
        if (cfg_.proactive) {
            if (acts_to_ref_ == 0) {
                mit_.onRefresh(0, static_cast<Cycle>(total_acts_));
                acts_to_ref_ = cfg_.ref_period_acts;
            }
            --acts_to_ref_;
        }
        ActCount c = ctrs_.onActivate(0, row);
        mit_.onActivate(0, row, c, static_cast<Cycle>(total_acts_));
        ++total_acts_;
        max_count_ = std::max(max_count_, c);
        ++acts_since_service_;

        if (pending_abo_acts_ > 0) {
            if (--pending_abo_acts_ == 0)
                service();
        } else if (alertEligible()) {
            // Alert asserted: the host may squeeze in ABO_ACT more ACTs.
            pending_abo_acts_ = cfg_.abo_act;
        }
        return c;
    }

    bool alertEligible() const
    {
        if (!mit_.wantsAlert())
            return false;
        return !serviced_once_ || acts_since_service_ >= aboDelay();
    }

    /** Flush a pending alert (end of a phase). */
    void drainAlerts()
    {
        while (alertEligible() || pending_abo_acts_ > 0) {
            pending_abo_acts_ = 0;
            service();
        }
    }

    long alerts() const { return alerts_; }
    long totalActs() const { return total_acts_; }
    ActCount maxCount() const { return max_count_; }
    ActCount count(int row) const { return ctrs_.count(0, row); }
    Qprac& mitigation() { return mit_; }

  private:
    void service()
    {
        ++alerts_;
        for (int i = 0; i < cfg_.nmit; ++i)
            mit_.onRfm(0, dram::RfmScope::AllBank, true,
                       static_cast<Cycle>(total_acts_));
        serviced_once_ = true;
        acts_since_service_ = 0;
    }

    WaveAttackConfig cfg_;
    PracCounters ctrs_;
    Qprac mit_;
    /** ACTs left before the next REF slot (proactive only). */
    int acts_to_ref_;
    long total_acts_ = 0;
    long alerts_ = 0;
    int pending_abo_acts_ = 0;
    long acts_since_service_ = 0;
    bool serviced_once_ = false;
    ActCount max_count_ = 0;
};

} // namespace

WaveAttackResult
simulateWaveAttack(const WaveAttackConfig& cfg)
{
    QP_ASSERT(cfg.r1 >= 2, "wave attack needs at least two rows");
    const int stride = std::max(cfg.row_stride, 6);
    WaveHarness h(cfg, static_cast<int>(cfg.r1 + 2) * stride + stride);

    std::vector<int> pool;
    pool.reserve(static_cast<std::size_t>(cfg.r1));
    for (long i = 0; i < cfg.r1; ++i)
        pool.push_back(static_cast<int>((i + 1) * stride));

    // --- Setup phase: every pool row to NBO-1 activations -------------
    for (int pass = 0; pass < cfg.nbo - 1; ++pass)
        for (int row : pool)
            if (h.count(row) < static_cast<ActCount>(cfg.nbo - 1))
                h.activate(row);
    // Proactive mitigations during setup reset some rows; drop them.
    std::erase_if(pool, [&](int row) {
        return h.count(row) < static_cast<ActCount>(cfg.nbo - 1);
    });

    WaveAttackResult res;
    res.pool_after_setup = static_cast<long>(pool.size());

    // --- Online phase: uniform rounds over the shrinking pool ---------
    while (pool.size() > 1) {
        for (int row : pool)
            if (h.count(row) != 0) // skip rows mitigated mid-round
                h.activate(row);
        h.drainAlerts();
        std::erase_if(pool, [&](int row) { return h.count(row) == 0; });
        ++res.rounds;
        if (res.rounds > 10'000'000)
            panic("wave attack failed to converge");
    }

    // --- Final phase: hammer the survivor until it is mitigated -------
    if (pool.size() == 1) {
        int row = pool.front();
        long guard = 0;
        while (h.count(row) != 0 || guard == 0) {
            h.activate(row);
            if (h.count(row) == 0)
                break; // mitigated by the alert flow
            if (++guard > 1'000'000)
                break; // defense never fired (insecure configuration)
        }
    }

    res.max_count = h.maxCount();
    res.alerts = h.alerts();
    res.total_acts = h.totalActs();
    return res;
}

} // namespace qprac::attacks
