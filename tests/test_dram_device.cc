/**
 * @file
 * Unit tests for the channel-level DRAM device: command flows, RFM
 * scopes, refresh, ABODelay alert gating.
 */
#include <gtest/gtest.h>

#include <set>

#include "core/qprac.h"
#include "dram/dram_device.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using dram::DramDevice;
using dram::Organization;
using dram::RfmScope;
using dram::TimingParams;

namespace {

Organization
smallOrg()
{
    Organization org;
    org.ranks = 2;
    org.bankgroups = 2;
    org.banks_per_group = 2;
    org.rows_per_bank = 1024;
    return org;
}

/** Records which banks received RFM/REF mitigation opportunities. */
class RecordingMitigation : public dram::RowhammerMitigation
{
  public:
    void onActivate(int, int, ActCount, Cycle) override {}
    bool wantsAlert() const override { return false; }
    void
    onRfm(int bank, RfmScope, bool alerting, Cycle) override
    {
        rfm_banks.insert(bank);
        if (alerting)
            alerting_banks.insert(bank);
    }
    void onRefresh(int bank, Cycle) override { ref_banks.insert(bank); }
    int alertingBank() const override { return -1; }
    const dram::MitigationStats& stats() const override { return stats_; }
    std::string name() const override { return "recording"; }

    std::set<int> rfm_banks, ref_banks, alerting_banks;

  private:
    dram::MitigationStats stats_;
};

} // namespace

TEST(DramDevice, ActIncrementsPracAndNotifiesMitigation)
{
    DramDevice dev(smallOrg(), TimingParams::ddr5Prac());
    Qprac q(QpracConfig::base(8, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    dev.issueAct(0, 100, 0);
    // The PRAC counter update is synchronous...
    EXPECT_EQ(dev.pracCounters().count(0, 100), 1u);
    EXPECT_EQ(dev.stats().acts, 1u);
    // ...while the mitigation notification is batched per command-burst.
    dev.flushMitigationActs();
    EXPECT_TRUE(q.psq(0).contains(100));
}

TEST(DramDevice, BankOutOfRangeDies)
{
    DramDevice dev(smallOrg(), TimingParams::ddr5Prac());
    const DramDevice& view = dev;
    EXPECT_DEATH(dev.bank(dev.numBanks()), "bank out of range");
    EXPECT_DEATH(view.bank(-1), "bank out of range");
}

TEST(DramDevice, ActNotificationsAreBatchedUntilObserved)
{
    DramDevice dev(smallOrg(), TimingParams::ddr5Prac());
    Qprac q(QpracConfig::base(8, 1), &dev.pracCounters());
    dev.setMitigation(&q);

    TimingParams t = TimingParams::ddr5Prac();
    dev.issueAct(0, 100, 0);
    dev.issueAct(1, 200, static_cast<Cycle>(t.tRRD_L));
    // Nothing observed yet: the tracker has not seen the ACTs.
    EXPECT_FALSE(q.psq(0).contains(100));
    EXPECT_FALSE(q.psq(1).contains(200));
    // An ALERT_n sample no buffered count can raise (all counts < NBO)
    // keeps batching — this is what makes batching effective while the
    // ABO engine polls the alert level every cycle.
    EXPECT_FALSE(dev.alertAsserted());
    EXPECT_FALSE(q.psq(0).contains(100));
    // An explicit flush (RFM/REF dispatch and stats collection do this
    // internally) lands the whole burst in one batched call.
    dev.flushMitigationActs();
    EXPECT_TRUE(q.psq(0).contains(100));
    EXPECT_TRUE(q.psq(1).contains(200));
    // The batch delivered exactly one insertion per ACT.
    EXPECT_EQ(q.stats().psq_insertions, 2u);
}

TEST(DramDevice, AlertVisibilityMatchesEagerDispatch)
{
    // The deferral must be invisible through the device interface: an
    // ACT crossing NBO asserts ALERT_n at the very next sample.
    DramDevice dev(smallOrg(), TimingParams::ddr5Prac());
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    TimingParams t = TimingParams::ddr5Prac();
    dev.issueAct(0, 100, 0);
    EXPECT_FALSE(dev.alertAsserted());
    dev.issuePre(0, static_cast<Cycle>(t.tRAS));
    dev.issueAct(0, 100, static_cast<Cycle>(t.tRC)); // count 2 = NBO
    EXPECT_TRUE(dev.alertAsserted());
}

TEST(DramDevice, ReadWriteFlow)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(smallOrg(), t);
    dev.issueAct(0, 5, 0);
    Cycle rd_at = static_cast<Cycle>(t.tRCD);
    ASSERT_TRUE(dev.canRead(0, rd_at));
    Cycle done = dev.issueRead(0, rd_at);
    EXPECT_EQ(done, rd_at + static_cast<Cycle>(t.tCL + t.tBL));
    EXPECT_EQ(dev.stats().reads, 1u);
}

TEST(DramDevice, DataBusSerializesReads)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(smallOrg(), t);
    dev.issueAct(0, 5, 0);
    dev.issueAct(4, 9, static_cast<Cycle>(t.tRRD_S)); // other rank
    Cycle rd_at = static_cast<Cycle>(t.tRCD);
    dev.issueRead(0, rd_at);
    // Immediately after, the data bus is occupied; a CAS to the other
    // rank must wait until its burst would not overlap.
    EXPECT_FALSE(dev.canRead(4, rd_at + 1));
    EXPECT_TRUE(dev.canRead(4, rd_at + static_cast<Cycle>(t.tBL)));
}

TEST(DramDevice, RefreshBlocksBanksAndHitsEveryBankInRank)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(smallOrg(), t);
    RecordingMitigation rec;
    dev.setMitigation(&rec);
    ASSERT_TRUE(dev.rankIdle(0, 0));
    dev.issueRefresh(0, 0);
    EXPECT_EQ(rec.ref_banks.size(), 4u); // banksPerRank in smallOrg
    EXPECT_FALSE(dev.canAct(0, static_cast<Cycle>(t.tRFC - 1)));
    EXPECT_TRUE(dev.canAct(0, static_cast<Cycle>(t.tRFC)));
    // The other rank is unaffected.
    EXPECT_TRUE(dev.canAct(4, 1));
}

TEST(DramDevice, RfmScopesCoverExpectedBanks)
{
    TimingParams t = TimingParams::ddr5Prac();
    Organization org = smallOrg();
    {
        DramDevice dev(org, t);
        RecordingMitigation rec;
        dev.setMitigation(&rec);
        dev.issueRfm(RfmScope::AllBank, 1, 0);
        EXPECT_EQ(static_cast<int>(rec.rfm_banks.size()),
                  org.totalBanks());
        EXPECT_EQ(rec.alerting_banks, std::set<int>{1});
    }
    {
        DramDevice dev(org, t);
        RecordingMitigation rec;
        dev.setMitigation(&rec);
        // SameBank: same bank index across bank groups of rank 0.
        dev.issueRfm(RfmScope::SameBank, 1, 0);
        EXPECT_EQ(rec.rfm_banks, (std::set<int>{1, 3}));
    }
    {
        DramDevice dev(org, t);
        RecordingMitigation rec;
        dev.setMitigation(&rec);
        dev.issueRfm(RfmScope::PerBank, 5, 0);
        EXPECT_EQ(rec.rfm_banks, std::set<int>{5});
    }
}

TEST(DramDevice, RfmBlocksCoveredBanksForDuration)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(smallOrg(), t);
    Cycle until = dev.issueRfm(RfmScope::AllBank, 0, 0);
    EXPECT_EQ(until, static_cast<Cycle>(t.tRFMab));
    EXPECT_FALSE(dev.canAct(2, until - 1));
    EXPECT_TRUE(dev.canAct(2, until));
}

TEST(DramDevice, AboDelayGatesAlertReassertion)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(smallOrg(), t);
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    dev.setAboDelay(2);

    // Generously spaced command stream: advance a full tRC per command
    // so every bank/rank constraint is trivially met.
    Cycle now = 0;
    auto step = [&]() { now += static_cast<Cycle>(t.tRC); };
    auto hammer = [&](int bank, int row, int times) {
        for (int i = 0; i < times; ++i) {
            if (dev.bank(bank).isOpen()) {
                dev.issuePre(bank, now);
                step();
            }
            dev.issueAct(bank, row, now);
            step();
        }
    };

    hammer(0, 100, 2); // bank 0 reaches NBO=2
    EXPECT_TRUE(dev.alertAsserted());
    hammer(1, 200, 2); // bank 1 also reaches NBO

    // Service bank 0's alert only (PerBank RFM).
    dev.issuePre(0, now);
    dev.issuePre(1, now);
    now += static_cast<Cycle>(t.tRP);
    dev.issueRfm(RfmScope::PerBank, 0, now);
    now = std::max(now + static_cast<Cycle>(t.tRFMpb),
                   now + static_cast<Cycle>(t.tRC));
    dev.alertServiced(now);

    // Bank 1 still wants an alert, but ABODelay (2 ACTs) gates it.
    ASSERT_TRUE(q.wantsAlert());
    EXPECT_FALSE(dev.alertAsserted());
    hammer(2, 7, 1);
    EXPECT_FALSE(dev.alertAsserted()); // one ACT serviced, need two
    hammer(3, 7, 1);
    EXPECT_TRUE(dev.alertAsserted());
}

TEST(DramDevice, NoMitigationMeansNoAlert)
{
    DramDevice dev(smallOrg(), TimingParams::ddr5Prac());
    dev.issueAct(0, 1, 0);
    EXPECT_FALSE(dev.alertAsserted());
}
