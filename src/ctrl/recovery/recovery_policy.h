/**
 * @file
 * Recovery policies: how much of a channel an ALERT_n recovery blocks.
 *
 * QPRAC's baseline ABO semantics stall the whole channel while the
 * mitigation drains its priority queue (ChannelStall). PRACtical
 * (arXiv:2507.18581) shows that isolating recovery to the offending
 * bank recovers most of the lost performance (BankIsolated); blocking
 * the alerting bank's whole bank group is a conservative middle point
 * (GroupIsolated). "When Mitigations Backfire" (arXiv:2505.10111)
 * shows the flip side: the wider the blocking domain, the larger the
 * cross-bank/cross-channel timing channel a co-located victim can
 * observe — the attack:rfm-probe scenario measures exactly that.
 *
 * A recovery kind only decides *scope*: which banks an in-flight
 * recovery for a given alerting bank blocks, and which RFM scope the
 * recovery burst uses (the free functions below). The state machines
 * live in AboEngine (channel-stall) and BankRecoveryEngine (the
 * isolated kinds).
 */
#ifndef QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H
#define QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H

#include <string>
#include <vector>

#include "dram/dram_device.h"
#include "dram/mitigation_iface.h"

namespace qprac::ctrl {

/** Blocking granularity of ALERT_n recovery. */
enum class RecoveryKind
{
    ChannelStall, ///< QPRAC ABO: the whole channel quiesces (default)
    BankIsolated, ///< PRACtical: only the alerting bank blocks
    GroupIsolated, ///< middle point: the alerting bank's bank group
};

/** Canonical scenario-key spelling ("channel-stall", ...). */
const char* recoveryKindName(RecoveryKind kind);

/** Parse a scenario-key spelling; false on unknown names. */
bool parseRecoveryKind(const std::string& text, RecoveryKind* out);

/** All kinds in canonical listing order. */
const std::vector<RecoveryKind>& recoveryKinds();

/**
 * True when @p kind runs the channel-wide ABO state machine (one
 * recovery at a time, global ACT/CAS gating). False = the per-bank
 * BankRecoveryEngine with one machine per alerting bank.
 */
inline bool
channelScope(RecoveryKind kind)
{
    return kind == RecoveryKind::ChannelStall;
}

/**
 * Does an in-flight @p kind recovery for @p alert_bank block @p bank?
 * (Scheduling: no new ACTs while the recovery is active, no CAS while
 * it pumps RFMs; quiesce: the bank must be precharged.)
 */
bool covers(RecoveryKind kind, const dram::DramDevice& dev, int alert_bank,
            int bank);

/**
 * RFM scope of a @p kind recovery burst. @p configured is the
 * controller's AboConfig scope (the channel-stall default); the
 * isolated kinds pump per-bank RFMs whatever it says.
 */
inline dram::RfmScope
recoveryRfmScope(RecoveryKind kind, dram::RfmScope configured)
{
    return channelScope(kind) ? configured : dram::RfmScope::PerBank;
}

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H
