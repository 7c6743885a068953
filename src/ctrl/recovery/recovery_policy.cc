#include "ctrl/recovery/recovery_policy.h"

#include "common/parse.h"

namespace qprac::ctrl {

const char*
recoveryKindName(RecoveryKind kind)
{
    switch (kind) {
      case RecoveryKind::ChannelStall:
        return "channel-stall";
      case RecoveryKind::BankIsolated:
        return "bank-isolated";
      case RecoveryKind::GroupIsolated:
        return "group-isolated";
    }
    return "channel-stall";
}

bool
parseRecoveryKind(const std::string& text, RecoveryKind* out)
{
    const std::string t = trimmed(text);
    for (RecoveryKind kind : recoveryKinds()) {
        if (t == recoveryKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

const std::vector<RecoveryKind>&
recoveryKinds()
{
    static const std::vector<RecoveryKind> kinds = {
        RecoveryKind::ChannelStall,
        RecoveryKind::BankIsolated,
        RecoveryKind::GroupIsolated,
    };
    return kinds;
}

bool
covers(RecoveryKind kind, const dram::DramDevice& dev, int alert_bank,
       int bank)
{
    switch (kind) {
      case RecoveryKind::ChannelStall:
        return true; // the whole channel stalls
      case RecoveryKind::BankIsolated:
        return bank == alert_bank;
      case RecoveryKind::GroupIsolated:
        // The whole bank group of the alerting bank's rank: the group
        // shares ACT/CAS timing, so quiescing it is the conservative
        // command-bus middle point between bank and channel scope.
        // (Its RFMs stay per-bank: only the alerting bank's tracker
        // drains.)
        return dev.rankOf(bank) == dev.rankOf(alert_bank) &&
               dev.bankgroupOf(bank) == dev.bankgroupOf(alert_bank);
    }
    return true;
}

} // namespace qprac::ctrl
