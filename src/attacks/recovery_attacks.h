/**
 * @file
 * Cycle-level attack drivers probing the ALERT_n recovery subsystem
 * (ctrl/recovery): the cross-bank/cross-channel timing channel of
 * "When Mitigations Backfire" (arXiv:2505.10111) and a PRACtical-style
 * (arXiv:2507.18581) worst-case alert storm.
 *
 * Both drivers run a real N-channel ctrl::MemorySystem (controllers,
 * devices, per-channel mitigation instances) on the serial tick path —
 * no cores, no LLC, no RNG — so results are deterministic and
 * independent of any thread budget. The drivers call tick every cycle;
 * with cycle skipping on (the default) a shard sleeps through the
 * cycles its event horizon proves idle, byte-identical to dense ticks.
 *
 *  - rfm-probe: the attacker hammers one bank of channel 0 into
 *    repeated recoveries while a victim paces latency probes at a
 *    co-located bank (same channel, different rank/bank) and an
 *    isolated bank (another channel when available). The excess probe
 *    latency the attacker induces, measured against the quiet warmup
 *    phase, is the timing-channel signal: channel-stall recovery leaks
 *    the attacker's activity to every co-located bank, bank-isolated
 *    recovery to (almost) none.
 *
 *  - recovery-dos: the attacker drives an alert storm across many
 *    banks of channel 0; a victim streams reads at an uninvolved bank.
 *    Channel-stall serializes every recovery against the victim;
 *    isolated policies overlap them (peak_concurrent measures the
 *    overlap) and keep the victim's latency flat.
 */
#ifndef QPRAC_ATTACKS_RECOVERY_ATTACKS_H
#define QPRAC_ATTACKS_RECOVERY_ATTACKS_H

#include "common/types.h"
#include "ctrl/memory_system.h"
#include "dram/address.h"
#include "dram/counter_update.h"
#include "dram/timing.h"

namespace qprac::obs {
class EventRecorder;
} // namespace qprac::obs

namespace qprac::attacks {

/** Shared driver parameters for the recovery attack family. */
struct RecoveryAttackConfig
{
    dram::Organization org; ///< channels/ranks from the scenario
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    ctrl::ControllerConfig ctrl; ///< abo.recovery selects the policy
    ctrl::MitigationFactory mitigation; ///< one instance per channel
    dram::MappingScheme mapping = dram::MappingScheme::RoRaBgBaCo;
    /** Counter architecture under attack (inline = paper-faithful). */
    dram::CounterUpdateConfig counter_update;

    Cycle warmup_cycles = 100'000; ///< quiet phase (victim only)
    Cycle attack_cycles = 600'000; ///< attacked phase budget
    int probe_period = 777;  ///< cycles between victim latency probes
    int attacker_depth = 4;  ///< outstanding attacker reads per bank
    int carousel_rows = 16;  ///< attacker row rotation per bank
    int attack_banks = 1;    ///< banks the attacker hammers (dos: many)
    int victim_rows = 64;    ///< victim probe row pool (stays << NBO)

    /** Observability hub (may be null). The memory system's shards get
     * their event lanes; victim probe completions land on the driver
     * lane as `attack` events. Result-neutral. */
    obs::EventRecorder* recorder = nullptr;

    /** Next-event cycle skipping on the serial tick path (the scenario
     * `skip` key; false = the dense reference). Result-neutral. */
    bool skip = true;
};

/** Latency accumulator for one victim probe target and phase. */
struct ProbeStats
{
    std::uint64_t probes = 0;
    std::uint64_t latency_sum = 0;

    double mean() const
    {
        return probes ? static_cast<double>(latency_sum) /
                            static_cast<double>(probes)
                      : 0.0;
    }
};

/** rfm-probe outcome. */
struct RfmProbeResult
{
    std::uint64_t alerts = 0;
    std::uint64_t rfms = 0;
    std::uint64_t attacker_acts = 0;
    ProbeStats near_quiet, near_attack; ///< co-located victim bank
    ProbeStats far_quiet, far_attack;   ///< isolated victim bank
    ctrl::SkipStats skip; ///< engine counters, not part of the result

    /** Attacker-induced latency on the co-located bank (cycles). */
    double nearExcess() const
    {
        return near_attack.mean() - near_quiet.mean();
    }
    /** Attacker-induced latency on the isolated bank (cycles). */
    double farExcess() const
    {
        return far_attack.mean() - far_quiet.mean();
    }
    /** The differential observable: co-located minus isolated. */
    double leakageSignal() const { return nearExcess() - farExcess(); }
};

RfmProbeResult runRfmProbeAttack(const RecoveryAttackConfig& cfg);

/** recovery-dos outcome. */
struct RecoveryDosResult
{
    std::uint64_t alerts = 0;
    std::uint64_t rfms = 0;
    std::uint64_t attacker_acts = 0;
    int peak_concurrent_recoveries = 0; ///< overlap (0 = channel-stall)
    ProbeStats victim_quiet, victim_attack;
    ctrl::SkipStats skip; ///< engine counters, not part of the result

    /** Victim latency inflation under the alert storm (ratio). */
    double victimSlowdown() const
    {
        return victim_quiet.mean() > 0
                   ? victim_attack.mean() / victim_quiet.mean()
                   : 0.0;
    }
};

RecoveryDosResult runRecoveryDosAttack(const RecoveryAttackConfig& cfg);

} // namespace qprac::attacks

#endif // QPRAC_ATTACKS_RECOVERY_ATTACKS_H
