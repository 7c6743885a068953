#include "ctrl/abo.h"

#include "ctrl/refresh.h"
#include "obs/obs.h"

namespace qprac::ctrl {

AboEngine::AboEngine(const AboConfig& config,
                     const dram::TimingParams& timing)
    : cfg_(config), t_(timing)
{
}

void
AboEngine::setEventSink(obs::EventSink* sink)
{
    sink_ = sink;
    if (bank_)
        bank_->setEventSink(sink);
}

void
AboEngine::tick(dram::DramDevice& dev, Cycle now)
{
    // Isolated kinds: alerts are handled per bank; the channel-wide
    // machine below still serves the policy RFM pump (Mithril/PrIDE).
    bank_rfm_this_tick_ = false;
    if (!channelScope()) {
        if (!bank_) {
            bank_ = std::make_unique<BankRecoveryEngine>(
                cfg_.recovery, t_, cfg_.nmit, cfg_.scope, dev.numBanks());
            bank_->setEventSink(sink_);
        }
        if (cfg_.enabled)
            bank_rfm_this_tick_ = bank_->tick(dev, refresh_, now);
    }

    switch (state_) {
      case State::Idle:
        if (channelScope() && cfg_.enabled && dev.alertAsserted()) {
            ++alerts_;
            alert_bank_ =
                dev.mitigation() ? dev.mitigation()->alertingBank() : -1;
            policy_mode_ = false;
            state_ = State::Window;
            recovery_began_ = now;
            window_end_ = now + static_cast<Cycle>(t_.tABO_window);
            window_acts_ = 0;
            if (sink_)
                sink_->record(obs::kAbo, now, "alert", "bank",
                              alert_bank_);
        } else if (policy_pending_) {
            policy_pending_ = false;
            policy_mode_ = true;
            alert_bank_ = -1;
            state_ = State::Quiesce;
            recovery_began_ = now;
            quiesce_since_ = now;
        }
        break;

      case State::Window:
        if (window_acts_ >= t_.abo_act_max || now >= window_end_) {
            if (sink_)
                sink_->recordSpan(obs::kAbo, recovery_began_, now,
                                  "abo-window", "acts", window_acts_);
            state_ = State::Quiesce;
            quiesce_since_ = now;
        }
        break;

      case State::Quiesce: {
        bool all_idle = true;
        for (int r = 0; r < dev.organization().ranks && all_idle; ++r)
            all_idle = dev.rankIdle(r, now);
        if (all_idle) {
            if (sink_)
                sink_->recordSpan(obs::kAbo, quiesce_since_, now,
                                  "abo-quiesce");
            state_ = State::Pumping;
            rfms_left_ = policy_mode_ ? 1 : cfg_.nmit;
            next_rfm_at_ = now;
        }
        break;
      }

      case State::Pumping:
        if (now < next_rfm_at_)
            break;
        if (rfms_left_ > 0) {
            // A REF may have been issued between quiesce and this RFM
            // slot; wait for its rank to drain before pumping.
            for (int r = 0; r < dev.organization().ranks; ++r)
                if (!dev.rankIdle(r, now))
                    return;
            dram::RfmScope scope =
                policy_mode_ ? policy_scope_
                             : recoveryRfmScope(cfg_.recovery, cfg_.scope);
            next_rfm_at_ = dev.issueRfm(scope, alert_bank_, now);
            --rfms_left_;
            if (policy_mode_)
                ++policy_rfms_;
            else
                ++rfms_issued_;
        } else {
            if (!policy_mode_)
                dev.alertServiced(now);
            if (sink_)
                sink_->recordSpan(obs::kAbo, recovery_began_, now,
                                  policy_mode_ ? "policy-recovery"
                                               : "abo-recovery",
                                  "bank", alert_bank_);
            policy_mode_ = false;
            state_ = State::Idle;
        }
        break;
    }
}

Cycle
AboEngine::nextEventAt(const dram::DramDevice& dev, Cycle now) const
{
    Cycle at = kNeverCycle;

    // Per-bank machines (isolated kinds). Before the first tick the
    // engine does not exist yet; a requested alert then moves state on
    // the next tick.
    if (!channelScope() && cfg_.enabled) {
        if (bank_)
            at = std::min(at, bank_->nextEventAt(dev, now));
        else if (dev.anyBankAlertRequested())
            at = std::min(at, now + 1);
    }

    // Channel-wide machine (ChannelStall alerts + the policy RFM pump).
    switch (state_) {
      case State::Idle:
        if (policy_pending_ ||
            (channelScope() && cfg_.enabled && dev.alertAsserted()))
            at = std::min(at, now + 1);
        // Otherwise the alert can only rise on an ACT — a wake itself.
        break;

      case State::Window:
        at = std::min(at, window_acts_ >= t_.abo_act_max ? now + 1
                                                         : window_end_);
        break;

      case State::Quiesce: {
        // Transition when *all* ranks are idle: the max of the per-rank
        // idle horizons, or never while a bank is open (its closing PRE
        // is covered by the controller's quiesce-PRE concern).
        Cycle all_idle = now + 1;
        for (int r = 0; r < dev.organization().ranks; ++r) {
            Cycle c = dev.rankIdleAt(r, now);
            if (c == kNeverCycle) {
                all_idle = kNeverCycle;
                break;
            }
            all_idle = std::max(all_idle, c);
        }
        at = std::min(at, all_idle);
        break;
      }

      case State::Pumping:
        at = std::min(at, now < next_rfm_at_ ? next_rfm_at_ : now + 1);
        break;
    }
    return at;
}

void
AboEngine::noteActIssued(int bank)
{
    if (state_ == State::Window)
        ++window_acts_;
    if (bank_ && bank >= 0)
        bank_->noteActIssued(bank);
}

void
AboEngine::requestPolicyRfm(dram::RfmScope scope)
{
    policy_pending_ = true;
    policy_scope_ = scope;
}

} // namespace qprac::ctrl
