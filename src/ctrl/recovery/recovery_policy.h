/**
 * @file
 * Recovery kinds: how much of a channel an ALERT_n recovery blocks.
 *
 * QPRAC's baseline ABO semantics stall the whole channel while the
 * mitigation drains its priority queue (ChannelStall). PRACtical
 * (arXiv:2507.18581) shows that isolating recovery to the offending
 * bank recovers most of the lost performance (BankIsolated). "When
 * Mitigations Backfire" (arXiv:2505.10111) shows the flip side: the
 * wider the blocking domain, the larger the cross-bank/cross-channel
 * timing channel a co-located victim can observe — the
 * attack:rfm-probe scenario measures exactly that.
 *
 * The kind is all a controller needs: AboEngine runs the channel-wide
 * state machine for ChannelStall, and BankRecoveryEngine runs one
 * machine per alerting bank, blocking only that bank and pumping
 * per-bank RFMs, for BankIsolated.
 */
#ifndef QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H
#define QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H

#include <string>
#include <vector>

namespace qprac::ctrl {

/** Blocking granularity of ALERT_n recovery. */
enum class RecoveryKind
{
    ChannelStall, ///< QPRAC ABO: the whole channel quiesces (default)
    BankIsolated, ///< PRACtical: only the alerting bank blocks
};

/** Canonical scenario-key spelling ("channel-stall", ...). */
const char* recoveryKindName(RecoveryKind kind);

/** Parse a scenario-key spelling; false on unknown names. */
bool parseRecoveryKind(const std::string& text, RecoveryKind* out);

/** All kinds in canonical listing order. */
const std::vector<RecoveryKind>& recoveryKinds();

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_RECOVERY_RECOVERY_POLICY_H
