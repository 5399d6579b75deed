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
    };
    return kinds;
}

} // namespace qprac::ctrl
