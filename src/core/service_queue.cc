#include "core/service_queue.h"

#include "core/coalescing_queue.h"
#include "core/psq.h"

namespace qprac::core {

const char*
sqBackendName(SqBackendKind kind)
{
    switch (kind) {
      case SqBackendKind::Linear: return "linear";
      case SqBackendKind::Coalescing: return "coalescing";
    }
    return "?";
}

bool
parseSqBackend(const std::string& name, SqBackendKind* out)
{
    if (name == "linear" || name == "cam" || name == "heap") {
        *out = SqBackendKind::Linear;
        return true;
    }
    if (name == "coalescing" || name == "coalesce" || name == "cnc") {
        *out = SqBackendKind::Coalescing;
        return true;
    }
    return false;
}

std::vector<SqBackendKind>
allSqBackends()
{
    return {SqBackendKind::Linear, SqBackendKind::Coalescing};
}

std::unique_ptr<ServiceQueueBackend>
makeServiceQueue(SqBackendKind kind, int capacity)
{
    switch (kind) {
      case SqBackendKind::Linear:
        return std::make_unique<LinearCamQueue>(capacity);
      case SqBackendKind::Coalescing:
        return std::make_unique<CoalescingQueue>(capacity);
    }
    return nullptr;
}

} // namespace qprac::core
