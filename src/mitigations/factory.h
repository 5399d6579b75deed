/**
 * @file
 * String-keyed registry of mitigation designs — the single construction
 * path for tools, the scenario layer and the bench suite.
 *
 * Every evaluated design registers a name, a one-line description and a
 * builder. Consumers look designs up by name (`qprac+proactive-ea`,
 * `moat`, ...); a QPRAC service-queue backend is picked with
 * MitigationParams::backend (the scenario `backend` key), never by name.
 */
#ifndef QPRAC_MITIGATIONS_FACTORY_H
#define QPRAC_MITIGATIONS_FACTORY_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/qprac.h"
#include "dram/mitigation_iface.h"

namespace qprac::dram {
class PracCounters;
} // namespace qprac::dram

namespace qprac::mitigations {

/** Knobs a registry builder may honour (the scenario design keys). */
struct MitigationParams
{
    int nbo = 32;  ///< back-off / alert threshold (threshold designs)
    int nmit = 1;  ///< RFMs per alert (QPRAC PSQ sizing)
    /** QPRAC PSQ size override (0 = design default of 5). */
    int psq_size = 0;
    /** One proactive mitigation per N REFs for QPRAC's proactive
     * variants and MOAT (0 = design default). */
    int proactive_period = 0;
    /** QPRAC service-queue backend override (unset = design default). */
    std::optional<core::SqBackendKind> backend;
};

/** Registry of constructible mitigation designs. */
class MitigationRegistry
{
  public:
    using Builder =
        std::function<std::unique_ptr<dram::RowhammerMitigation>(
            const MitigationParams&, dram::PracCounters*)>;

    /** The process-wide registry, with built-in designs registered. */
    static MitigationRegistry& instance();

    /** Register a design; re-registering a name replaces the builder. */
    void registerDesign(const std::string& name,
                        const std::string& description, Builder builder);

    /** Remove a registered design; returns false if unknown. */
    bool unregisterDesign(const std::string& name);

    /** True when @p name is a registered design. */
    bool has(const std::string& name) const;

    /**
     * Construct @p name. Returns nullptr for "none"; fatal() on unknown
     * names.
     */
    std::unique_ptr<dram::RowhammerMitigation>
    create(const std::string& name, const MitigationParams& params,
           dram::PracCounters* counters) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const { return order_; }

    /** One-line description of @p name ("" when unknown). */
    std::string description(const std::string& name) const;

  private:
    MitigationRegistry();

    struct Entry
    {
        std::string description;
        Builder builder;
    };

    std::vector<std::string> order_;
    std::map<std::string, Entry> entries_;
};

/**
 * Create a mitigation by name through the registry (compatibility
 * wrapper). Recognized names: everything MitigationRegistry lists, e.g.
 *  "none", "qprac-noop", "qprac", "qprac+proactive", "qprac+proactive-ea",
 *  "qprac-ideal", "panopticon", "panopticon-fullctr", "uprac-fifo",
 *  "moat", "pride", "mithril".
 *
 * @param nbo back-off / alert threshold (for threshold-based designs)
 * @param nmit RFMs per alert (QPRAC PSQ sizing)
 * @return nullptr for "none"; fatal() on unknown names.
 */
std::unique_ptr<dram::RowhammerMitigation>
createMitigation(const std::string& name, int nbo, int nmit,
                 dram::PracCounters* counters);

/** All base names createMitigation() accepts (for help text and tests). */
std::vector<std::string> mitigationNames();

} // namespace qprac::mitigations

#endif // QPRAC_MITIGATIONS_FACTORY_H
