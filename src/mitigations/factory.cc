#include "mitigations/factory.h"

#include <algorithm>

#include "common/log.h"
#include "mitigations/panopticon.h"
#include "mitigations/pride.h"
#include "mitigations/uprac.h"

namespace qprac::dram {

void
MitigationStats::exportTo(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "alerts", static_cast<double>(alerts));
    out.set(prefix + "rfm_mitigations", static_cast<double>(rfm_mitigations));
    out.set(prefix + "proactive_mitigations",
            static_cast<double>(proactive_mitigations));
    out.set(prefix + "victim_refreshes",
            static_cast<double>(victim_refreshes));
    out.set(prefix + "psq_insertions", static_cast<double>(psq_insertions));
    out.set(prefix + "psq_evictions", static_cast<double>(psq_evictions));
    out.set(prefix + "psq_hits", static_cast<double>(psq_hits));
    out.set(prefix + "dropped_mitigations",
            static_cast<double>(dropped_mitigations));
}

void
MitigationStats::add(const MitigationStats& o)
{
    alerts += o.alerts;
    rfm_mitigations += o.rfm_mitigations;
    proactive_mitigations += o.proactive_mitigations;
    victim_refreshes += o.victim_refreshes;
    psq_insertions += o.psq_insertions;
    psq_evictions += o.psq_evictions;
    psq_hits += o.psq_hits;
    dropped_mitigations += o.dropped_mitigations;
}

} // namespace qprac::dram

namespace qprac::mitigations {

namespace {

/** Shared body of every QPRAC registry entry. */
std::unique_ptr<dram::RowhammerMitigation>
buildQprac(core::QpracConfig (*preset)(int, int),
           const MitigationParams& p, dram::PracCounters* counters)
{
    core::QpracConfig cfg = p.qprac ? *p.qprac : preset(p.nbo, p.nmit);
    if (p.psq_size > 0)
        cfg.psq_size = p.psq_size;
    if (p.backend)
        cfg.backend = *p.backend;
    return core::makeQprac(cfg, counters);
}

MitigationRegistry::Builder
qpracBuilder(core::QpracConfig (*preset)(int, int))
{
    return [preset](const MitigationParams& p, dram::PracCounters* c) {
        return buildQprac(preset, p, c);
    };
}

} // namespace

MitigationRegistry::MitigationRegistry()
{
    registerDesign("none", "insecure baseline (no in-DRAM mitigation)",
                   [](const MitigationParams&, dram::PracCounters*)
                       -> std::unique_ptr<dram::RowhammerMitigation> {
                       return nullptr;
                   });
    registerDesign("qprac-noop",
                   "QPRAC-NoOp: only the alerting bank mitigates per RFM",
                   qpracBuilder(&core::QpracConfig::noOp));
    registerDesign("qprac",
                   "QPRAC: opportunistic mitigation in every covered bank",
                   qpracBuilder(&core::QpracConfig::base));
    registerDesign("qprac+proactive",
                   "QPRAC + proactive mitigation on every REF",
                   qpracBuilder(&core::QpracConfig::proactiveEvery));
    registerDesign("qprac+proactive-ea",
                   "QPRAC + energy-aware proactive mitigation (top >= NPRO)",
                   qpracBuilder(&core::QpracConfig::proactiveEa));
    registerDesign("qprac-ideal",
                   "QPRAC-Ideal: oracular top-N tracking reference",
                   qpracBuilder(&core::QpracConfig::idealTopN));
    registerDesign("panopticon",
                   "Panopticon with t-bit counters and a FIFO queue",
                   [](const MitigationParams&, dram::PracCounters* c) {
                       return std::make_unique<Panopticon>(
                           PanopticonConfig::tbit(6, 4), c);
                   });
    registerDesign("panopticon-fullctr",
                   "Panopticon variant with full counters (threshold NBO)",
                   [](const MitigationParams& p, dram::PracCounters* c) {
                       return std::make_unique<Panopticon>(
                           PanopticonConfig::fullCounter(p.nbo, 4), c);
                   });
    registerDesign("uprac-fifo",
                   "UPRAC with a FIFO service queue (Fill+Escape victim)",
                   [](const MitigationParams& p, dram::PracCounters* c) {
                       return std::make_unique<UpracFifo>(4, p.nbo, c);
                   });
    registerDesign("moat",
                   "MOAT: single-entry queue, dual thresholds ETH/ATH",
                   [](const MitigationParams& p, dram::PracCounters* c) {
                       MoatConfig cfg =
                           p.moat ? *p.moat : MoatConfig::forNbo(p.nbo);
                       return std::make_unique<Moat>(cfg, c);
                   });
    registerDesign("pride",
                   "PrIDE: controller-paced RFMs with per-bank FIFOs",
                   [](const MitigationParams&, dram::PracCounters* c) {
                       return std::make_unique<Pride>(PrideConfig{}, c);
                   });
    registerDesign("mithril",
                   "Mithril: Misra-Gries tracker with paced RFMs",
                   [](const MitigationParams& p, dram::PracCounters* c) {
                       MithrilConfig cfg =
                           p.mithril ? *p.mithril : MithrilConfig{};
                       return std::make_unique<Mithril>(cfg, c);
                   });
}

MitigationRegistry&
MitigationRegistry::instance()
{
    static MitigationRegistry registry;
    return registry;
}

void
MitigationRegistry::registerDesign(const std::string& name,
                                   const std::string& description,
                                   Builder builder)
{
    if (!entries_.count(name))
        order_.push_back(name);
    entries_[name] = Entry{description, std::move(builder)};
}

bool
MitigationRegistry::unregisterDesign(const std::string& name)
{
    if (!entries_.erase(name))
        return false;
    order_.erase(std::find(order_.begin(), order_.end(), name));
    return true;
}

bool
MitigationRegistry::has(const std::string& name) const
{
    return entries_.count(name) != 0;
}

std::string
MitigationRegistry::description(const std::string& name) const
{
    auto it = entries_.find(name);
    return it != entries_.end() ? it->second.description : std::string();
}

std::unique_ptr<dram::RowhammerMitigation>
MitigationRegistry::create(const std::string& name,
                           const MitigationParams& params,
                           dram::PracCounters* counters) const
{
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        std::string known;
        for (const auto& n : order_)
            known += (known.empty() ? "" : ", ") + n;
        fatal(strCat("unknown mitigation '", name, "' (known: ", known,
                     ")"));
    }
    return it->second.builder(params, counters);
}

std::unique_ptr<dram::RowhammerMitigation>
createMitigation(const std::string& name, int nbo, int nmit,
                 dram::PracCounters* counters)
{
    MitigationParams p;
    p.nbo = nbo;
    p.nmit = nmit;
    return MitigationRegistry::instance().create(name, p, counters);
}

std::vector<std::string>
mitigationNames()
{
    return MitigationRegistry::instance().names();
}

} // namespace qprac::mitigations
