#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "bench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_TSC 1
#endif

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t
ticks()
{
#ifdef PERFBENCH_HAVE_TSC
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

double
nsPerTick()
{
    static const double ns = [] {
#ifdef PERFBENCH_HAVE_TSC
        // Busy-wait 20 ms against the steady clock; an invariant TSC
        // makes one calibration valid for the whole process.
        const double w0 = wallNow();
        const std::uint64_t t0 = ticks();
        while (wallNow() - w0 < 0.02) {
        }
        const double w1 = wallNow();
        const std::uint64_t t1 = ticks();
        return (w1 - w0) * 1e9 / static_cast<double>(t1 - t0);
#else
        using period = std::chrono::steady_clock::period;
        return 1e9 * static_cast<double>(period::num) /
               static_cast<double>(period::den);
#endif
    }();
    return ns;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
digestHex(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
