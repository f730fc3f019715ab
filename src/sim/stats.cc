#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace tengig {
namespace stats {

double
Histogram::percentile(double q) const
{
    fatal_if(q < 0.0 || q > 1.0, "percentile quantile ", q,
             " outside [0, 1]");
    if (n == 0)
        return 0.0;

    // Rank of the q-th sample (1-based, ceil: the sample such that a
    // fraction q of the population is at or below it).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;

    std::uint64_t seen = 0;
    for (std::size_t b = 0; b + 1 < counts.size(); ++b) {
        if (counts[b] == 0)
            continue;
        if (seen + counts[b] >= rank) {
            // Interpolate the rank's position within this bucket.
            double within = static_cast<double>(rank - seen) /
                static_cast<double>(counts[b]);
            double lo = static_cast<double>(b) *
                static_cast<double>(width);
            // Interpolation can overshoot the observed maximum when
            // the top bucket is sparsely filled; no sample exceeds mx,
            // so clamp (keeps p99 <= max in every summary).
            return std::min(lo + within * static_cast<double>(width),
                            static_cast<double>(mx));
        }
        seen += counts[b];
    }
    // The rank lands in the overflow bucket: the best bound we have is
    // the observed maximum.
    return static_cast<double>(mx);
}

} // namespace stats
} // namespace tengig
