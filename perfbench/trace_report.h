/**
 * @file
 * Per-layer attribution of drained trace spans: calls, inclusive time
 * and self time (span minus the part of its interval its child spans
 * cover) per span name, plus the wall time top-level spans cover.
 *
 * Parenthood: a span's parent is the innermost span on the same
 * thread that contains it; a worker-thread span with no same-thread
 * container is parented to the innermost main-thread span containing
 * it (the parallelFor caller). Children running in parallel are
 * counted once, as the union of their intervals.
 */
#ifndef QPULSE_PERFBENCH_TRACE_REPORT_H
#define QPULSE_PERFBENCH_TRACE_REPORT_H

#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace perfbench {

class TraceAggregator
{
  public:
    struct Row
    {
        long calls = 0;
        double totalUs = 0.0; ///< Inclusive.
        double selfUs = 0.0;
        /** Sum of (start - parent start) over parented calls. */
        double sinceParentStartUs = 0.0;
        long parented = 0;
    };

    /**
     * Fold one drained batch. Every span of a batch must be complete
     * and no span may straddle two batches (drain at quiescent points).
     */
    void add(std::vector<qpulse::telemetry::TraceEvent> events);

    const std::map<std::string, Row> &rows() const { return rows_; }

    /** The row for `name` (all zero when the span never fired). */
    Row row(const std::string &name) const;

    /** Wall time covered by the union of parentless spans. */
    double topLevelUs() const { return topLevelUs_; }

  private:
    std::map<std::string, Row> rows_;
    double topLevelUs_ = 0.0;
};

} // namespace perfbench

#endif // QPULSE_PERFBENCH_TRACE_REPORT_H
