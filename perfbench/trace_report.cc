#include "trace_report.h"

#include <algorithm>
#include <cstdint>

namespace perfbench {

namespace {

using qpulse::telemetry::TraceEvent;

std::uint64_t
endOf(const TraceEvent &ev)
{
    return ev.startNs + ev.durationNs;
}

/** Length of the union of [lo, hi) intervals (sorted in place). */
std::uint64_t
unionLength(std::vector<std::pair<std::uint64_t, std::uint64_t>> &spans)
{
    std::sort(spans.begin(), spans.end());
    std::uint64_t total = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto &[lo, hi] : spans) {
        if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
        }
        if (open)
            total += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

} // namespace

void
TraceAggregator::add(std::vector<TraceEvent> events)
{
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  if (a.durationNs != b.durationNs)
                      return a.durationNs > b.durationNs;
                  return a.seq < b.seq;
              });

    constexpr long kNone = -1;
    std::vector<long> parent(events.size(), kNone);
    std::map<std::uint32_t, std::vector<long>> stacks;
    for (std::size_t k = 0; k < events.size(); ++k) {
        const TraceEvent &ev = events[k];
        auto pop_ended = [&](std::vector<long> &stack) {
            while (!stack.empty() &&
                   endOf(events[static_cast<std::size_t>(stack.back())]) <=
                       ev.startNs)
                stack.pop_back();
        };
        std::vector<long> &own = stacks[ev.tid];
        pop_ended(own);
        // Same-thread spans nest; anything not containing this one
        // ended before it in a well-formed trace.
        while (!own.empty() &&
               endOf(events[static_cast<std::size_t>(own.back())]) <
                   endOf(ev))
            own.pop_back();
        if (!own.empty()) {
            parent[k] = own.back();
        } else if (ev.tid != 0) {
            std::vector<long> &main = stacks[0];
            pop_ended(main);
            for (auto it = main.rbegin(); it != main.rend(); ++it)
                if (endOf(events[static_cast<std::size_t>(*it)]) >=
                    endOf(ev)) {
                    parent[k] = *it;
                    break;
                }
        }
        own.push_back(static_cast<long>(k));
    }

    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(events.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
    for (std::size_t k = 0; k < events.size(); ++k) {
        const TraceEvent &ev = events[k];
        Row &row = rows_[ev.name];
        ++row.calls;
        row.totalUs += static_cast<double>(ev.durationNs) / 1e3;
        if (parent[k] == kNone) {
            top.emplace_back(ev.startNs, endOf(ev));
            continue;
        }
        const TraceEvent &up = events[static_cast<std::size_t>(parent[k])];
        children[static_cast<std::size_t>(parent[k])].emplace_back(
            ev.startNs, std::min(endOf(ev), endOf(up)));
        row.sinceParentStartUs +=
            static_cast<double>(ev.startNs - up.startNs) / 1e3;
        ++row.parented;
    }
    for (std::size_t k = 0; k < events.size(); ++k) {
        const std::uint64_t covered = unionLength(children[k]);
        const std::uint64_t dur = events[k].durationNs;
        rows_[events[k].name].selfUs +=
            static_cast<double>(dur - std::min(dur, covered)) / 1e3;
    }
    topLevelUs_ += static_cast<double>(unionLength(top)) / 1e3;
}

TraceAggregator::Row
TraceAggregator::row(const std::string &name) const
{
    const auto it = rows_.find(name);
    return it == rows_.end() ? Row{} : it->second;
}

} // namespace perfbench
