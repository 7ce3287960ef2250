#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct Record
{
    const char* name;
    double startMs;
    double endMs; ///< < 0 while open.
    int64_t parent;
    int64_t request;
    int tid;
};

std::atomic<bool> gEnabled{false};
std::mutex gMu;
std::vector<Record> gRecords; // guarded by gMu
std::atomic<int> gNextTid{0};

int
threadOrdinal()
{
    thread_local const int tid = gNextTid.fetch_add(1);
    return tid;
}

/** Innermost open span recorded on this thread, -1 if none. */
thread_local int64_t tOpen = -1;

int64_t
append(const Record& r)
{
    std::lock_guard<std::mutex> lock(gMu);
    gRecords.push_back(r);
    return static_cast<int64_t>(gRecords.size()) - 1;
}

} // namespace

namespace spans {

void enable() { gEnabled.store(true); }
void disable() { gEnabled.store(false); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

void
record(const char* name, double start_ms, double end_ms,
       int64_t request)
{
    if (enabled())
        append({name, start_ms, end_ms, -1, request, threadOrdinal()});
}

bool
writeChromeTrace(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(gMu);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < gRecords.size(); ++i) {
        const Record& r = gRecords[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"request\": %lld}}\n",
                     i ? "," : "", r.name, r.tid, r.startMs * 1e3,
                     (r.endMs - r.startMs) * 1e3, i,
                     static_cast<long long>(r.parent),
                     static_cast<long long>(r.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::map<std::string, SelfTime>
selfTimes()
{
    std::lock_guard<std::mutex> lock(gMu);
    std::vector<double> childMs(gRecords.size(), 0.0);
    for (const Record& r : gRecords)
        if (r.parent >= 0 && r.endMs >= 0)
            childMs[static_cast<size_t>(r.parent)] += r.endMs - r.startMs;
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < gRecords.size(); ++i) {
        const Record& r = gRecords[i];
        if (r.endMs < 0)
            continue;
        SelfTime& st = out[r.name];
        st.totalMs += r.endMs - r.startMs;
        st.selfMs += r.endMs - r.startMs - childMs[i];
        ++st.count;
    }
    return out;
}

} // namespace spans

Span::Span(const char* name, int64_t request)
    : startMs(nowMs())
{
    if (!spans::enabled())
        return;
    parent = tOpen;
    index = append({name, startMs, -1.0, parent, request,
                    threadOrdinal()});
    tOpen = index;
}

double
Span::stop()
{
    if (endMs < 0.0) {
        endMs = nowMs();
        if (index >= 0) {
            std::lock_guard<std::mutex> lock(gMu);
            gRecords[static_cast<size_t>(index)].endMs = endMs;
            tOpen = parent;
        }
    }
    return endMs - startMs;
}

} // namespace perfbench
