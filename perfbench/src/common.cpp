#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace pb {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double const pos = q * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(pos);
    std::size_t const hi = std::min(lo + 1, v.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void LatencyLog::prepare(std::size_t max_samples, std::size_t max_rounds) {
    us.assign(max_samples, 0.0f);
    kinds.assign(max_samples, 0);
    rounds.assign(max_rounds, Round{0, 0, 0});
    n = 0;
    n_rounds = 0;
}

int LatencyLog::kind(std::string const& name, bool op) {
    for (std::size_t i = 0; i < kind_names.size(); ++i) {
        if (kind_names[i] == name) return static_cast<int>(i);
    }
    kind_names.push_back(name);
    kind_is_op.push_back(op ? 1 : 0);
    return static_cast<int>(kind_names.size() - 1);
}

std::vector<double> LatencyLog::samples(int k) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
        if (k < 0 ? kind_is_op[kinds[i]] != 0 : kinds[i] == k) out.push_back(us[i]);
    }
    return out;
}

double LatencyLog::p50(std::string const& name) const {
    for (std::size_t i = 0; i < kind_names.size(); ++i) {
        if (kind_names[i] == name) return median(samples(static_cast<int>(i)));
    }
    return 0.0;
}

long LatencyLog::ops() const {
    long total = 0;
    for (std::size_t i = 0; i < n_rounds; ++i) total += rounds[i].ops;
    return total;
}

WindowStats window_stats(LatencyLog const& log) {
    constexpr std::int64_t kMinWindowNs = 500'000'000;
    // Enough ops for a window p90 in apps, whose op is a whole round.
    constexpr std::size_t kMinWindowOps = 16;
    std::vector<double> rates, p50s, p90s;
    std::vector<double> win;
    std::int64_t start = log.start_ns;
    std::size_t first_sample = 0;
    std::size_t op_samples = 0;
    long ops = 0;
    auto close = [&](std::int64_t end, std::size_t samples_end) {
        win.clear();
        for (std::size_t i = first_sample; i < samples_end; ++i) {
            if (log.kind_is_op[log.kinds[i]] != 0) win.push_back(log.us[i]);
        }
        rates.push_back(static_cast<double>(ops) * 1e9 / static_cast<double>(end - start));
        p50s.push_back(quantile(win, 0.5));
        p90s.push_back(quantile(win, 0.9));
    };
    std::size_t counted = 0;
    for (std::size_t r = 0; r < log.n_rounds; ++r) {
        LatencyLog::Round const& rd = log.rounds[r];
        ops += rd.ops;
        for (; counted < rd.samples_end; ++counted) op_samples += log.kind_is_op[log.kinds[counted]];
        if (rd.end_ns - start >= kMinWindowNs && op_samples >= kMinWindowOps) {
            close(rd.end_ns, rd.samples_end);
            start = rd.end_ns;
            first_sample = rd.samples_end;
            op_samples = 0;
            ops = 0;
        }
    }
    if (rates.empty() && log.n_rounds > 0) {
        // Too short for one full window: the whole phase is one.
        start = log.start_ns;
        first_sample = 0;
        ops = log.ops();
        close(log.rounds[log.n_rounds - 1].end_ns, log.rounds[log.n_rounds - 1].samples_end);
    }
    WindowStats w;
    w.ops_per_s = quantile(rates, 0.75);
    w.p50_us = quantile(p50s, 0.25);
    w.p90_us = quantile(p90s, 0.25);
    w.windows = static_cast<int>(rates.size());
    return w;
}

CounterSnap CounterSnap::operator-(CounterSnap const& o) const {
    CounterSnap d;
    d.messages = messages - o.messages;
    d.bytes = bytes - o.bytes;
    d.builds = builds - o.builds;
    d.hits = hits - o.hits;
    d.peak_scratch = peak_scratch;
    d.wait_ns = wait_ns - o.wait_ns;
    d.shm_copies = shm_copies - o.shm_copies;
    d.shm_copy_bytes = shm_copy_bytes - o.shm_copy_bytes;
    d.shm_drains = shm_drains - o.shm_drains;
    d.offloaded = offloaded - o.offloaded;
    return d;
}

CounterSnap& CounterSnap::operator+=(CounterSnap const& o) {
    messages += o.messages;
    bytes += o.bytes;
    builds += o.builds;
    hits += o.hits;
    peak_scratch = std::max(peak_scratch, o.peak_scratch);
    wait_ns += o.wait_ns;
    shm_copies += o.shm_copies;
    shm_copy_bytes += o.shm_copy_bytes;
    shm_drains += o.shm_drains;
    offloaded += o.offloaded;
    return *this;
}

std::uint64_t pvar(char const* name) {
    int num = 0;
    if (XMPI_T_pvar_num(&num) != MPI_SUCCESS) return 0;
    for (int i = 0; i < num; ++i) {
        char buf[128];
        int values = 0;
        if (XMPI_T_pvar_name(i, buf, sizeof buf, &values) != MPI_SUCCESS) continue;
        if (std::strcmp(buf, name) != 0 || values != 1) continue;
        unsigned long long v = 0;
        int count = 1;
        if (XMPI_T_pvar_read(i, &v, &count) != MPI_SUCCESS) return 0;
        return v;
    }
    return 0;
}

CounterSnap rank_counters() {
    xmpi::Counters const c = xmpi::counters_now();
    CounterSnap s;
    s.messages = c.p2p_messages + c.coll_messages;
    s.bytes = c.p2p_bytes + c.coll_bytes;
    s.builds = c.schedule_builds;
    s.hits = c.schedule_cache_hits;
    s.peak_scratch = c.schedule_peak_scratch_bytes;
    s.shm_copies = c.shm_copies;
    s.shm_copy_bytes = c.shm_copy_bytes;
    s.wait_ns = pvar("p2p.wait_time_ns");
    return s;
}

void add_process_wide(CounterSnap& s) {
    s.shm_drains = pvar("shm.drains");
    s.offloaded = pvar("progress.schedules_offloaded");
}

void timed_loop(int rank, double seconds, StopFlag& stop, LatencyLog* log,
                std::function<int(long)> const& round, CounterSnap& before,
                CounterSnap& after) {
    MPI_Barrier(MPI_COMM_WORLD);
    before = rank_counters();
    std::int64_t const t0 = now_ns();
    std::int64_t const limit = t0 + static_cast<std::int64_t>(seconds * 1e9);
    if (log != nullptr) log->start_ns = t0;
    for (long r = 0;; ++r) {
        if (rank == 0 && stop.stop_round.load() == LONG_MAX && now_ns() >= limit) {
            stop.stop_round.store(r + 1);
        }
        if (r >= stop.stop_round.load()) break;
        int const ops = round(r);
        if (log != nullptr) log->end_round(ops);
    }
    after = rank_counters();
    MPI_Barrier(MPI_COMM_WORLD);
}

namespace {

/// Size in bytes of the last-level cache the C library reports (0 if
/// unknown).
std::size_t last_level_cache_bytes() {
    for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
        long const v = sysconf(name);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return 0;
}

}  // namespace

MemcpyCal calibrate_memcpy() {
    std::size_t const llc = last_level_cache_bytes();
    std::size_t const bytes = std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
    std::unique_ptr<char[]> src(new char[bytes]);
    std::unique_ptr<char[]> dst(new char[bytes]);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 2, bytes);
    std::vector<double> gbps;
    for (int rep = 0; rep < 3; ++rep) {
        std::int64_t const t0 = now_ns();
        std::memcpy(dst.get(), src.get(), bytes);
        std::int64_t const t1 = now_ns();
        gbps.push_back(static_cast<double>(bytes) / static_cast<double>(t1 - t0));
    }
    MemcpyCal cal;
    cal.gbps = median(gbps);
    cal.array_mib = static_cast<double>(bytes) / (1 << 20);
    cal.llc_mib = static_cast<double>(llc) / (1 << 20);
    // Keep the copy observable so it cannot be elided.
    if (dst[bytes / 2] != 1) cal.gbps = 0;
    return cal;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int host_cores() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return CPU_COUNT(&set);
}

}  // namespace pb
