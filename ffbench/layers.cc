/**
 * @file
 * The traced run. Each layer's public functions are called one at a
 * time from here, with a span around every call; per-layer metrics are
 * read off the spans and the returned outcomes. The workload's own pass
 * is decomposed first (its wall time against the plain pass is
 * bench.trace_overhead_pct), then every layer the workload does not
 * exercise runs on the workload's inputs, so each workload reports
 * every per-layer metric.
 */

#include <atomic>
#include <cmath>
#include <filesystem>

#include "bench.hh"
#include "branch/gshare.hh"
#include "common/thread_pool.hh"
#include "memory/alat.hh"
#include "memory/hierarchy.hh"
#include "memory/sparse_memory.hh"
#include "memory/store_buffer.hh"
#include "sim/machine_config.hh"
#include "sim/pipe_trace.hh"
#include "sim/result_cache.hh"
#include "sim/sampled.hh"

namespace ffbench
{

using namespace ff;
namespace fs = std::filesystem;

namespace
{

using Suite = std::vector<workloads::Workload>;
using Grid = std::vector<sim::SimOutcome>;

const cpu::CpuKind kDetailedKinds[] = {
    cpu::CpuKind::kBaseline, cpu::CpuKind::kTwoPass,
    cpu::CpuKind::kTwoPassRegroup, cpu::CpuKind::kRunahead};

/** Repetitions of the workload's own traced pass (median wall). */
constexpr int kNativeReps = 3;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/** splitmix64: the component streams' seed-derived generator. */
struct Rng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
};

/** Median over @p reps timed repetitions of @p fn, in ns per op. */
template <typename Fn>
double
nsPerOp(std::size_t ops, int reps, Fn &&fn)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        per.push_back(since(t0) * 1e9 / static_cast<double>(ops));
    }
    return median(per);
}

/** State shared by the layer functions of one traced run. */
struct Run
{
    const TraceContext &ctx;
    Spans &spans;
    Metrics &m;
    std::uint64_t &attempted;
    std::uint64_t &failed;
    std::vector<std::string> &why;

    void
    gate(const Grid &grid, std::size_t variants,
         const std::vector<sim::FunctionalOutcome> &refs,
         const std::vector<std::string> *expect = nullptr)
    {
        attempted += grid.size();
        failed += checkGrid(grid, variants, refs, expect, why);
    }
};

// --- detailed simulation ------------------------------------------------

/** Cells of one (program x kind) detailed grid, row-major. */
struct DetailedGrid
{
    Grid grid;
    std::array<std::uint64_t, 4> hits{}, misses{}; ///< l1i l1d l2 l3
};

/**
 * Every cell through the admission wall, the model factory, the run
 * loop and outcome collection, fanned out over the pool; with
 * @p store_dir each outcome is also keyed and stored in the cache, and
 * so is each program's verification verdict.
 */
DetailedGrid
detailedLayer(Run &r, const Suite &suite, const std::string &store_dir)
{
    const std::size_t nk = std::size(kDetailedKinds);
    DetailedGrid out;
    out.grid.resize(suite.size() * nk);
    std::vector<std::array<std::uint64_t, 8>> cache_counts(
        out.grid.size());
    const cpu::CoreConfig cfg = sim::table1Config();
    sim::setResultCacheDir(store_dir);
    auto cell = [&](std::size_t i) {
        const isa::Program &prog = suite[i / nk].program;
        const cpu::CpuKind kind = kDetailedKinds[i % nk];
        const std::string tag = cpu::cpuKindName(kind);
        engine::ScopedSpan work("work");
        engine::ScopedSpan c(spanName("cell." + tag));
        {
            engine::ScopedSpan s("sim.verify");
            sim::verifyProgram(prog, cfg.limits);
        }
        std::unique_ptr<cpu::CpuModel> model;
        {
            engine::ScopedSpan s("cpu.make");
            model = cpu::makeModel(kind, prog, cfg);
        }
        cpu::RunResult run;
        {
            engine::ScopedSpan s(spanName("cpu.run." + tag));
            run = model->run(sim::kDefaultMaxCycles);
        }
        {
            engine::ScopedSpan s("sim.collect");
            out.grid[i] = sim::collectOutcome(*model, kind, run);
        }
        memory::Hierarchy &h = model->hierarchy();
        const memory::Cache *levels[] = {&h.l1i(), &h.l1d(), &h.l2(),
                                         &h.l3()};
        for (std::size_t l = 0; l < 4; ++l) {
            cache_counts[i][l] = levels[l]->hits();
            cache_counts[i][4 + l] = levels[l]->misses();
        }
        if (!store_dir.empty()) {
            std::string key;
            {
                engine::ScopedSpan s("sim.cache.key.store");
                key = sim::resultCacheKey(prog, kind, cfg,
                                          sim::kDefaultMaxCycles);
            }
            engine::ScopedSpan s("sim.cache.store");
            sim::resultCacheStore(key, out.grid[i]);
        }
    };
    ThreadPool pool(r.ctx.jobs);
    r.spans.record([&] { pool.parallelFor(out.grid.size(), cell); });
    if (!store_dir.empty())
        storeVerdicts(suite);
    sim::setResultCacheDir("");
    for (const auto &cc : cache_counts) {
        for (std::size_t l = 0; l < 4; ++l) {
            out.hits[l] += cc[l];
            out.misses[l] += cc[4 + l];
        }
    }
    return out;
}

/** Per-kind host cost and simulated statistics of a detailed grid. */
void
detailedMetrics(Run &r, const DetailedGrid &d)
{
    const std::size_t nk = std::size(kDetailedKinds);
    for (std::size_t k = 0; k < nk; ++k) {
        const std::string tag = cpu::cpuKindName(kDetailedKinds[k]);
        const std::string p = "cpu." + tag + ".";
        double cycles = 0, insts = 0, load = 0, frontend = 0;
        for (std::size_t i = k; i < d.grid.size(); i += nk) {
            const sim::SimOutcome &o = d.grid[i];
            cycles += static_cast<double>(o.run.cycles);
            insts += static_cast<double>(o.run.instsRetired);
            load += static_cast<double>(
                o.cycles.of(cpu::CycleClass::kLoadStall));
            frontend += static_cast<double>(
                o.cycles.of(cpu::CycleClass::kFrontEndStall));
        }
        const std::vector<double> cell_s = r.spans.durations("cell." + tag);
        r.m.put(p + "ns_per_cycle",
                ratio(r.spans.total("cpu.run." + tag) * 1e9, cycles),
                "ns");
        r.m.put(p + "cell_s.p50", median(cell_s), "s");
        r.m.put(p + "cell_s.max", maxOf(cell_s), "s");
        r.m.put(p + "ipc", ratio(insts, cycles), "insts/cycle");
        r.m.put(p + "load_stall_frac", ratio(load, cycles), "ratio");
        r.m.put(p + "frontend_stall_frac", ratio(frontend, cycles),
                "ratio");
    }

    // Two-pass specifics, over the 2P column.
    cpu::TwoPassStats tp;
    double cycles = 0, apipe = 0;
    for (std::size_t i = 1; i < d.grid.size(); i += nk) {
        const sim::SimOutcome &o = d.grid[i];
        const cpu::TwoPassStats &s = o.twopass;
        tp.dispatched += s.dispatched;
        tp.preExecuted += s.preExecuted;
        tp.deferred += s.deferred;
        tp.storeConflictFlushes += s.storeConflictFlushes;
        tp.bDetMispredicts += s.bDetMispredicts;
        tp.feedbackApplied += s.feedbackApplied;
        cycles += static_cast<double>(o.run.cycles);
        apipe += static_cast<double>(
            o.cycles.of(cpu::CycleClass::kApipeStall));
    }
    const double dispatched = static_cast<double>(tp.dispatched);
    r.m.put("cpu.2P.defer_frac",
            ratio(static_cast<double>(tp.deferred), dispatched), "ratio");
    r.m.put("cpu.2P.preexec_frac",
            ratio(static_cast<double>(tp.preExecuted), dispatched),
            "ratio");
    r.m.put("cpu.2P.apipe_stall_frac", ratio(apipe, cycles), "ratio");
    r.m.put("cpu.2P.flushes",
            static_cast<double>(tp.storeConflictFlushes +
                                tp.bDetMispredicts),
            "count");
    r.m.put("cpu.2P.feedback_applied",
            static_cast<double>(tp.feedbackApplied), "count");

    const char *levels[] = {"l1i", "l1d", "l2", "l3"};
    for (std::size_t l = 0; l < 4; ++l) {
        r.m.put(std::string("memory.") + levels[l] + ".miss_rate",
                ratio(static_cast<double>(d.misses[l]),
                      static_cast<double>(d.hits[l] + d.misses[l])),
                "ratio");
    }
    double lookups = 0, mispredicts = 0;
    for (const sim::SimOutcome &o : d.grid) {
        lookups += static_cast<double>(o.branches.lookups);
        mispredicts += static_cast<double>(o.branches.mispredicts);
    }
    r.m.put("branch.mispredict_rate", ratio(mispredicts, lookups),
            "ratio");
}

/** The paper's S3/S4 headline numbers from a detailed grid. */
void
modelMetrics(Run &r, const Suite &suite, const DetailedGrid &d)
{
    const std::size_t nk = std::size(kDetailedKinds);
    double log_2pre_over_2p = 0.0;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const sim::SimOutcome &base = d.grid[w * nk + 0];
        const sim::SimOutcome &twop = d.grid[w * nk + 1];
        const sim::SimOutcome &twopre = d.grid[w * nk + 2];
        log_2pre_over_2p +=
            std::log(static_cast<double>(twop.run.cycles) /
                     static_cast<double>(twopre.run.cycles));
        if (suite[w].name != "181.mcf")
            continue;
        const double base_load = static_cast<double>(
            base.cycles.of(cpu::CycleClass::kLoadStall));
        const double twop_load = static_cast<double>(
            twop.cycles.of(cpu::CycleClass::kLoadStall));
        r.m.put("model.mcf_load_stall_reduction",
                1.0 - ratio(twop_load, base_load), "ratio");
        r.m.put("model.mcf_cycle_reduction",
                1.0 - ratio(static_cast<double>(twop.run.cycles),
                            static_cast<double>(base.run.cycles)),
                "ratio");
    }
    r.m.put("model.speedup_2pre_over_2p",
            std::exp(log_2pre_over_2p /
                     static_cast<double>(suite.size())),
            "x");
}

// --- sampled simulation ---------------------------------------------------

/** The sampled phases one call at a time: plan, replays, stitch. */
Grid
sampledLayer(Run &r, const Suite &suite,
             const std::vector<sim::SweepVariant> &variants)
{
    const sim::SampledOptions opts = variants.front().sampled.normalized();
    std::vector<sim::SampledPlan> plans(suite.size());
    ThreadPool pool(r.ctx.jobs);
    r.spans.record([&] {
        pool.parallelFor(suite.size(), [&](std::size_t i) {
            engine::ScopedSpan work("work");
            engine::ScopedSpan s("sim.sampled.plan");
            plans[i] = sim::sampledCheckpointPass(suite[i].program, opts);
        });
    });

    struct Unit
    {
        std::size_t cell, interval;
    };
    const std::size_t nv = variants.size();
    std::vector<Unit> units;
    std::vector<std::vector<sim::IntervalMeasure>> measures(suite.size() *
                                                            nv);
    for (std::size_t c = 0; c < measures.size(); ++c) {
        measures[c].resize(plans[c / nv].checkpoints.size());
        for (std::size_t k = 0; k < measures[c].size(); ++k)
            units.push_back({c, k});
    }
    r.spans.record([&] {
        pool.parallelFor(units.size(), [&](std::size_t u) {
            const Unit &unit = units[u];
            const sim::SweepVariant &v = variants[unit.cell % nv];
            engine::ScopedSpan work("work");
            engine::ScopedSpan s("sim.sampled.replay");
            measures[unit.cell][unit.interval] = sim::measureInterval(
                suite[unit.cell / nv].program, v.kind, v.cfg,
                plans[unit.cell / nv], unit.interval);
        });
    });

    // One span over every stitch: a single call is below the
    // recorder's 1 us resolution.
    Grid grid(measures.size());
    r.spans.record([&] {
        engine::ScopedSpan s("sim.sampled.stitch");
        for (std::size_t c = 0; c < grid.size(); ++c)
            grid[c] = sim::stitchSampled(variants[c % nv].kind,
                                         plans[c / nv], measures[c]);
    });

    double sampled_cycles = 0, estimated = 0;
    for (const sim::SimOutcome &o : grid) {
        sampled_cycles += static_cast<double>(o.sampled->sampledCycles);
        estimated += o.sampled->estimatedCycles;
    }
    r.m.put("sim.sampled.plan_s", r.spans.total("sim.sampled.plan"), "s");
    r.m.put("sim.sampled.replay_s", r.spans.total("sim.sampled.replay"),
            "s");
    r.m.put("sim.sampled.stitch_s", r.spans.total("sim.sampled.stitch"),
            "s");
    r.m.put("sim.sampled.replays", static_cast<double>(units.size()),
            "count");
    r.m.put("sim.sampled.detail_frac", ratio(sampled_cycles, estimated),
            "ratio");
    return grid;
}

/**
 * Sampled estimates against the detailed runs of the same cells: the
 * largest relative IPC error and the share of 95% intervals that cover
 * the detailed IPC.
 */
void
samplingAccuracy(Run &r, const Grid &sampled,
                 const std::vector<sim::SweepVariant> &variants,
                 const DetailedGrid &d)
{
    const std::size_t nv = variants.size();
    const std::size_t nk = std::size(kDetailedKinds);
    double max_err = 0.0;
    unsigned covered = 0;
    for (std::size_t c = 0; c < sampled.size(); ++c) {
        const sim::SimOutcome *full = nullptr;
        for (std::size_t k = 0; k < nk; ++k) {
            if (kDetailedKinds[k] == variants[c % nv].kind)
                full = &d.grid[(c / nv) * nk + k];
        }
        const double truth = full->run.ipc();
        const sim::SampledEstimate &e = *sampled[c].sampled;
        max_err = std::max(max_err, std::fabs(e.ipcMean - truth) / truth);
        covered += std::fabs(e.ipcMean - truth) <= e.ipcCi95 ? 1 : 0;
    }
    r.m.put("sim.sampled.ipc_err_pct", 100.0 * max_err, "%");
    r.m.put("sim.sampled.ci95_coverage",
            ratio(covered, static_cast<double>(sampled.size())), "ratio");
}

// --- result and verification caches ----------------------------------------

/** Keys and looks up every detailed cell of @p suite in @p dir. */
Grid
cacheLookupLayer(Run &r, const Suite &suite,
                 const std::vector<sim::SweepVariant> &variants,
                 const std::string &dir)
{
    sim::setResultCacheDir(dir);
    sim::resetResultCacheStats();
    const std::size_t nv = variants.size();
    Grid grid(suite.size() * nv);
    // A lookup takes a few microseconds, near the span recorder's 1 us
    // resolution, so it is timed here directly.
    std::vector<double> lookup_us(grid.size());
    ThreadPool pool(r.ctx.jobs);
    r.spans.record([&] {
        pool.parallelFor(grid.size(), [&](std::size_t i) {
            const sim::SweepVariant &v = variants[i % nv];
            engine::ScopedSpan work("work");
            std::string key;
            {
                engine::ScopedSpan s("sim.cache.key.lookup");
                key = sim::resultCacheKey(suite[i / nv].program, v.kind,
                                          v.cfg, sim::kDefaultMaxCycles);
            }
            engine::ScopedSpan s("sim.cache.lookup");
            const auto t0 = Clock::now();
            sim::resultCacheLookup(key, grid[i]);
            lookup_us[i] = 1e6 * since(t0);
        });
    });
    const sim::ResultCacheStats st = sim::resultCacheStats();
    sim::setResultCacheDir("");

    const double lookups = static_cast<double>(grid.size());
    r.m.put("sim.cache.key_us",
            1e6 * median(r.spans.durations("sim.cache.key.lookup")), "us");
    r.m.put("sim.cache.lookup_us", median(lookup_us), "us");
    r.m.put("sim.cache.hit_ratio", ratio(st.hits, lookups), "ratio");
    r.m.put("sim.cache.errors", static_cast<double>(st.errors), "count");
    return grid;
}

/** Store cost and entry size of a directory filled by detailedLayer. */
void
cacheStoreMetrics(Run &r, const std::string &dir)
{
    double bytes = 0, entries = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".ffr") {
            bytes += static_cast<double>(e.file_size());
            entries += 1;
        }
    }
    r.m.put("sim.cache.store_us",
            1e6 * median(r.spans.durations("sim.cache.store")), "us");
    r.m.put("sim.cache.bytes_per_entry", ratio(bytes, entries), "B");
}

/** Verification-cache lookups of every program against @p dir. */
void
verifyCacheLayer(Run &r, const Suite &suite, const std::string &dir)
{
    sim::setResultCacheDir(dir);
    sim::resetVerifyCacheStats();
    r.spans.record([&] {
        for (const workloads::Workload &w : suite) {
            engine::ScopedSpan s("sim.verify_cache.lookup");
            sim::verifyCacheLookup(
                sim::verifyCacheKey(w.program, sim::table1Config().limits));
        }
    });
    const sim::VerifyCacheStats st = sim::verifyCacheStats();
    sim::setResultCacheDir("");
    r.m.put("sim.verify_cache.hit_ratio",
            ratio(st.hits, static_cast<double>(st.hits + st.misses)),
            "ratio");
}

// --- pipeline tracing ----------------------------------------------------

/**
 * Observed runs with pipeview, profile and telemetry, each packaged by
 * buildPipeTrace and encoded as FFPT; fanned out like the plain sweep.
 */
struct PipeCells
{
    Grid traced;
    std::vector<std::uint64_t> events, bytes;
};

PipeCells
pipeLayer(Run &r, const Suite &suite,
          const std::vector<sim::SweepVariant> &variants)
{
    const std::size_t nv = variants.size();
    PipeCells out;
    out.traced.resize(suite.size() * nv);
    out.events.resize(out.traced.size());
    out.bytes.resize(out.traced.size());
    ThreadPool pool(r.ctx.jobs);
    r.spans.record([&] {
        pool.parallelFor(out.traced.size(), [&](std::size_t i) {
            const sim::SweepVariant &v = variants[i % nv];
            engine::ScopedSpan work("work");
            out.traced[i] =
                sim::simulate(suite[i / nv].program, v.kind, v.cfg,
                              sim::kDefaultMaxCycles, v.metrics);
        });
        for (std::size_t i = 0; i < out.traced.size(); ++i) {
            const workloads::Workload &w = suite[i / nv];
            const sim::SweepVariant &v = variants[i % nv];
            const sim::MetricsRecord &rec = *out.traced[i].metrics;
            sim::PipeTrace t;
            {
                engine::ScopedSpan s("sim.pipe_trace.build");
                t = sim::buildPipeTrace(w.program, v.cfg, v.kind,
                                        out.traced[i].run.cycles,
                                        rec.pipeEvents, rec.pipeDropped,
                                        w.name);
            }
            out.events[i] = t.events.size();
            engine::ScopedSpan s("sim.pipe_trace.encode");
            out.bytes[i] = sim::encodePipeTrace(t).size();
        }
    });
    return out;
}

/**
 * The metrics of a pipe layer run, plus the detached runs of the same
 * cells (which must be bit-identical) and one Chrome-JSON export. The
 * 2P cells also run traced one at a time, beside their detached runs,
 * so cpu.2P.trace_overhead_x compares runs timed the same way.
 */
void
pipeMetrics(Run &r, const Suite &suite,
            const std::vector<sim::SweepVariant> &variants,
            const PipeCells &cells,
            const std::vector<sim::FunctionalOutcome> &refs)
{
    const std::size_t nv = variants.size();
    Grid detached(cells.traced.size());
    Grid serial_traced;
    std::vector<std::string> expect, serial_expect;
    std::vector<sim::FunctionalOutcome> serial_refs;
    r.spans.record([&] {
        for (std::size_t i = 0; i < detached.size(); ++i) {
            const isa::Program &prog = suite[i / nv].program;
            const sim::SweepVariant &v = variants[i % nv];
            const bool twop = v.kind == cpu::CpuKind::kTwoPass;
            {
                engine::ScopedSpan s(twop ? "cpu.2P.serial_detached_run"
                                          : "cpu.detached_run");
                detached[i] = sim::simulate(prog, v.kind, v.cfg);
            }
            expect.push_back(outcomeDigest(detached[i]));
            if (!twop)
                continue;
            engine::ScopedSpan s("cpu.2P.serial_traced_run");
            serial_traced.push_back(sim::simulate(
                prog, v.kind, v.cfg, sim::kDefaultMaxCycles, v.metrics));
            serial_expect.push_back(expect.back());
            serial_refs.push_back(refs[i / nv]);
        }
    });
    r.gate(cells.traced, nv, refs, &expect);
    r.gate(serial_traced, 1, serial_refs, &serial_expect);

    double events = 0, cycles = 0, bytes = 0, dropped = 0;
    for (std::size_t i = 0; i < cells.traced.size(); ++i) {
        events += static_cast<double>(cells.events[i]);
        bytes += static_cast<double>(cells.bytes[i]);
        cycles += static_cast<double>(cells.traced[i].run.cycles);
        dropped += static_cast<double>(cells.traced[i].metrics->pipeDropped);
    }
    r.m.put("cpu.pipeview.events_per_cycle", ratio(events, cycles),
            "events/cycle");
    r.m.put("cpu.pipeview.dropped", dropped, "count");
    r.m.put("cpu.2P.trace_overhead_x",
            ratio(r.spans.total("cpu.2P.serial_traced_run"),
                  r.spans.total("cpu.2P.serial_detached_run")),
            "x");
    r.m.put("sim.pipe_trace.build_s", r.spans.total("sim.pipe_trace.build"),
            "s");
    r.m.put("sim.pipe_trace.encode_s",
            r.spans.total("sim.pipe_trace.encode"), "s");
    r.m.put("sim.pipe_trace.bytes_per_event", ratio(bytes, events),
            "B/event");

    // Chrome export of the smallest traced cell (it costs 10-20x the
    // simulation, so one cell stands for the layer).
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < cells.events.size(); ++i)
        if (cells.events[i] < cells.events[smallest])
            smallest = i;
    const workloads::Workload &w = suite[smallest / nv];
    const sim::SweepVariant &v = variants[smallest % nv];
    const sim::MetricsRecord &rec = *cells.traced[smallest].metrics;
    const sim::PipeTrace t = sim::buildPipeTrace(
        w.program, v.cfg, v.kind, cells.traced[smallest].run.cycles,
        rec.pipeEvents, rec.pipeDropped, w.name);
    const auto t0 = Clock::now();
    const std::string json = sim::pipeTraceToChromeJson(t);
    r.m.put("sim.pipe_trace.chrome_export_s", since(t0), "s");
    if (json.empty())
        r.why.push_back("empty Chrome trace export");
}

// --- components ------------------------------------------------------------

/** Seed-derived streams through each memory and branch component. */
void
componentLayer(Run &r)
{
    Rng rng{r.ctx.seed ^ 0xC0FFEE1234ULL};
    constexpr int kReps = 5;
    std::uint64_t sink = 0;

    constexpr std::size_t kN = 1 << 16;
    std::vector<Addr> l1_addrs(kN), far_addrs(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        l1_addrs[i] = 0x100000 + (rng.next() & 0x1FF8);      // 8 KiB
        far_addrs[i] = 0x10000000 + (rng.next() & 0x3FFFFFC0); // 1 GiB
    }

    {
        memory::Hierarchy h{memory::MemoryConfig{}};
        Cycle now = 0;
        for (Addr a : l1_addrs) { // warm the L1
            h.tick(now);
            h.access(memory::AccessKind::kLoad,
                     memory::Initiator::kBaseline, a, now++);
        }
        r.m.put("memory.hier.ns_per_access.l1",
                nsPerOp(kN, kReps, [&] {
                    for (Addr a : l1_addrs) {
                        h.tick(now);
                        sink += h.access(memory::AccessKind::kLoad,
                                         memory::Initiator::kBaseline, a,
                                         now++)
                                    .latency;
                    }
                }),
                "ns");
    }
    {
        memory::Hierarchy h{memory::MemoryConfig{}};
        Cycle now = 0;
        // One access per 16 cycles keeps the 16 MSHRs from saturating.
        r.m.put("memory.hier.ns_per_access.miss",
                nsPerOp(kN, kReps, [&] {
                    for (Addr a : far_addrs) {
                        h.tick(now);
                        sink += h.access(memory::AccessKind::kLoad,
                                         memory::Initiator::kBaseline, a,
                                         now)
                                    .latency;
                        now += 16;
                    }
                }),
                "ns");
    }
    {
        memory::SparseMemory mem;
        for (Addr a : far_addrs)
            mem.write64(a & ~Addr{7} & 0xFFFFFF, a); // 16 MiB footprint
        r.m.put("memory.sparse.ns_per_access",
                nsPerOp(kN, kReps, [&] {
                    for (Addr a : far_addrs)
                        sink += mem.read64(a & ~Addr{7} & 0xFFFFFF);
                }),
                "ns");
    }
    {
        memory::Alat alat(0);
        DynId id = 1;
        r.m.put("memory.alat.ns_per_op",
                nsPerOp(4 * kN, kReps, [&] {
                    for (std::size_t i = 0; i < kN; ++i, ++id) {
                        alat.allocate(id, l1_addrs[i], 8);
                        alat.invalidateOverlap(l1_addrs[(i + 7) % kN], 8);
                        sink += alat.check(id) ? 1 : 0;
                        alat.remove(id);
                    }
                }),
                "ns");
    }
    {
        memory::StoreBuffer sbuf(64);
        memory::SparseMemory mem;
        for (DynId i = 1; i <= 32; ++i)
            sbuf.insert(i, l1_addrs[i], 8, rng.next());
        std::vector<Addr> loads(kN);
        for (std::size_t i = 0; i < kN; ++i)
            loads[i] = l1_addrs[1 + rng.next() % 32];
        r.m.put("memory.store_buffer.ns_per_forward",
                nsPerOp(kN, kReps, [&] {
                    for (Addr a : loads)
                        sink += sbuf.read(100, a, 8, mem, nullptr);
                }),
                "ns");
    }
    {
        branch::GsharePredictor pred(1024);
        std::vector<std::uint64_t> stream(kN);
        for (auto &s : stream)
            s = rng.next();
        r.m.put("branch.gshare.ns_per_op",
                nsPerOp(kN, kReps, [&] {
                    for (std::uint64_t s : stream) {
                        const Addr pc = 0x40000000 + ((s & 0xFFF) << 4);
                        auto p = pred.predict(pc);
                        sink += p.taken ? 1 : 0;
                        pred.update(p, ((s >> 20) & 3) != 0);
                    }
                }),
                "ns");
    }
    {
        ThreadPool pool(r.ctx.jobs);
        std::atomic<std::uint64_t> n{0};
        std::vector<double> us;
        for (int i = 0; i < 200; ++i) {
            const auto t0 = Clock::now();
            pool.parallelFor(4 * r.ctx.jobs, [&](std::size_t) {
                n.fetch_add(1, std::memory_order_relaxed);
            });
            us.push_back(since(t0) * 1e6);
        }
        sink += n.load();
        r.m.put("common.pool.parallel_for_us", median(us), "us");
    }
    if (sink == 0x5EED) // keeps the streams' results observable
        std::printf("# component sink %llu\n",
                    static_cast<unsigned long long>(sink));
}

/** Functional reference throughput, one call per program. */
void
functionalLayer(Run &r, const Suite &suite)
{
    std::vector<sim::FunctionalOutcome> outs(suite.size());
    ThreadPool pool(r.ctx.jobs);
    r.spans.record([&] {
        pool.parallelFor(suite.size(), [&](std::size_t i) {
            engine::ScopedSpan s("cpu.functional");
            outs[i] = sim::runFunctional(suite[i].program);
        });
    });
    double insts = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        insts += static_cast<double>(outs[i].result.instsExecuted);
        const sim::FunctionalOutcome &ref = (*r.ctx.refs)[i];
        ++r.attempted;
        if (outs[i].checksum != ref.checksum ||
            outs[i].memFingerprint != ref.memFingerprint ||
            outs[i].regFingerprint != ref.regFingerprint) {
            ++r.failed;
            r.why.push_back(suite[i].name +
                            ": functional reference is not repeatable");
        }
    }
    r.m.put("cpu.functional.ns_per_inst",
            ratio(r.spans.total("cpu.functional") * 1e9, insts), "ns");
}

} // namespace

Metrics
tracedRun(const TraceContext &ctx, std::uint64_t &attempted,
          std::uint64_t &failed, std::vector<std::string> &why)
{
    Metrics m;
    Spans spans;
    Run r{ctx, spans, m, attempted, failed, why};
    const Spec &spec = *ctx.spec;
    const Suite &suite = *ctx.suite;
    const std::vector<sim::FunctionalOutcome> &refs = *ctx.refs;
    const std::vector<sim::SweepVariant> &detailed_variants =
        findSpec("suite-cold")->variants;
    const Spec &sampled_spec = *findSpec("suite-sampled");
    const Spec &pipe_spec = *findSpec("traced-2p");
    // The plain grids of suite-cold and suite-cached are the detailed
    // grid; the traced decomposition must reproduce them bit for bit.
    std::vector<std::string> plain_digests;
    for (const sim::SimOutcome &o : *ctx.plainGrid)
        plain_digests.push_back(outcomeDigest(o));
    const std::vector<std::string> *plain = &plain_digests;

    // Set-up layers, one call per program.
    spans.record([&] {
        const Suite inputs =
            buildInputs(spec.programs, ctx.seed, spec.scale, ctx.jobs);
        const unsigned rejected = checkInputs(inputs);
        attempted += rejected;
        failed += rejected;
    });
    m.put("workloads.build_s", spans.total("workloads.build"), "s");
    m.put("compiler.schedule_s", spans.total("compiler.schedule"), "s");
    m.put("analysis.check_s", spans.total("analysis.check"), "s");

    // The workload's own pass, decomposed. Only its "work" spans exist
    // while the first repetition runs, which parallel_efficiency relies
    // on. Further repetitions, with throwaway spans and metrics, only
    // steady the wall time behind bench.trace_overhead_pct.
    const std::string store_dir =
        (fs::path(ctx.stateDir) / "traced-store").string();
    struct Native
    {
        DetailedGrid detailed;
        Grid sampled, lookups;
        PipeCells pipe;
        double wall = 0.0;
    };
    auto run_native = [&](Run &run, const std::string &dir) {
        fs::remove_all(dir);
        Native n;
        const auto t0 = Clock::now();
        if (spec.cache == CacheUse::kCold) {
            n.detailed = detailedLayer(run, suite, dir);
        } else if (spec.cache == CacheUse::kWarm) {
            Suite rebuilt;
            run.spans.record([&] {
                rebuilt = buildInputs(spec.programs, ctx.seed, spec.scale,
                                      ctx.jobs);
            });
            verifyCacheLayer(run, rebuilt, ctx.warmCacheDir);
            n.lookups = cacheLookupLayer(run, rebuilt, spec.variants,
                                         ctx.warmCacheDir);
        } else if (spec.pipeTrace) {
            n.pipe = pipeLayer(run, suite, spec.variants);
        } else {
            n.sampled = sampledLayer(run, suite, spec.variants);
        }
        n.wall = since(t0);
        return n;
    };
    Native native = run_native(r, store_dir);
    // parallelFor runs work on the pool's workers and on its caller.
    m.put("sim.batch.parallel_efficiency",
          ratio(spans.total("work"),
                static_cast<double>(ctx.jobs + 1) * native.wall),
          "ratio");
    std::vector<double> walls{native.wall};
    for (int rep = 1; rep < kNativeReps; ++rep) {
        Spans ignored_spans;
        Metrics ignored;
        std::uint64_t a = 0, f = 0;
        std::vector<std::string> w;
        Run extra{ctx, ignored_spans, ignored, a, f, w};
        walls.push_back(run_native(extra, store_dir + "-rep").wall);
        fs::remove_all(store_dir + "-rep");
    }
    m.put("bench.trace_overhead_pct",
          100.0 * (median(walls) / ctx.plainWallS - 1.0), "%");

    DetailedGrid &detailed = native.detailed;
    Grid &sampled = native.sampled;
    const bool have_detailed = spec.cache == CacheUse::kCold;
    const bool have_lookup = spec.cache == CacheUse::kWarm;
    const bool have_pipe = spec.pipeTrace;
    if (have_lookup)
        r.gate(native.lookups, spec.variants.size(), refs, plain);
    else if (have_pipe)
        pipeMetrics(r, suite, spec.variants, native.pipe, refs);
    else if (!sampled.empty())
        r.gate(sampled, spec.variants.size(), refs, plain);

    // Every other layer, on the workload's own inputs.
    if (!have_detailed)
        detailed = detailedLayer(r, suite, store_dir);
    r.gate(detailed.grid, detailed_variants.size(), refs,
           spec.cache == CacheUse::kNone ? nullptr : plain);
    detailedMetrics(r, detailed);
    modelMetrics(r, suite, detailed);
    cacheStoreMetrics(r, store_dir);
    if (!have_lookup) {
        verifyCacheLayer(r, suite, store_dir);
        r.gate(cacheLookupLayer(r, suite, detailed_variants, store_dir),
               detailed_variants.size(), refs);
    }
    fs::remove_all(store_dir);

    if (sampled.empty()) {
        sampled = sampledLayer(r, suite, sampled_spec.variants);
        r.gate(sampled, sampled_spec.variants.size(), refs);
    }
    samplingAccuracy(r, sampled, sampled_spec.variants, detailed);

    if (!have_pipe) {
        const Suite inputs = buildInputs(pipe_spec.programs, ctx.seed,
                                         pipe_spec.scale, ctx.jobs);
        std::vector<const isa::Program *> progs;
        for (const workloads::Workload &w : inputs)
            progs.push_back(&w.program);
        const PipeCells cells = pipeLayer(r, inputs, pipe_spec.variants);
        pipeMetrics(r, inputs, pipe_spec.variants, cells,
                    sim::runFunctionalBatch(progs, ctx.jobs));
    }

    functionalLayer(r, suite);
    componentLayer(r);
    return m;
}

} // namespace ffbench
