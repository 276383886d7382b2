/**
 * @file
 * ffbench: the repository benchmark. One invocation runs one named
 * workload for a fixed measurement window and prints every metric by
 * name with its unit; the last stdout line is the JSON result
 * {correct, attempted, failed, metrics}.
 *
 * Usage: ffbench --workload NAME --seed N --seconds S --trace 0|1
 *                --state-dir DIR [--git-sha SHA] [--git-dirty FLAG]
 *                [--source-digest HEX]
 *
 * Phases: set-up (input generation, scheduling, ffcheck verification,
 * plus the cache fill of suite-cached; repeated three times and the
 * median reported as setup_s), the functional reference (untimed),
 * the timed phase (whole passes of the workload until --seconds have
 * elapsed; each pass is checked against the reference outside its
 * timing), and with --trace 1 the traced run (see bench.hh). Every
 * pass runs under a wall-clock deadline: a pass that does not finish
 * is reported as failed and the process exits.
 */

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hh"
#include "sim/machine_config.hh"
#include "sim/pipe_trace.hh"
#include "sim/result_cache.hh"
#include "sim/snapshot.hh"

using namespace ff;
using namespace ffbench;
namespace fs = std::filesystem;

namespace
{

// Set-up repeats until both floors are met (median reported).
constexpr int kSetupMinReps = 3;
constexpr double kSetupMinS = 1.5;
constexpr int kSetupMaxReps = 200;
constexpr double kProcessBudgetS = 150.0; ///< hard stop of one run
constexpr double kPassDeadlineS = 40.0;   ///< one pass, at most

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string stateDir;
    std::string gitSha = "none";
    std::string gitDirty = "unknown";
    std::string sourceDigest = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false, have_state = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--state-dir") {
            a.stateDir = v;
            have_state = true;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else if (k == "--git-dirty") {
            a.gitDirty = v;
        } else if (k == "--source-digest") {
            a.sourceDigest = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_state &&
           a.seconds > 0.0;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics &m)
{
    std::string j = "{\"correct\": ";
    j += correct ? "true" : "false";
    j += ", \"attempted\": " + std::to_string(attempted);
    j += ", \"failed\": " + std::to_string(failed);
    j += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : m.byName) {
        j += first ? "" : ", ";
        first = false;
        j += "\"" + name + "\": {\"value\": " + jsonNumber(metric.value) +
             ", \"unit\": \"" + metric.unit + "\"}";
    }
    return j + "}}";
}

/**
 * Fires when a pass (or the whole run) overruns its deadline: the
 * pending cells are reported as failed and the process exits, since a
 * hung simulation cannot be cancelled from outside.
 */
class Watchdog
{
  public:
    Watchdog() : _thread([this] { loop(); }) {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lk(_mu);
            _stop = true;
        }
        _cv.notify_all();
        _thread.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Arms the deadline; @p pending cells fail if it passes. */
    void
    arm(Clock::time_point deadline, std::uint64_t attempted,
        std::uint64_t failed, std::uint64_t pending)
    {
        {
            std::lock_guard<std::mutex> lk(_mu);
            _deadline = deadline;
            _attempted = attempted + pending;
            _failed = failed + pending;
        }
        // For run.py, should this process die without a result.
        std::printf("# progress attempted=%llu failed=%llu pending=%llu\n",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(pending));
        std::fflush(stdout);
        _cv.notify_all();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(_mu);
        while (!_stop) {
            if (_cv.wait_until(lk, _deadline) ==
                    std::cv_status::timeout &&
                !_stop && Clock::now() >= _deadline) {
                std::fprintf(stderr, "ffbench: deadline missed; "
                                     "counting the pending cells as "
                                     "failed\n");
                std::printf("%s\n",
                            resultJson(false, std::max<std::uint64_t>(
                                                  _attempted, 1),
                                       std::max<std::uint64_t>(_failed,
                                                               1),
                                       Metrics())
                                .c_str());
                std::fflush(stdout);
                std::_Exit(1);
            }
        }
    }

    std::mutex _mu;
    std::condition_variable _cv;
    Clock::time_point _deadline = Clock::time_point::max(); ///< _mu
    std::uint64_t _attempted = 0;                          ///< _mu
    std::uint64_t _failed = 0;                             ///< _mu
    bool _stop = false;                                    ///< _mu
    std::thread _thread; ///< last: uses every member above
};

/** A fresh, empty directory under @p root. */
std::string
freshDir(const std::string &root, const std::string &tag)
{
    static unsigned counter = 0;
    const fs::path p =
        fs::path(root) / (tag + "-" + std::to_string(counter++));
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** Looks up the verification verdicts of @p suite (a cached re-run). */
void
lookupVerdicts(const std::vector<workloads::Workload> &suite)
{
    for (const workloads::Workload &w : suite)
        sim::verifyCacheLookup(sim::verifyCacheKey(
            w.program, sim::table1Config().limits));
}

/** Everything one timed pass produced. */
struct Pass
{
    std::vector<workloads::Workload> rebuilt; ///< kept alive for checks
    std::vector<sim::SimOutcome> grid;
    std::size_t traceBytes = 0;
};

/** One timed pass of @p spec over @p suite (cache dir set by caller). */
Pass
runPass(const Spec &spec, const std::vector<workloads::Workload> &suite,
        std::uint64_t seed, unsigned jobs)
{
    Pass p;
    const std::vector<workloads::Workload> *inputs = &suite;
    if (spec.cache == CacheUse::kWarm) {
        p.rebuilt = buildInputs(spec.programs, seed, spec.scale, jobs);
        lookupVerdicts(p.rebuilt);
        inputs = &p.rebuilt;
    }
    sim::SweepOptions opts;
    opts.threads = jobs;
    p.grid = sim::runSweep(*inputs, spec.variants, opts);
    if (spec.pipeTrace) {
        const std::size_t nv = spec.variants.size();
        for (std::size_t i = 0; i < p.grid.size(); ++i) {
            const sim::SimOutcome &o = p.grid[i];
            const workloads::Workload &w = (*inputs)[i / nv];
            const sim::PipeTrace t = sim::buildPipeTrace(
                w.program, spec.variants[i % nv].cfg, o.kind,
                o.run.cycles, o.metrics->pipeEvents,
                o.metrics->pipeDropped, w.name);
            p.traceBytes += sim::encodePipeTrace(t).size();
        }
    }
    return p;
}

/** The grid with metrics collection switched off (detached runs). */
std::vector<sim::SweepVariant>
detached(std::vector<sim::SweepVariant> variants)
{
    for (sim::SweepVariant &v : variants)
        v.metrics = sim::MetricsOptions();
    return variants;
}

/** Sum of simulated cycles over a grid (estimates for sampled cells). */
double
gridCycles(const std::vector<sim::SimOutcome> &grid)
{
    double c = 0.0;
    for (const sim::SimOutcome &o : grid)
        c += o.sampled ? o.sampled->estimatedCycles
                       : static_cast<double>(o.run.cycles);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: ffbench --workload NAME --seed N --seconds S"
                     " --trace 0|1 --state-dir DIR [--git-sha SHA]"
                     " [--git-dirty FLAG] [--source-digest HEX]\n");
        return 2;
    }
    const Spec *spec = findSpec(args.workload);
    if (spec == nullptr) {
        std::string known;
        for (const std::string &n : specNames())
            known += " " + n;
        std::fprintf(stderr, "ffbench: unknown workload '%s'; known:%s\n",
                     args.workload.c_str(), known.c_str());
        return 2;
    }

    const auto t_start = Clock::now();
    const auto budget_end =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kProcessBudgetS));
    const unsigned jobs = benchJobs();
    const std::size_t nv = spec->variants.size();
    const std::size_t cells = spec->programs.size() * nv;
    const std::string scratch =
        (fs::path(args.stateDir) / "scratch").string();
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    sim::setResultCacheDir(""); // the benchmark owns every cache dir

    std::printf("# ffbench workload=%s seed=%llu seconds=%g trace=%d "
                "jobs=%u scale=%d cells=%zu\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, jobs, spec->scale, cells);
    const std::string fingerprint = fingerprintJson(
        args.gitSha, args.gitDirty, args.sourceDigest);
    std::printf("# fingerprint %s\n", fingerprint.c_str());
    if (flaggedBuild()) {
        std::printf("# WARNING: Debug or sanitizer build; timings are "
                    "not comparable\n");
        std::fprintf(stderr, "ffbench: flagged (Debug or sanitizer) "
                             "build\n");
    }

    Watchdog watchdog;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> why;
    watchdog.arm(budget_end, attempted, failed, cells);

    // ---- set-up: inputs, schedule, verification (+ cache fill) ------
    std::vector<double> setup_s;
    std::vector<workloads::Workload> suite;
    std::vector<sim::SimOutcome> fill_grid;
    std::string warm_dir;
    unsigned rejected = 0;
    const auto t_setup = Clock::now();
    for (int rep = 0; rep < kSetupMaxReps && (rep < kSetupMinReps ||
                                              since(t_setup) < kSetupMinS);
         ++rep) {
        std::string dir;
        if (spec->cache == CacheUse::kWarm)
            dir = freshDir(scratch, "warm");
        const auto t0 = Clock::now();
        suite = buildInputs(spec->programs, args.seed, spec->scale, jobs);
        rejected = checkInputs(suite);
        if (spec->cache == CacheUse::kWarm) {
            sim::setResultCacheDir(dir);
            storeVerdicts(suite);
            sim::SweepOptions opts;
            opts.threads = jobs;
            fill_grid = sim::runSweep(suite, spec->variants, opts);
            sim::setResultCacheDir("");
        }
        setup_s.push_back(since(t0));
        if (!warm_dir.empty())
            fs::remove_all(warm_dir);
        warm_dir = dir;
    }
    if (rejected > 0) {
        why.push_back(std::to_string(rejected) +
                      " program(s) rejected by ffcheck");
    }
    // Seed 0 must reproduce the repository's default inputs.
    if (args.seed == 0) {
        for (const workloads::Workload &w : suite) {
            const workloads::Workload def =
                workloads::buildWorkload(w.name, spec->scale);
            if (sim::programContentHash(def.program) !=
                sim::programContentHash(w.program)) {
                why.push_back(w.name + ": seed 0 differs from the "
                                       "default input");
                ++rejected;
            }
        }
    }

    // ---- functional reference (untimed) -----------------------------
    std::vector<const isa::Program *> progs;
    for (const workloads::Workload &w : suite)
        progs.push_back(&w.program);
    const std::vector<sim::FunctionalOutcome> refs =
        sim::runFunctionalBatch(progs, jobs);
    // Warm the in-process admission memo so every pass does equal work.
    for (const isa::Program *p : progs)
        sim::verifyProgram(*p, sim::table1Config().limits);

    // Expected per-cell digests: the cache fill for suite-cached, the
    // detached runs for a traced grid.
    std::vector<std::string> expect;
    if (spec->cache == CacheUse::kWarm) {
        attempted += fill_grid.size();
        failed += checkGrid(fill_grid, nv, refs, nullptr, why);
        for (const sim::SimOutcome &o : fill_grid)
            expect.push_back(outcomeDigest(o));
    } else if (spec->pipeTrace) {
        sim::SweepOptions opts;
        opts.threads = jobs;
        const std::vector<sim::SimOutcome> ref_grid = sim::runSweep(
            suite, detached(spec->variants), opts);
        attempted += ref_grid.size();
        failed += checkGrid(ref_grid, nv, refs, nullptr, why);
        for (const sim::SimOutcome &o : ref_grid)
            expect.push_back(outcomeDigest(o));
    }
    failed += rejected;
    attempted += rejected;

    // ---- timed phase --------------------------------------------------
    std::vector<double> pass_s, cycles_per_s;
    std::string digest;
    std::vector<sim::SimOutcome> first_grid;
    std::size_t trace_bytes = 0;
    const auto t_timed = Clock::now();
    do {
        const auto pass_deadline = std::min(
            budget_end,
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   kPassDeadlineS)));
        watchdog.arm(pass_deadline, attempted, failed, cells);
        std::string cold_dir;
        if (spec->cache == CacheUse::kCold)
            cold_dir = freshDir(scratch, "cold");
        sim::setResultCacheDir(spec->cache == CacheUse::kCold ? cold_dir
                               : spec->cache == CacheUse::kWarm
                                   ? warm_dir
                                   : std::string());
        sim::resetResultCacheStats();

        const auto t0 = Clock::now();
        Pass p = runPass(*spec, suite, args.seed, jobs);
        const double dt = since(t0);

        const sim::ResultCacheStats cs = sim::resultCacheStats();
        sim::setResultCacheDir("");
        if (!cold_dir.empty())
            fs::remove_all(cold_dir);
        if (spec->cache == CacheUse::kWarm && cs.hits != cells) {
            why.push_back("cached pass answered " +
                          std::to_string(cs.hits) + "/" +
                          std::to_string(cells) + " cells from the cache");
            failed += cells - std::min<std::uint64_t>(cs.hits, cells);
        }

        attempted += p.grid.size();
        failed += checkGrid(p.grid, nv, refs,
                            expect.empty() ? nullptr : &expect, why);
        const std::string d = gridDigest(p.grid);
        if (digest.empty()) {
            digest = d;
            first_grid = p.grid;
        } else if (d != digest) {
            why.push_back("pass digest differs from the first pass");
            ++failed;
        }
        trace_bytes = p.traceBytes;
        pass_s.push_back(dt);
        cycles_per_s.push_back(gridCycles(p.grid) / dt);
    } while (since(t_timed) < args.seconds);
    watchdog.arm(budget_end, attempted, failed, 0);

    Metrics plain;
    plain.put("wall_s", median(pass_s), "s");
    plain.put("sim_cycles_per_s", median(cycles_per_s), "cycles/s");
    plain.put("setup_s", median(setup_s), "s");
    plain.put("peak_rss_mb", peakRssMb(), "MB");

    std::printf("# setup: %zu reps, median %.4f s\n", setup_s.size(),
                median(setup_s));
    std::printf("# timed: %zu passes of %zu cells, wall median %.4f s\n",
                pass_s.size(), cells, median(pass_s));
    std::printf("# pass_s");
    for (double t : pass_s)
        std::printf(" %.4f", t);
    std::printf("\n");
    if (spec->pipeTrace)
        std::printf("# encoded FFPT bytes per pass: %zu\n", trace_bytes);
    std::printf("# digest %s\n", digest.c_str());

    Metrics out = plain;
    if (args.trace) {
        TraceContext ctx;
        ctx.spec = spec;
        ctx.seed = args.seed;
        ctx.jobs = jobs;
        ctx.stateDir = scratch;
        ctx.warmCacheDir = warm_dir;
        ctx.plainWallS = median(pass_s);
        ctx.suite = &suite;
        ctx.refs = &refs;
        ctx.plainGrid = &first_grid;
        out = tracedRun(ctx, attempted, failed, why);
    }
    watchdog.arm(Clock::time_point::max(), attempted, failed, 0);

    for (const std::string &w : why)
        std::printf("# FAIL %s\n", w.c_str());
    std::printf("# failed %llu of %llu cells (fail_frac %.6f)\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    // The paper's in-text numbers beside the model's; the synthetic
    // suite has no hardware reference, so nothing else validates it.
    const std::pair<const char *, const char *> paper[] = {
        {"model.mcf_load_stall_reduction", "0.62 (S3)"},
        {"model.mcf_cycle_reduction", "0.23 (S3)"},
        {"model.speedup_2pre_over_2p", "1.08 (S4)"}};
    for (const auto &[name, value] : paper) {
        const auto it = out.byName.find(name);
        if (it != out.byName.end())
            std::printf("# %s %.4f [paper: %s; model unvalidated]\n",
                        name, it->second.value, value);
    }
    for (const auto &[name, m] : out.byName)
        std::printf("%-42s %.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());

    const bool correct = failed == 0 && why.empty();
    const std::string result =
        resultJson(correct, std::max<std::uint64_t>(attempted, 1),
                   failed, out);

    // The full record: fingerprint, digest and every metric.
    const fs::path record =
        fs::path(args.stateDir) / "results" /
        (spec->name + "-seed" + std::to_string(args.seed) + "-trace" +
         (args.trace ? "1" : "0") + ".json");
    fs::create_directories(record.parent_path());
    std::ofstream(record) << "{\"workload\": \"" << spec->name
                          << "\", \"seed\": " << args.seed
                          << ", \"fingerprint\": " << fingerprint
                          << ", \"digest\": \"" << digest
                          << "\", \"passes\": " << pass_s.size()
                          << ", \"result\": " << result << "}\n";
    fs::remove_all(scratch);

    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
