/**
 * @file
 * Shared pieces of the repository benchmark (ffbench): the workload
 * table, seed-derived input generation, the correctness gate against
 * the functional reference, the simulated-statistics digest, metric
 * collection and the span durations of the traced run.
 *
 * The benchmark drives the simulator only through its public entry
 * points (workloads::build*, compiler::schedule, sim::runSweep,
 * sim::runFunctionalBatch, the result cache, the sampled phases and
 * the pipe-trace container); it adds nothing inside src/.
 */

#ifndef FFBENCH_BENCH_HH
#define FFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/engine_trace.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "workloads/workload.hh"

namespace ffbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** One reported number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name; put() keeps the first value written. */
struct Metrics
{
    std::map<std::string, Metric> byName;

    void
    put(const std::string &name, double value, const std::string &unit)
    {
        byName.emplace(name, Metric{value, unit});
    }
};

/** How a workload uses the on-disk result cache. */
enum class CacheUse
{
    kNone, ///< cache disabled
    kCold, ///< every pass stores into a fresh, empty directory
    kWarm, ///< every pass is answered from a directory filled in setup
};

/** One named workload of the benchmark. */
struct Spec
{
    std::string name;
    std::vector<std::string> programs; ///< Table-2 stand-in names
    int scale = 100;                   ///< KernelParams::scale
    std::vector<ff::sim::SweepVariant> variants;
    /** kWarm passes also rebuild the inputs, as a re-run would. */
    CacheUse cache = CacheUse::kNone;
    bool pipeTrace = false; ///< the timed pass encodes FFPT traces
};

/** The workload table; null for an unknown name. */
const Spec *findSpec(const std::string &name);

/** Names of every workload, in table order. */
std::vector<std::string> specNames();

/** Pool workers: one fewer than the host's cores (1 to 3). */
unsigned benchJobs();

/**
 * A span name for engine::ScopedSpan, which keeps the pointer until the
 * span ends: interned once, it lives as long as the process.
 */
const char *spanName(const std::string &name);

/**
 * Span durations of the traced run. The spans come from the
 * simulator's engine span recorder (engine::traceEnable, ScopedSpan,
 * traceStop), which records the library's own spans as well; each
 * record() call is one recording window.
 */
class Spans
{
  public:
    /** Runs @p fn in a recording window of its own; keeps its spans. */
    template <typename Fn>
    void
    record(Fn &&fn)
    {
        ff::engine::traceEnable();
        fn();
        add(ff::engine::traceStop());
    }

    /** Durations of every span called @p name, in seconds. */
    std::vector<double> durations(const std::string &name) const;

    /** Sum of durations(name). */
    double total(const std::string &name) const;

  private:
    void add(const ff::engine::TraceData &d);

    std::map<std::string, std::vector<double>> _seconds;
};

/**
 * Builds the named Table-2 stand-ins with KernelParams{scale,
 * seedSalt = seed} and schedules each with compiler::schedule, on
 * @p threads workers. Seed 0 reproduces workloads::buildWorkload's
 * default inputs at the same scale. Each kernel build and schedule
 * call is a "workloads.build" / "compiler.schedule" span.
 */
std::vector<ff::workloads::Workload>
buildInputs(const std::vector<std::string> &names, std::uint64_t seed,
            int scale, unsigned threads);

/**
 * Runs the ffcheck verifier over every program with the options of the
 * harness admission wall, one "analysis.check" span per program;
 * returns the number of programs rejected.
 */
unsigned checkInputs(const std::vector<ff::workloads::Workload> &suite);

/** Stores the verification verdicts of @p suite into the active cache. */
void storeVerdicts(const std::vector<ff::workloads::Workload> &suite);

/** SHA-256 over every simulated statistic of @p o (metrics excluded). */
std::string outcomeDigest(const ff::sim::SimOutcome &o);

/** SHA-256 over the per-cell digests of a whole grid. */
std::string gridDigest(const std::vector<ff::sim::SimOutcome> &grid);

/**
 * The correctness gate. Cell i of @p grid belongs to program
 * i / variants. Detailed cells must halt with the functional
 * reference's checksum, register and memory fingerprints and
 * instruction count; sampled cells must carry an estimate with the
 * exact instruction count and fingerprints. With @p expect, each
 * cell's digest must also equal expect[i]. Returns failing cells and
 * appends one reason per failure to @p why.
 */
unsigned checkGrid(const std::vector<ff::sim::SimOutcome> &grid,
                   std::size_t variants,
                   const std::vector<ff::sim::FunctionalOutcome> &refs,
                   const std::vector<std::string> *expect,
                   std::vector<std::string> &why);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Host and build identity of the running binary, as a JSON object. */
std::string fingerprintJson(const std::string &git_sha,
                            const std::string &git_dirty,
                            const std::string &source_digest);

/** True when the binary is a Debug or sanitizer build. */
bool flaggedBuild();

/** Everything the traced run needs from the plain run. */
struct TraceContext
{
    const Spec *spec = nullptr;
    std::uint64_t seed = 0;
    unsigned jobs = 1;
    std::string stateDir;       ///< scratch directory of this run
    std::string warmCacheDir;   ///< kWarm: directory filled in setup
    double plainWallS = 0.0;    ///< median plain pass wall
    const std::vector<ff::workloads::Workload> *suite = nullptr;
    const std::vector<ff::sim::FunctionalOutcome> *refs = nullptr;
    const std::vector<ff::sim::SimOutcome> *plainGrid = nullptr;
};

/**
 * The traced run: the workload's pass decomposed into calls to each
 * layer's public functions, one span per call, followed by the other
 * layers the workload does not itself exercise, so every per-layer
 * metric is produced on every workload. Adds failing cells to
 * @p failed and their count to @p attempted.
 */
Metrics tracedRun(const TraceContext &ctx, std::uint64_t &attempted,
                  std::uint64_t &failed, std::vector<std::string> &why);

} // namespace ffbench

#endif // FFBENCH_BENCH_HH
