#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <type_traits>

#include "analysis/ffcheck.hh"
#include "bench.hh"
#include "common/hash.hh"
#include "common/thread_pool.hh"
#include "compiler/scheduler.hh"
#include "sim/machine_config.hh"
#include "sim/result_cache.hh"
#include "sim/sampled.hh"
#include "workloads/kernels.hh"

namespace ffbench
{

using namespace ff;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

sim::SweepVariant
variant(cpu::CpuKind kind)
{
    sim::SweepVariant v;
    v.kind = kind;
    v.cfg = sim::table1Config();
    return v;
}

std::vector<Spec>
makeSpecs()
{
    const std::vector<std::string> &all = workloads::workloadNames();
    const cpu::CpuKind detailed[] = {
        cpu::CpuKind::kBaseline, cpu::CpuKind::kTwoPass,
        cpu::CpuKind::kTwoPassRegroup, cpu::CpuKind::kRunahead};

    Spec cold;
    cold.name = "suite-cold";
    cold.programs = all;
    for (cpu::CpuKind k : detailed)
        cold.variants.push_back(variant(k));
    cold.cache = CacheUse::kCold;

    Spec sampled;
    sampled.name = "suite-sampled";
    sampled.programs = all;
    sampled.scale = 1600;
    for (cpu::CpuKind k : {cpu::CpuKind::kBaseline, cpu::CpuKind::kTwoPass,
                           cpu::CpuKind::kTwoPassRegroup}) {
        sim::SweepVariant v = variant(k);
        v.sampled.intervalCycles = 32000;
        v.sampled.detailCycles = 4000;
        sampled.variants.push_back(v);
    }

    Spec cached = cold;
    cached.name = "suite-cached";
    cached.cache = CacheUse::kWarm;

    Spec traced;
    traced.name = "traced-2p";
    traced.programs = {"181.mcf", "130.li"};
    traced.scale = 100;
    for (cpu::CpuKind k :
         {cpu::CpuKind::kTwoPass, cpu::CpuKind::kTwoPassRegroup}) {
        sim::SweepVariant v = variant(k);
        v.metrics.pipeview = true;
        v.metrics.profile = true;
        v.metrics.telemetry = true;
        traced.variants.push_back(v);
    }
    traced.pipeTrace = true;

    return {cold, sampled, cached, traced};
}

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> kSpecs = makeSpecs();
    return kSpecs;
}

using Kernel = isa::Program (*)(const workloads::KernelParams &);

Kernel
kernelFor(const std::string &name)
{
    static const std::map<std::string, Kernel> kKernels = {
        {"099.go", workloads::buildGo},
        {"129.compress", workloads::buildCompress},
        {"130.li", workloads::buildLi},
        {"175.vpr", workloads::buildVpr},
        {"181.mcf", workloads::buildMcf},
        {"183.equake", workloads::buildEquake},
        {"197.parser", workloads::buildParser},
        {"254.gap", workloads::buildGap},
        {"255.vortex", workloads::buildVortex},
        {"300.twolf", workloads::buildTwolf},
    };
    const auto it = kKernels.find(name);
    return it == kKernels.end() ? nullptr : it->second;
}

/** Appends the object bytes of a padding-free value to @p h. */
template <typename T>
void
hashValue(Sha256 &h, const T &v)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "hash only padding-free values");
    h.update(&v, sizeof v);
}

void
hashDouble(Sha256 &h, double d)
{
    hashValue(h, std::bit_cast<std::uint64_t>(d));
}

} // namespace

const Spec *
findSpec(const std::string &name)
{
    for (const Spec &s : specs())
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<std::string>
specNames()
{
    std::vector<std::string> out;
    for (const Spec &s : specs())
        out.push_back(s.name);
    return out;
}

unsigned
benchJobs()
{
    // parallelFor also runs work on its calling thread, so N - 1 pool
    // workers keep N threads busy.
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 2u, 4u) - 1;
}

// --- spans ---------------------------------------------------------------

const char *
spanName(const std::string &name)
{
    static std::mutex mu;
    static std::set<std::string> names;
    std::lock_guard<std::mutex> lk(mu);
    return names.insert(name).first->c_str();
}

void
Spans::add(const engine::TraceData &d)
{
    for (const engine::TraceSpan &s : d.spans)
        if (!s.instant)
            _seconds[d.names[s.name]].push_back(1e-6 *
                                                static_cast<double>(s.durUs));
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    const auto it = _seconds.find(name);
    return it == _seconds.end() ? std::vector<double>() : it->second;
}

double
Spans::total(const std::string &name) const
{
    double t = 0.0;
    for (double d : durations(name))
        t += d;
    return t;
}

// --- inputs --------------------------------------------------------------

std::vector<workloads::Workload>
buildInputs(const std::vector<std::string> &names, std::uint64_t seed,
            int scale, unsigned threads)
{
    std::vector<workloads::Workload> out(names.size());
    auto build_one = [&](std::size_t i) {
        const Kernel build = kernelFor(names[i]);
        ff_fatal_if(build == nullptr, "unknown program '", names[i], "'");
        workloads::KernelParams params;
        params.scale = scale;
        params.seedSalt = seed;
        isa::Program seq;
        {
            engine::ScopedSpan s("workloads.build");
            seq = build(params);
        }
        out[i].name = names[i];
        engine::ScopedSpan s("compiler.schedule");
        out[i].program = compiler::schedule(seq);
    };
    ThreadPool pool(threads);
    pool.parallelFor(names.size(), build_one);
    return out;
}

unsigned
checkInputs(const std::vector<workloads::Workload> &suite)
{
    analysis::CheckOptions opts;
    opts.limits = sim::table1Config().limits;
    opts.reportPressure = false;
    unsigned rejected = 0;
    for (const workloads::Workload &w : suite) {
        engine::ScopedSpan s("analysis.check");
        rejected += analysis::check(w.program, opts).errors() > 0 ? 1 : 0;
    }
    return rejected;
}

void
storeVerdicts(const std::vector<workloads::Workload> &suite)
{
    for (const workloads::Workload &w : suite)
        sim::verifyCacheStore(sim::verifyCacheKey(
            w.program, sim::table1Config().limits));
}

// --- digest and correctness gate ----------------------------------------

std::string
outcomeDigest(const sim::SimOutcome &o)
{
    Sha256 h;
    hashValue(h, static_cast<std::uint8_t>(o.kind));
    hashValue(h, static_cast<std::uint8_t>(o.run.halted));
    hashValue(h, o.run.cycles);
    hashValue(h, o.run.instsRetired);
    hashValue(h, o.run.groupsRetired);
    hashValue(h, o.cycles.counts);
    hashValue(h, o.accesses.counts);
    hashValue(h, o.accesses.weightedCycles);
    hashValue(h, o.branches);
    hashValue(h, o.twopass);
    hashValue(h, o.alat);
    hashValue(h, o.runahead);
    hashValue(h, o.regFingerprint);
    hashValue(h, o.memFingerprint);
    hashValue(h, o.checksum);
    if (o.sampled) {
        const sim::SampledEstimate &e = *o.sampled;
        hashValue(h, e.options);
        for (std::uint64_t v :
             {e.spacing, e.intervalsTotal, e.intervalsMeasured,
              e.sampledCycles, e.sampledInsts, e.totalInsts,
              e.prefixCycles, e.prefixInsts})
            hashValue(h, v);
        for (double d : {e.ipcMean, e.ipcStdDev, e.ipcStdErr, e.ipcCi95,
                         e.estimatedCycles})
            hashDouble(h, d);
    }
    return h.hexDigest();
}

std::string
gridDigest(const std::vector<sim::SimOutcome> &grid)
{
    Sha256 h;
    for (const sim::SimOutcome &o : grid)
        h.update(outcomeDigest(o));
    return h.hexDigest();
}

unsigned
checkGrid(const std::vector<sim::SimOutcome> &grid, std::size_t variants,
          const std::vector<sim::FunctionalOutcome> &refs,
          const std::vector<std::string> *expect,
          std::vector<std::string> &why)
{
    if (grid.size() != refs.size() * variants) {
        why.push_back("grid has " + std::to_string(grid.size()) +
                      " cells, expected " +
                      std::to_string(refs.size() * variants));
        return static_cast<unsigned>(refs.size() * variants);
    }
    unsigned failed = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const sim::SimOutcome &o = grid[i];
        const sim::FunctionalOutcome &ref = refs[i / variants];
        std::string bad;
        if (!o.run.halted)
            bad = "did not halt";
        else if (o.checksum != ref.checksum)
            bad = "checksum differs from the functional reference";
        else if (o.regFingerprint != ref.regFingerprint)
            bad = "register fingerprint differs";
        else if (o.memFingerprint != ref.memFingerprint)
            bad = "memory fingerprint differs";
        else if (o.run.instsRetired != ref.result.instsExecuted)
            bad = "instruction count differs";
        else if (expect != nullptr && outcomeDigest(o) != (*expect)[i])
            bad = "simulated statistics differ from the reference run";
        if (!bad.empty()) {
            ++failed;
            why.push_back("cell " + std::to_string(i) + " (" +
                          cpu::cpuKindName(o.kind) + "): " + bad);
        }
    }
    return failed;
}

// --- host -----------------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

const char *
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "address";
#elif __has_feature(thread_sanitizer)
    return "thread";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

/** Escapes the characters JSON strings cannot hold verbatim. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

bool
flaggedBuild()
{
    const std::string type = FFBENCH_BUILD_TYPE;
    return type == "Debug" || std::string(sanitizer()) != "none";
}

std::string
fingerprintJson(const std::string &git_sha, const std::string &git_dirty,
                const std::string &source_digest)
{
    std::string j = "{";
    j += "\"cpu\": " + jsonString(cpuModel());
    j += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    j += ", \"jobs\": " + std::to_string(benchJobs());
    j += ", \"compiler\": " +
         jsonString(std::string(FFBENCH_COMPILER) + " (" + __VERSION__ +
                    ")");
    j += ", \"build_type\": " + jsonString(FFBENCH_BUILD_TYPE);
    j += ", \"sanitizer\": " + jsonString(sanitizer());
    j += ", \"flagged\": ";
    j += flaggedBuild() ? "true" : "false";
    j += ", \"git_sha\": " + jsonString(git_sha);
    j += ", \"git_dirty\": " + jsonString(git_dirty);
    j += ", \"source_digest\": " + jsonString(source_digest);
    return j + "}";
}

} // namespace ffbench
