/**
 * @file
 * The sensitivity studies and ablations of DESIGN.md §6 (S5, A1-A7),
 * one table entry each. Every entry sweeps a few CoreConfig variants
 * over the full suite and prints one table:
 *
 *   queue      S5  coupling queue size (Sec. 3.1: "not particularly
 *                  sensitive" around the 64-entry design point)
 *   alat       A1  finite FIFO-evicting ALAT vs Table 1's perfect one;
 *                  capacity evictions show up as false-positive
 *                  conflict flushes (safe but slower)
 *   fppolicy   A2  the vpr fix Sec. 4 suggests: the A-pipe stalls on
 *                  anticipable (multi-cycle non-load) latencies
 *                  instead of deferring their consumers
 *   runahead   A3  the Sec. 2 comparison: checkpoint-based run-ahead
 *                  warms the caches too but discards its work; it
 *                  should sit between base and 2P on miss-heavy code
 *   partialfu  A4  Sec. 3.7 partial replication: an A-pipe without FP
 *                  units defers all FP work, saving that area
 *   throttle   A5  the A-pipe issue moderation Sec. 3.5/6 leave as
 *                  future work: pause dispatch while the recent
 *                  deferral rate is high and the queue is backed up
 *   prefetch   A6  does next-line prefetching subsume two-pass? Base
 *                  and 2P at prefetch degrees 0/1/2/4
 *   predictor  A7  predictor quality: a B-DET misprediction pays the
 *                  lengthened two-pass flush (Sec. 3.6), so 2P is the
 *                  more predictor-sensitive machine
 *
 * Usage: bench_ablate [--jobs N] [name] [scale-percent]
 * (no name runs every entry in the order above; an unknown name
 * exits 2 and lists the names.)
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

/** One workload's outcomes, one per variant of the entry. */
using Slice = std::span<const sim::SimOutcome>;

struct Ablation
{
    const char *name;
    const char *title;
    std::vector<sim::SweepVariant> variants;
    std::vector<std::string> header;
    /** Appends the rows of workload @p bench to @p t. */
    void (*rows)(sim::TextTable &t, const std::string &bench, Slice o);
    const char *note; ///< printed after the table; nullptr = none
};

const std::vector<unsigned> kQueueSizes = {16, 32, 48, 64, 96, 128, 256};
const std::vector<unsigned> kAlatCaps = {0, 16, 8, 4, 2}; // 0 = perfect
const std::vector<unsigned> kThrottles = {0, 90, 75, 50}; // 0 = off
const std::vector<unsigned> kPrefetchDegrees = {0, 1, 2, 4};
const std::vector<branch::PredictorKind> kPredictors = {
    branch::PredictorKind::kBimodal,
    branch::PredictorKind::kGshare,
    branch::PredictorKind::kTournament,
};

/** Table 1 configs with @p set applied per value, for each kind. */
template <typename T, typename Set>
std::vector<sim::SweepVariant>
sweep(std::initializer_list<sim::CpuKind> kinds,
      const std::vector<T> &values, Set set)
{
    std::vector<sim::SweepVariant> v;
    for (sim::CpuKind kind : kinds) {
        for (const T &x : values) {
            cpu::CoreConfig cfg = sim::table1Config();
            set(cfg, x);
            v.push_back({kind, cfg});
        }
    }
    return v;
}

/** Table 1 config with @p set applied. */
template <typename Set>
cpu::CoreConfig
table1With(Set set)
{
    cpu::CoreConfig cfg = sim::table1Config();
    set(cfg);
    return cfg;
}

/** @p prefix followed by one column per value. */
template <typename T, typename Name>
std::vector<std::string>
columns(std::vector<std::string> prefix, const std::vector<T> &values,
        Name name)
{
    for (const T &x : values)
        prefix.push_back(name(x));
    return prefix;
}

double
cycles(const sim::SimOutcome &o)
{
    return static_cast<double>(o.run.cycles);
}

/** Cycles of @p o relative to @p ref, three decimals. */
std::string
norm(const sim::SimOutcome &o, const sim::SimOutcome &ref)
{
    return sim::fixed(cycles(o) / cycles(ref), 3);
}

double
deferFrac(const cpu::TwoPassStats &s)
{
    return s.dispatched == 0
               ? 0.0
               : static_cast<double>(s.deferred) / s.dispatched;
}

double
mispRate(const sim::SimOutcome &o)
{
    return o.branches.lookups == 0
               ? 0.0
               : static_cast<double>(o.branches.mispredicts) /
                     static_cast<double>(o.branches.lookups);
}

/** One row: @p bench, then every outcome normalized to @p o[ref]. */
std::vector<std::string>
normRow(const std::string &bench, Slice o, std::size_t ref,
        std::size_t first = 0)
{
    std::vector<std::string> row = {bench};
    for (std::size_t i = first; i < o.size(); ++i)
        row.push_back(norm(o[i], o[ref]));
    return row;
}

std::vector<Ablation>
ablations()
{
    using sim::CpuKind;
    const cpu::CoreConfig stall_cfg = table1With(
        [](cpu::CoreConfig &c) { c.aPipeStallsOnAnticipable = true; });
    const cpu::CoreConfig nofp = table1With(
        [](cpu::CoreConfig &c) { c.aPipeHasFpUnits = false; });
    std::vector<sim::SweepVariant> predictor_variants = {
        {CpuKind::kBaseline, {}}};
    for (const sim::SweepVariant &v :
         sweep({CpuKind::kBaseline, CpuKind::kTwoPass}, kPredictors,
               [](cpu::CoreConfig &c, branch::PredictorKind k) {
                   c.predictorKind = k;
               }))
        predictor_variants.push_back(v);
    std::vector<std::string> throttle_header =
        columns({"benchmark"}, kThrottles, [](unsigned th) {
            return th == 0 ? std::string("off")
                           : "thr" + std::to_string(th) + "%";
        });
    throttle_header.push_back("pause-cyc@50%");
    std::vector<std::string> predictor_header = {"benchmark"};
    for (const char *machine : {"base-", "2P-"}) {
        for (branch::PredictorKind k : kPredictors)
            predictor_header.push_back(std::string(machine) +
                                       branch::predictorKindName(k));
    }
    predictor_header.push_back("misp%-bimodal");
    predictor_header.push_back("misp%-gshare");

    return {
        {"queue",
         "Ablation S5: coupling queue size (2P cycles, normalized to "
         "64 entries)",
         sweep({CpuKind::kTwoPass}, kQueueSizes,
               [](cpu::CoreConfig &c, unsigned s) {
                   c.couplingQueueSize = s;
               }),
         columns({"benchmark"}, kQueueSizes,
                 [](unsigned s) { return "cq" + std::to_string(s); }),
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             t.row(normRow(bench, o, 3)); // kQueueSizes[3] == 64
         },
         "(expected: a shallow basin around the paper's 64-entry "
         "choice; very small queues throttle the A-pipe's lead)"},

        {"alat", "Ablation A1: ALAT capacity (2P)",
         sweep({CpuKind::kTwoPass}, kAlatCaps,
               [](cpu::CoreConfig &c, unsigned cap) {
                   c.alatCapacity = cap;
               }),
         {"benchmark", "alat", "conflicts", "capacity-evict", "cycles",
          "vs-perfect"},
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             for (std::size_t i = 0; i < o.size(); ++i) {
                 const unsigned cap = kAlatCaps[i];
                 t.row({bench,
                        cap == 0 ? std::string("perfect")
                                 : std::to_string(cap),
                        std::to_string(o[i].twopass.storeConflictFlushes),
                        std::to_string(o[i].alat.capacityEvictions),
                        std::to_string(o[i].run.cycles),
                        norm(o[i], o[0])});
             }
         },
         nullptr},

        {"fppolicy",
         "Ablation A2: A-pipe stalls on anticipable latencies (2P)",
         {{CpuKind::kBaseline, {}},
          {CpuKind::kTwoPass, {}},
          {CpuKind::kTwoPass, stall_cfg}},
         {"benchmark", "base", "2P-defer", "2P-stall", "deferred%",
          "deferred%-stall", "best"},
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             const sim::SimOutcome &defer = o[1], &stall = o[2];
             t.row({bench, "1.000", norm(defer, o[0]),
                    norm(stall, o[0]), sim::pct(deferFrac(defer.twopass)),
                    sim::pct(deferFrac(stall.twopass)),
                    stall.run.cycles < defer.run.cycles ? "stall"
                                                        : "defer"});
         },
         "(expected: 'stall' wins on 175.vpr, whose FP chains otherwise "
         "defer wholesale; 'defer' wins where greed exposes load "
         "overlap)"},

        {"runahead",
         "A3: run-ahead vs two-pass (cycles normalized to base)",
         {{CpuKind::kBaseline, {}},
          {CpuKind::kRunahead, {}},
          {CpuKind::kTwoPass, {}},
          {CpuKind::kTwoPassRegroup, {}}},
         {"benchmark", "base", "runahead", "2P", "2Pre", "ra-episodes",
          "ra-cycles%"},
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             const sim::SimOutcome &ra = o[1];
             t.row({bench, "1.000", norm(ra, o[0]), norm(o[2], o[0]),
                    norm(o[3], o[0]),
                    std::to_string(ra.runahead.episodes),
                    sim::pct(static_cast<double>(
                                 ra.runahead.runaheadCycles) /
                             cycles(ra))});
         },
         nullptr},

        {"partialfu",
         "Ablation: A-pipe without FP units (Sec. 3.7 partial "
         "replication)",
         {{CpuKind::kBaseline, {}},
          {CpuKind::kTwoPass, {}},
          {CpuKind::kTwoPass, nofp}},
         {"benchmark", "base", "2P-fullrep", "2P-noFP", "noFP-defer%",
          "cost"},
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             const sim::SimOutcome &full = o[1], &part = o[2];
             t.row({bench, "1.000", norm(full, o[0]), norm(part, o[0]),
                    sim::pct(deferFrac(part.twopass)),
                    sim::pct(cycles(part) / cycles(full) - 1.0)});
         },
         "(finding: the FP subpipeline earns almost none of its "
         "replicated area on this suite -- even 183.equake's FP work "
         "rides behind in-flight loads and defers regardless, so only "
         "175.vpr pays measurably. Sec. 3.7's partial-replication "
         "proposal is well supported.)"},

        {"throttle",
         "Ablation: A-pipe issue moderation (deferral-rate throttle)",
         sweep({CpuKind::kTwoPass}, kThrottles,
               [](cpu::CoreConfig &c, unsigned th) {
                   c.aPipeThrottlePercent = th;
               }),
         throttle_header,
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             std::vector<std::string> row = normRow(bench, o, 0);
             // kThrottles.back() == 50
             row.push_back(
                 std::to_string(o.back().twopass.aStallThrottled));
             t.row(row);
         },
         "(finding: a deferral-RATE trigger is the wrong signal -- "
         "benchmarks that defer heavily, like 183.equake, still profit "
         "from the loads the A-pipe pre-executes between deferrals, so "
         "pausing costs cycles. Moderation needs to key on "
         "pre-executed-load yield, not deferral counts.)"},

        {"prefetch",
         "Ablation: next-line prefetching vs two-pass (cycles "
         "normalized to base/no-prefetch)",
         sweep({CpuKind::kBaseline, CpuKind::kTwoPass}, kPrefetchDegrees,
               [](cpu::CoreConfig &c, unsigned d) {
                   c.mem.prefetchDegree = d;
               }),
         columns(columns({"benchmark"}, kPrefetchDegrees,
                         [](unsigned d) {
                             return "base-pf" + std::to_string(d);
                         }),
                 kPrefetchDegrees,
                 [](unsigned d) { return "2P-pf" + std::to_string(d); }),
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             t.row(normRow(bench, o, 0));
         },
         "(expected: prefetching helps the streaming code (183.equake) "
         "in both machines but does little for random-access misses "
         "(181.mcf) or L2-hit probes (129.compress) -- two-pass keeps "
         "its advantage, and the techniques compose)"},

        {"predictor",
         "Ablation: direction-predictor quality (cycles normalized to "
         "base/gshare)",
         // Variant 0 is the Table 1 design point (base + gshare), the
         // normalizer; then the base and 2P predictor sweeps.
         predictor_variants,
         predictor_header,
         [](sim::TextTable &t, const std::string &bench, Slice o) {
             std::vector<std::string> row = normRow(bench, o, 0, 1);
             // o[1] and o[2] are base with bimodal and gshare.
             row.push_back(sim::pct(mispRate(o[1])));
             row.push_back(sim::pct(mispRate(o[2])));
             t.row(row);
         },
         "(expected: where bimodal mispredicts more, the 2P column "
         "degrades faster than base — the B-DET lengthening at work; "
         "the tournament recovers or beats gshare)"},
    };
}

void
run(const Ablation &a, const std::vector<workloads::Workload> &suite)
{
    std::printf("=== %s ===\n\n", a.title);
    sim::TextTable t;
    t.header(a.header);
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, a.variants);
    const std::size_t n = a.variants.size();
    for (std::size_t wi = 0; wi < suite.size(); ++wi)
        a.rows(t, suite[wi].name, Slice(outcomes).subspan(wi * n, n));
    std::printf("%s", t.render().c_str());
    if (a.note != nullptr)
        std::printf("\n%s\n", a.note);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::parseJobsFlag(argc, argv);
    const std::vector<Ablation> all = ablations();
    std::vector<const Ablation *> chosen;
    int arg = 1;
    if (arg < argc &&
        !std::isdigit(static_cast<unsigned char>(argv[arg][0]))) {
        for (const Ablation &a : all) {
            if (std::strcmp(a.name, argv[arg]) == 0)
                chosen.push_back(&a);
        }
        if (chosen.empty()) {
            std::fprintf(stderr, "bench_ablate: unknown ablation '%s'; "
                                 "one of:",
                         argv[arg]);
            for (const Ablation &a : all)
                std::fprintf(stderr, " %s", a.name);
            std::fprintf(stderr, "\n");
            return 2;
        }
        ++arg;
    } else {
        for (const Ablation &a : all)
            chosen.push_back(&a);
    }
    const int scale = arg < argc ? std::atoi(argv[arg]) : 100;

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    for (const Ablation *a : chosen)
        run(*a, suite);
    return 0;
}
