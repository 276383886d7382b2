/**
 * @file
 * Unit tests of the metrics primitives: JSON writer syntax and
 * escaping, counters, histogram binning/mean/quantile/snapshot
 * encoding, time-series epoch folding, registry idempotence, and the
 * field-table helpers behind every statsReport(). The export path
 * (schema conformance of whole documents) is covered by the
 * bench-smoke gate; these pin the building blocks it rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/metrics.hh"
#include "common/stat_fields.hh"

namespace
{

using namespace ff;
using metrics::Counter;
using metrics::Histogram;
using metrics::JsonWriter;
using metrics::Registry;
using metrics::TimeSeries;

std::string
render(void (*body)(JsonWriter &))
{
    std::ostringstream os;
    JsonWriter w(os);
    body(w);
    return os.str();
}

TEST(JsonWriter, CommasAndNestingAreCorrect)
{
    const std::string doc = render([](JsonWriter &w) {
        w.beginObject();
        w.kv("a", std::uint64_t(1));
        w.key("b");
        w.beginArray();
        w.value(std::uint64_t(2));
        w.value(std::uint64_t(3));
        w.beginObject();
        w.endObject();
        w.endArray();
        w.kv("c", true);
        w.endObject();
    });
    EXPECT_EQ(doc, R"({"a":1,"b":[2,3,{}],"c":true})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t\x01"),
              "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesAreSerializedAsZero)
{
    const std::string doc = render([](JsonWriter &w) {
        w.beginArray();
        w.value(std::nan(""));
        w.value(1.5);
        w.endArray();
    });
    EXPECT_EQ(doc, "[0,1.5]");
}

TEST(Histogram, BinsMeanAndQuantiles)
{
    Histogram h(0, 10, 5); // buckets of width 2
    for (int v : {0, 1, 3, 5, 9, 9})
        h.sample(v);
    h.sample(-1); // underflow
    h.sample(10); // overflow (max is exclusive)

    EXPECT_EQ(h.samples(), 8u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 2u); // 0, 1
    EXPECT_EQ(h.buckets()[1], 1u); // 3
    EXPECT_EQ(h.buckets()[2], 1u); // 5
    EXPECT_EQ(h.buckets()[4], 2u); // 9, 9
    EXPECT_DOUBLE_EQ(h.mean(), 36.0 / 8.0);
    EXPECT_EQ(h.quantile(0.0), 0);  // lands in the underflow tail
    EXPECT_EQ(h.quantile(1.0), 10); // lands in the overflow tail
    EXPECT_LE(h.quantile(0.5), 5);
}

TEST(Histogram, BucketsInRange)
{
    Histogram h(0, 10, 5); // buckets of width 2
    h.sample(0);
    h.sample(1);
    h.sample(9);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[4], 1u);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(Histogram, UnderflowAndOverflow)
{
    Histogram h(0, 10, 5);
    h.sample(-1);
    h.sample(10); // max is exclusive
    h.sample(100);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(Histogram, NegativeRange)
{
    Histogram h(-8, 8, 4);
    h.sample(-8);
    h.sample(-1);
    h.sample(7);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(Histogram, MeanIncludesOutOfRange)
{
    Histogram h(0, 10, 2);
    h.sample(2);
    h.sample(100);
    EXPECT_DOUBLE_EQ(h.mean(), 51.0);
}

TEST(Histogram, Reset)
{
    Histogram h(0, 4, 2);
    h.sample(1);
    h.sample(-5);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SaveRestoreRoundTrip)
{
    Histogram h(-4, 12, 4);
    for (int v : {-9, -4, 0, 3, 11, 12, 40})
        h.sample(v);
    serial::Writer w;
    h.save(w);

    Histogram back(-4, 12, 4);
    back.sample(5); // overwritten by restore()
    serial::Reader r(w.buffer());
    back.restore(r);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.buckets(), h.buckets());
    EXPECT_EQ(back.samples(), h.samples());
    EXPECT_EQ(back.underflow(), h.underflow());
    EXPECT_EQ(back.overflow(), h.overflow());
    EXPECT_DOUBLE_EQ(back.mean(), h.mean());

    // Re-encoding the restored copy gives the same bytes.
    serial::Writer again;
    back.save(again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(Histogram, RestoreRejectsMismatchedGeometry)
{
    Histogram h(0, 16, 4);
    h.sample(3);
    serial::Writer w;
    h.save(w);
    for (Histogram other : {Histogram(1, 16, 4), Histogram(0, 17, 4),
                            Histogram(0, 16, 8)}) {
        serial::Reader r(w.buffer());
        other.restore(r);
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(other.samples(), 0u);
    }
}

TEST(HistogramDeathTest, BadRangePanics)
{
    EXPECT_DEATH(Histogram(5, 5, 1), "bad histogram range");
}

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, Reset)
{
    Counter c;
    c += 7;
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TimeSeries, FoldsSamplesIntoEpochMeans)
{
    TimeSeries s(100);
    s.sample(0, 1.0);
    s.sample(50, 3.0);  // epoch 0 mean: 2.0
    s.sample(150, 5.0); // epoch 1 mean: 5.0
    s.sample(420, 7.0); // epochs 2-3 empty (mean 0), epoch 4 partial
    s.finish();

    ASSERT_EQ(s.points().size(), 5u);
    EXPECT_DOUBLE_EQ(s.points()[0], 2.0);
    EXPECT_DOUBLE_EQ(s.points()[1], 5.0);
    EXPECT_DOUBLE_EQ(s.points()[2], 0.0);
    EXPECT_DOUBLE_EQ(s.points()[3], 0.0);
    EXPECT_DOUBLE_EQ(s.points()[4], 7.0);
}

TEST(Registry, NamesAreIdempotentPerKind)
{
    Registry reg;
    ++reg.counter("events");
    ++reg.counter("events");
    EXPECT_EQ(reg.counter("events").value(), 2u);

    Histogram &h = reg.histogram("depth", 0, 8, 8);
    h.sample(3);
    EXPECT_EQ(reg.histogram("depth", 0, 8, 8).samples(), 1u);

    EXPECT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(Registry, ToJsonEmitsTheThreeKindMaps)
{
    Registry reg;
    ++reg.counter("c");
    reg.histogram("h", 0, 4, 2).sample(1);
    reg.series("s", 10).sample(5, 2.0);
    reg.finish();

    std::ostringstream os;
    JsonWriter w(os);
    reg.toJson(w);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"counters\":{\"c\":1}"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"h\":{\"min\":0,\"max\":4"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"s\":{\"epochCycles\":10,\"points\":[2]"),
              std::string::npos)
        << doc;
}

/** A counter struct with its field table, as the simulator's are. */
struct ToyStats
{
    std::uint64_t zeta = 0;
    std::uint64_t hidden = 0;
    std::uint64_t alpha = 0;
};

template <StatsOf<ToyStats> S, typename F>
void
forEachStat(S &s, F &&f)
{
    f("zeta", s.zeta);
    f("", s.hidden);
    f("alpha", s.alpha);
}

TEST(StatFields, RenderSortsByNameAndSkipsUnnamedFields)
{
    ToyStats s;
    s.zeta = 3;
    s.hidden = 9;
    s.alpha = 5;
    EXPECT_EQ(renderStats("toy", s), "toy.alpha 5\ntoy.zeta 3\n");
    EXPECT_EQ(renderStatLines("g", {{"b", 2}, {"a.x", 1}, {"a", 0}}),
              "g.a 0\ng.a.x 1\ng.b 2\n");
}

TEST(StatFields, SaveRestoreWalksEveryFieldInTableOrder)
{
    ToyStats s;
    s.zeta = 1;
    s.hidden = 2;
    s.alpha = 3;
    serial::Writer w;
    saveStats(w, s);
    serial::Reader r(w.buffer());
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), 3u);

    ToyStats back;
    serial::Reader again(w.buffer());
    restoreStats(again, back);
    EXPECT_TRUE(again.ok() && again.atEnd());
    EXPECT_EQ(back.zeta, 1u);
    EXPECT_EQ(back.hidden, 2u);
    EXPECT_EQ(back.alpha, 3u);
}

} // namespace
