#include "common/metrics.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace ff
{
namespace metrics
{

// ---- JsonWriter ----------------------------------------------------

void
JsonWriter::preValue()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (!_needComma.empty()) {
        if (_needComma.back())
            _os << ',';
        _needComma.back() = true;
    }
}

void
JsonWriter::beginObject()
{
    preValue();
    _os << '{';
    _needComma.push_back(false);
}

void
JsonWriter::endObject()
{
    ff_panic_if(_needComma.empty(), "JsonWriter: endObject underflow");
    _needComma.pop_back();
    _os << '}';
}

void
JsonWriter::beginArray()
{
    preValue();
    _os << '[';
    _needComma.push_back(false);
}

void
JsonWriter::endArray()
{
    ff_panic_if(_needComma.empty(), "JsonWriter: endArray underflow");
    _needComma.pop_back();
    _os << ']';
}

void
JsonWriter::key(std::string_view k)
{
    ff_panic_if(_needComma.empty(),
                "JsonWriter: key outside an object");
    if (_needComma.back())
        _os << ',';
    _needComma.back() = true;
    _os << '"' << escape(k) << "\":";
    _afterKey = true;
}

void
JsonWriter::value(std::string_view s)
{
    preValue();
    _os << '"' << escape(s) << '"';
}

void
JsonWriter::value(bool b)
{
    preValue();
    _os << (b ? "true" : "false");
}

void
JsonWriter::value(double d)
{
    preValue();
    // JSON has no NaN/Infinity literals; clamp to null-equivalent 0.
    if (!std::isfinite(d))
        d = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", d);
    _os << buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    preValue();
    _os << v;
}

void
JsonWriter::value(std::int64_t v)
{
    preValue();
    _os << v;
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ---- Histogram -----------------------------------------------------

Histogram::Histogram(std::int64_t min, std::int64_t max,
                     std::size_t num_buckets)
    : _min(min), _max(max), _buckets(num_buckets, 0)
{
    ff_panic_if(max <= min, "bad histogram range");
    ff_panic_if(num_buckets == 0, "zero histogram buckets");
}

double
Histogram::mean() const
{
    return _samples == 0
        ? 0.0
        : static_cast<double>(_sum) / static_cast<double>(_samples);
}

std::int64_t
Histogram::quantile(double q) const
{
    if (_samples == 0)
        return _min;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(_samples));
    std::uint64_t seen = _underflow;
    if (seen > target)
        return _min;
    const std::int64_t width =
        (_max - _min) / static_cast<std::int64_t>(_buckets.size());
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen > target)
            return _min + static_cast<std::int64_t>(i) *
                              (width == 0 ? 1 : width);
    }
    return _max;
}

void
Histogram::reset()
{
    _samples = _underflow = _overflow = 0;
    _sum = 0;
    for (auto &b : _buckets)
        b = 0;
}

void
Histogram::save(serial::Writer &w) const
{
    w.i64(_min);
    w.i64(_max);
    w.u64(_buckets.size());
    for (const std::uint64_t b : _buckets)
        w.u64(b);
    w.u64(_samples);
    w.u64(_underflow);
    w.u64(_overflow);
    w.i64(_sum);
}

void
Histogram::restore(serial::Reader &r)
{
    if (r.i64() != _min || r.i64() != _max ||
        r.seq(8) != _buckets.size()) {
        r.fail();
        return;
    }
    for (std::uint64_t &b : _buckets)
        b = r.u64();
    _samples = r.u64();
    _underflow = r.u64();
    _overflow = r.u64();
    _sum = r.i64();
}

// ---- TimeSeries ----------------------------------------------------

TimeSeries::TimeSeries(Cycle epoch_cycles) : _epoch(epoch_cycles)
{
    ff_panic_if(epoch_cycles == 0, "zero time-series epoch");
}

void
TimeSeries::sample(Cycle now, double v)
{
    const std::uint64_t epoch = now / _epoch;
    while (_curEpoch < epoch) {
        flushEpoch();
        ++_curEpoch;
    }
    _sum += v;
    ++_count;
}

void
TimeSeries::flushEpoch()
{
    _points.push_back(
        _count == 0 ? 0.0 : _sum / static_cast<double>(_count));
    _sum = 0.0;
    _count = 0;
}

void
TimeSeries::finish()
{
    if (_count != 0) {
        flushEpoch();
        ++_curEpoch;
    }
}

void
TimeSeries::reset()
{
    _curEpoch = 0;
    _sum = 0.0;
    _count = 0;
    _points.clear();
}

// ---- Registry ------------------------------------------------------

Counter &
Registry::counter(const std::string &name)
{
    return _counters[name];
}

Histogram &
Registry::histogram(const std::string &name, std::int64_t min,
                    std::int64_t max, std::size_t buckets)
{
    auto it = _histograms.find(name);
    if (it == _histograms.end()) {
        it = _histograms.emplace(name, Histogram(min, max, buckets))
                 .first;
    }
    return it->second;
}

TimeSeries &
Registry::series(const std::string &name, Cycle epoch_cycles)
{
    auto it = _series.find(name);
    if (it == _series.end())
        it = _series.emplace(name, TimeSeries(epoch_cycles)).first;
    return it->second;
}

void
Registry::finish()
{
    for (auto &[name, s] : _series)
        s.finish();
}

void
Registry::toJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, c] : _counters)
        w.kv(name, c.value());
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : _histograms) {
        w.key(name);
        w.beginObject();
        w.kv("min", h.min());
        w.kv("max", h.max());
        w.kv("samples", h.samples());
        w.kv("underflow", h.underflow());
        w.kv("overflow", h.overflow());
        w.kv("mean", h.mean());
        w.key("buckets");
        w.beginArray();
        for (std::uint64_t b : h.buckets())
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.key("series");
    w.beginObject();
    for (const auto &[name, s] : _series) {
        w.key(name);
        w.beginObject();
        w.kv("epochCycles", static_cast<std::uint64_t>(
                                s.epochCycles()));
        w.key("points");
        w.beginArray();
        for (double p : s.points())
            w.value(p);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace metrics
} // namespace ff
