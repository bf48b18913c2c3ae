#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>

namespace persim
{

Scalar::Scalar(StatGroup *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent) {
        _value = parent->allocCounter();
        parent->add(this);
    }
}

Scalar::Scalar(StatGroup *parent, std::string name, std::string desc,
               std::uint64_t *slot)
    : _name(std::move(name)), _desc(std::move(desc)), _value(slot)
{
    if (parent)
        parent->add(this);
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->add(this);
}

void
Distribution::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    ++_count;
    _sum += v;
    _sumSq += v * v;
    ++_hist[bucketFor(v)];
}

unsigned
Distribution::bucketFor(double v)
{
    if (!(v > 0.0))
        return 0;
    // Saturate huge samples into the top octave rather than overflowing
    // the uint64 conversion below.
    if (v >= 18446744073709551615.0)
        return kNumBuckets - 1;
    return bucketFor(static_cast<std::uint64_t>(v));
}

double
Distribution::bucketValue(unsigned b)
{
    if (b < 2 * kSubBuckets)
        return static_cast<double>(b);
    const unsigned exp = (b >> kSubBucketBits) + kSubBucketBits - 1;
    const unsigned sub = b & (kSubBuckets - 1);
    // Upper bound of the bucket: the largest value that maps into it.
    const double base = std::ldexp(1.0, static_cast<int>(exp));
    const double step = std::ldexp(1.0, static_cast<int>(exp) -
                                            static_cast<int>(kSubBucketBits));
    return base + step * (sub + 1) - 1.0;
}

double
Distribution::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double want = p / 100.0 * static_cast<double>(_count);
    std::uint64_t target = static_cast<std::uint64_t>(std::ceil(want));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b) {
        seen += _hist[b];
        if (seen >= target) {
            // Bucket 0 collects every sample <= 0; when the observed
            // minimum is negative its representative value (0) would
            // exceed min(), so report min() itself for that bucket.
            if (b == 0 && min() < 0.0)
                return min();
            // Clamp the bucket representative into the observed range so
            // p0/p100 agree with min()/max().
            return std::clamp(bucketValue(b), min(), max());
        }
    }
    return max();
}

double
Distribution::stdev() const
{
    if (_count == 0)
        return 0.0;
    double m = mean();
    double var = _sumSq / _count - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    _count = 0;
    _sum = _sumSq = _min = _max = 0.0;
    _hist.fill(0);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const Scalar *s : _scalars) {
        os << std::left << std::setw(48) << (_name + "." + s->name())
           << ' ' << std::setw(16) << s->value() << " # " << s->desc()
           << '\n';
    }
    for (const Distribution *d : _dists) {
        os << std::left << std::setw(48)
           << (_name + "." + d->name() + ".mean") << ' ' << std::setw(16)
           << d->mean() << " # " << d->desc() << " (n=" << d->count()
           << ", min=" << d->min() << ", max=" << d->max()
           << ", p50=" << d->p50() << ", p95=" << d->p95()
           << ", p99=" << d->p99() << ")\n";
    }
}

void
StatGroup::toMap(std::map<std::string, double> &out) const
{
    for (const Scalar *s : _scalars)
        out[_name + "." + s->name()] = static_cast<double>(s->value());
    for (const Distribution *d : _dists) {
        out[_name + "." + d->name() + ".count"] =
            static_cast<double>(d->count());
        out[_name + "." + d->name() + ".mean"] = d->mean();
        out[_name + "." + d->name() + ".sum"] = d->sum();
        out[_name + "." + d->name() + ".max"] = d->max();
        out[_name + "." + d->name() + ".p50"] = d->p50();
        out[_name + "." + d->name() + ".p95"] = d->p95();
        out[_name + "." + d->name() + ".p99"] = d->p99();
    }
}

void
StatGroup::resetAll()
{
    for (Scalar *s : _scalars)
        s->reset();
    for (Distribution *d : _dists)
        d->reset();
}

} // namespace persim
