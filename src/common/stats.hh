/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components keep plain counters in their own Stats structs; the helpers
 * here provide accumulation (mean/max/histogram) and uniform formatting
 * when dumping. A global registry is deliberately avoided: experiments run
 * many System instances in one process and stats must stay per-instance.
 */

#ifndef SDPCM_COMMON_STATS_HH
#define SDPCM_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace sdpcm {

/** Online accumulator for count / sum / min / max / mean. */
class RunningStat
{
  public:
    void
    record(double value)
    {
        count_ += 1;
        sum_ += value;
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        *this = RunningStat();
    }

    void
    merge(const RunningStat& other)
    {
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.count_) {
            if (other.min_ < min_)
                min_ = other.min_;
            if (other.max_ > max_)
                max_ = other.max_;
        }
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bucket histogram over integer values [0, maxValue].
 *
 * Accessor semantics mirror `record()`: values above `maxValue` are
 * tracked in a single overflow bucket (`overflow()`), and `bucket(v)` for
 * an out-of-range `v` returns 0 rather than throwing, so callers can probe
 * any value uniformly. Aggregates (`mean()`, `percentile()`) count the
 * overflow bucket at the maximum representable value.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t max_value = 64)
        : buckets_(max_value + 1, 0)
    {}

    void
    record(std::uint64_t value)
    {
        total_ += 1;
        if (value >= buckets_.size())
            overflow_ += 1;
        else
            buckets_[value] += 1;
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Samples recorded with exactly value `v`; 0 if `v` > maxValue. */
    std::uint64_t
    bucket(std::size_t v) const
    {
        return v < buckets_.size() ? buckets_[v] : 0;
    }

    std::size_t numBuckets() const { return buckets_.size(); }

    /**
     * Fold another histogram in. Mirrors record(): samples of `other`
     * that fall beyond our maxValue (including its overflow) land in
     * our overflow bucket, so merging histograms of different sizes is
     * lossy only in the direction record() already is.
     */
    void
    merge(const Histogram& other)
    {
        total_ += other.total_;
        overflow_ += other.overflow_;
        for (std::size_t v = 0; v < other.buckets_.size(); ++v) {
            if (v < buckets_.size())
                buckets_[v] += other.buckets_[v];
            else
                overflow_ += other.buckets_[v];
        }
    }

    /** Fraction of samples with value >= threshold. */
    double tailFraction(std::uint64_t threshold) const;

    /** Mean over recorded samples (overflow samples counted at max). */
    double mean() const;

    /**
     * Smallest recorded value v such that at least `q * total()` samples
     * are <= v (overflow samples counted at max). `q` is clamped to
     * [0, 1]; returns 0 when nothing has been recorded.
     */
    double percentile(double q) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
    std::uint64_t overflow_ = 0;
};

/**
 * Fixed-memory quantile estimator over non-negative integer samples.
 *
 * An HdrHistogram-style log-linear sketch: values below 16 get exact
 * buckets; every power-of-two octave above that is split into 16 linear
 * sub-buckets, so any percentile is reported with <= 1/16 (6.25%)
 * relative error regardless of the value range (full uint64). Memory is
 * a constant ~8KB per sketch and `record()` is O(1) — suitable for
 * per-request latency tracking on the simulator's hot path.
 */
class QuantileSketch
{
  public:
    void
    record(std::uint64_t value)
    {
        count_ += 1;
        counts_[bucketIndex(value)] += 1;
    }

    std::uint64_t count() const { return count_; }

    /**
     * Value at quantile `q` in [0, 1] (clamped): the representative
     * (midpoint) of the smallest bucket whose cumulative count reaches
     * `q * count()`. Returns 0 when nothing has been recorded.
     */
    double percentile(double q) const;

    void merge(const QuantileSketch& other);

    /**
     * Sketch of the samples recorded in *this but not in `earlier`.
     * `earlier` must be a previous snapshot of the same sketch (every
     * bucket monotonically <= ours; asserted). This is what windowed
     * telemetry views are built from: cumulative snapshots subtract into
     * per-epoch deltas that merge back losslessly.
     */
    QuantileSketch diff(const QuantileSketch& earlier) const;

    /**
     * Samples with value above `threshold`, at bucket granularity: the
     * count of all buckets entirely above the threshold's bucket, so the
     * result inherits the sketch's <= 6.25% relative error (error-budget
     * burn-rate monitors, tail fractions).
     */
    std::uint64_t countAbove(std::uint64_t threshold) const;

    void
    reset()
    {
        *this = QuantileSketch();
    }

  private:
    // 16 exact buckets + 60 octaves x 16 sub-buckets covers all of uint64.
    static constexpr unsigned kSubBucketBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    static constexpr unsigned kNumBuckets = kSubBuckets * 61;

    static unsigned bucketIndex(std::uint64_t value);
    static double bucketMid(unsigned index);

    std::vector<std::uint64_t> counts_ =
        std::vector<std::uint64_t>(kNumBuckets, 0);
    std::uint64_t count_ = 0;
};

/**
 * Latency distribution tracker: a RunningStat for the moments plus a
 * QuantileSketch for tail percentiles. Drop-in replacement for the plain
 * RunningStat counters in component Stats structs.
 */
class LatencyStat
{
  public:
    void
    record(double value)
    {
        running_.record(value);
        sketch_.record(value <= 0.0
                           ? 0
                           : static_cast<std::uint64_t>(value + 0.5));
    }

    std::uint64_t count() const { return running_.count(); }
    double sum() const { return running_.sum(); }
    double mean() const { return running_.mean(); }
    double min() const { return running_.min(); }
    double max() const { return running_.max(); }
    double percentile(double q) const { return sketch_.percentile(q); }

    const RunningStat& running() const { return running_; }
    const QuantileSketch& sketch() const { return sketch_; }

    void
    reset()
    {
        running_.reset();
        sketch_.reset();
    }

    void
    merge(const LatencyStat& other)
    {
        running_.merge(other.running_);
        sketch_.merge(other.sketch_);
    }

  private:
    RunningStat running_;
    QuantileSketch sketch_;
};

/** Ordered key/value stat snapshot used for dumping and test assertions. */
class StatSnapshot
{
  public:
    void
    set(const std::string& name, double value)
    {
        values_[name] = value;
    }

    double get(const std::string& name) const;
    bool has(const std::string& name) const;

    void dump(std::ostream& os, const std::string& prefix = "") const;

    /**
     * Write the snapshot as one JSON object (`{"name": value, ...}`,
     * keys in map order). Numbers use the shared round-trip formatter
     * (obs/json.hh), so a parsed value bit-matches the stored double —
     * tools and tests consume this instead of re-parsing table output.
     */
    void toJson(std::ostream& os) const;

    const std::map<std::string, double>& values() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_STATS_HH
