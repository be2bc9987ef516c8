/**
 * @file
 * The Tradeoff Interface (TI) — paper section 3.3 and Figure 10.
 *
 * A tradeoff is a piece of program text (constant, data type, or
 * function) whose value is chosen from a developer-supplied range.
 * Values are sorted by index; `getMaxIndex()` returns how many values
 * exist, `getValue(i)` the i-th value, and `getDefaultIndex()` the
 * index used outside auxiliary code. The middle-end compiler clones
 * the tradeoffs reachable from a state dependence's computeOutput()
 * so that the quality of auxiliary code can be controlled
 * independently from the rest of the program.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace stats::tradeoff {

/** A tradeoff value: a constant, a data type, or a function. */
class TradeoffValue
{
  public:
    enum class Kind
    {
        Integer,      ///< e.g. number of annealing layers
        Real,         ///< e.g. a threshold constant
        TypeName,     ///< e.g. "float" vs "double"
        FunctionName, ///< e.g. a specific sqrt implementation
    };

    static TradeoffValue integer(std::int64_t v);
    static TradeoffValue real(double v);
    static TradeoffValue typeName(std::string name);
    static TradeoffValue functionName(std::string name);

    Kind kind() const { return _kind; }
    std::int64_t asInteger() const;
    double asReal() const;
    const std::string &asName() const;

    /** Printable form, used in logs and the state-space dump. */
    std::string toString() const;

    bool operator==(const TradeoffValue &other) const;

  private:
    TradeoffValue(Kind kind, std::int64_t i, double d, std::string name)
        : _kind(kind), _int(i), _real(d), _name(std::move(name))
    {
    }

    Kind _kind;
    std::int64_t _int;
    double _real;
    std::string _name;
};

/**
 * Paper Figure 10's `Tradeoff_options`: the developer-supplied value
 * range of one tradeoff.
 */
class TradeoffOptions
{
  public:
    virtual ~TradeoffOptions() = default;

    /** Number of possible values. */
    virtual std::int64_t getMaxIndex() const = 0;

    /** The i-th possible value; requires 0 <= i < getMaxIndex(). */
    virtual TradeoffValue getValue(std::int64_t i) const = 0;

    /** Index used when the tradeoff appears outside auxiliary code. */
    virtual std::int64_t getDefaultIndex() const = 0;

    /** Deep copy (used when the middle-end clones tradeoffs). */
    virtual std::unique_ptr<TradeoffOptions> clone() const = 0;
};

/** Integer range [lo, lo+step, ...] with `count` values. */
class IntRangeOptions : public TradeoffOptions
{
  public:
    IntRangeOptions(std::int64_t lo, std::int64_t count,
                    std::int64_t step = 1, std::int64_t default_index = 0);

    std::int64_t getMaxIndex() const override { return _count; }
    TradeoffValue getValue(std::int64_t i) const override;
    std::int64_t getDefaultIndex() const override { return _default; }
    std::unique_ptr<TradeoffOptions> clone() const override;

  private:
    std::int64_t _lo;
    std::int64_t _count;
    std::int64_t _step;
    std::int64_t _default;
};

/** Explicit list of real values. */
class RealListOptions : public TradeoffOptions
{
  public:
    RealListOptions(std::vector<double> values,
                    std::int64_t default_index = 0);

    std::int64_t getMaxIndex() const override;
    TradeoffValue getValue(std::int64_t i) const override;
    std::int64_t getDefaultIndex() const override { return _default; }
    std::unique_ptr<TradeoffOptions> clone() const override;

  private:
    std::vector<double> _values;
    std::int64_t _default;
};

/** List of type or function names (data-type / function tradeoffs). */
class NameListOptions : public TradeoffOptions
{
  public:
    NameListOptions(TradeoffValue::Kind kind,
                    std::vector<std::string> names,
                    std::int64_t default_index = 0);

    std::int64_t getMaxIndex() const override;
    TradeoffValue getValue(std::int64_t i) const override;
    std::int64_t getDefaultIndex() const override { return _default; }
    std::unique_ptr<TradeoffOptions> clone() const override;

  private:
    TradeoffValue::Kind _kind;
    std::vector<std::string> _names;
    std::int64_t _default;
};

/** A named tradeoff: options plus identity/cloning metadata. */
class Tradeoff
{
  public:
    Tradeoff(std::string name, std::unique_ptr<TradeoffOptions> options,
             bool aux_clone = false, std::string origin = "");

    const std::string &name() const { return _name; }
    const TradeoffOptions &options() const { return *_options; }

    /** True for tradeoffs the middle-end cloned into auxiliary code. */
    bool isAuxClone() const { return _auxClone; }

    /** Name of the original tradeoff this one was cloned from. */
    const std::string &origin() const { return _origin; }

    std::int64_t valueCount() const { return _options->getMaxIndex(); }
    TradeoffValue valueAt(std::int64_t i) const;

  private:
    std::string _name;
    std::unique_ptr<TradeoffOptions> _options;
    bool _auxClone;
    std::string _origin;
};

} // namespace stats::tradeoff
