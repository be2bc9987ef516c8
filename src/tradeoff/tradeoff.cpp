#include "tradeoff/tradeoff.hpp"

#include <sstream>

#include "support/log.hpp"

namespace stats::tradeoff {

TradeoffValue
TradeoffValue::integer(std::int64_t v)
{
    return TradeoffValue(Kind::Integer, v, 0.0, "");
}

TradeoffValue
TradeoffValue::real(double v)
{
    return TradeoffValue(Kind::Real, 0, v, "");
}

TradeoffValue
TradeoffValue::typeName(std::string name)
{
    return TradeoffValue(Kind::TypeName, 0, 0.0, std::move(name));
}

TradeoffValue
TradeoffValue::functionName(std::string name)
{
    return TradeoffValue(Kind::FunctionName, 0, 0.0, std::move(name));
}

std::int64_t
TradeoffValue::asInteger() const
{
    if (_kind != Kind::Integer)
        support::panic("TradeoffValue: not an integer");
    return _int;
}

double
TradeoffValue::asReal() const
{
    if (_kind == Kind::Integer)
        return static_cast<double>(_int);
    if (_kind != Kind::Real)
        support::panic("TradeoffValue: not a real");
    return _real;
}

const std::string &
TradeoffValue::asName() const
{
    if (_kind != Kind::TypeName && _kind != Kind::FunctionName)
        support::panic("TradeoffValue: not a name");
    return _name;
}

std::string
TradeoffValue::toString() const
{
    std::ostringstream out;
    switch (_kind) {
      case Kind::Integer:
        out << _int;
        break;
      case Kind::Real:
        out << _real;
        break;
      case Kind::TypeName:
        out << "type:" << _name;
        break;
      case Kind::FunctionName:
        out << "fn:" << _name;
        break;
    }
    return out.str();
}

bool
TradeoffValue::operator==(const TradeoffValue &other) const
{
    if (_kind != other._kind)
        return false;
    switch (_kind) {
      case Kind::Integer: return _int == other._int;
      case Kind::Real: return _real == other._real;
      default: return _name == other._name;
    }
}

IntRangeOptions::IntRangeOptions(std::int64_t lo, std::int64_t count,
                                 std::int64_t step,
                                 std::int64_t default_index)
    : _lo(lo), _count(count), _step(step), _default(default_index)
{
    if (count <= 0 || default_index < 0 || default_index >= count)
        support::panic("IntRangeOptions: invalid range");
}

TradeoffValue
IntRangeOptions::getValue(std::int64_t i) const
{
    if (i < 0 || i >= _count)
        support::panic("IntRangeOptions: index ", i, " out of range");
    return TradeoffValue::integer(_lo + i * _step);
}

std::unique_ptr<TradeoffOptions>
IntRangeOptions::clone() const
{
    return std::make_unique<IntRangeOptions>(*this);
}

RealListOptions::RealListOptions(std::vector<double> values,
                                 std::int64_t default_index)
    : _values(std::move(values)), _default(default_index)
{
    if (_values.empty() || default_index < 0 ||
        default_index >= static_cast<std::int64_t>(_values.size())) {
        support::panic("RealListOptions: invalid values");
    }
}

std::int64_t
RealListOptions::getMaxIndex() const
{
    return static_cast<std::int64_t>(_values.size());
}

TradeoffValue
RealListOptions::getValue(std::int64_t i) const
{
    if (i < 0 || i >= getMaxIndex())
        support::panic("RealListOptions: index ", i, " out of range");
    return TradeoffValue::real(_values[static_cast<std::size_t>(i)]);
}

std::unique_ptr<TradeoffOptions>
RealListOptions::clone() const
{
    return std::make_unique<RealListOptions>(*this);
}

NameListOptions::NameListOptions(TradeoffValue::Kind kind,
                                 std::vector<std::string> names,
                                 std::int64_t default_index)
    : _kind(kind), _names(std::move(names)), _default(default_index)
{
    if (_names.empty() || default_index < 0 ||
        default_index >= static_cast<std::int64_t>(_names.size())) {
        support::panic("NameListOptions: invalid names");
    }
    if (kind != TradeoffValue::Kind::TypeName &&
        kind != TradeoffValue::Kind::FunctionName) {
        support::panic("NameListOptions: kind must be a name kind");
    }
}

std::int64_t
NameListOptions::getMaxIndex() const
{
    return static_cast<std::int64_t>(_names.size());
}

TradeoffValue
NameListOptions::getValue(std::int64_t i) const
{
    if (i < 0 || i >= getMaxIndex())
        support::panic("NameListOptions: index ", i, " out of range");
    const std::string &name = _names[static_cast<std::size_t>(i)];
    return _kind == TradeoffValue::Kind::TypeName
               ? TradeoffValue::typeName(name)
               : TradeoffValue::functionName(name);
}

std::unique_ptr<TradeoffOptions>
NameListOptions::clone() const
{
    return std::make_unique<NameListOptions>(*this);
}

Tradeoff::Tradeoff(std::string name,
                   std::unique_ptr<TradeoffOptions> options,
                   bool aux_clone, std::string origin)
    : _name(std::move(name)), _options(std::move(options)),
      _auxClone(aux_clone), _origin(std::move(origin))
{
    if (!_options)
        support::panic("Tradeoff '", _name, "' has no options");
}

TradeoffValue
Tradeoff::valueAt(std::int64_t i) const
{
    return _options->getValue(i);
}

} // namespace stats::tradeoff
