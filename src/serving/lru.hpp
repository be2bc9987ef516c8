/**
 * @file
 * A bounded least-recently-used map keyed by exact byte strings: the
 * one eviction policy behind every serving-plane cache (the admitted-
 * module table, the compile cache, and the result cache).
 *
 * Keys are compared byte for byte, never by a hash alone, so two
 * different keys can never share an entry. Not synchronized: each
 * owner guards its map with its own lock.
 */

#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace stats::serving {

template <class Value>
class LruMap
{
  public:
    /** Entries beyond `capacity` are evicted, least recent first;
     *  the newest entry always stays resident. */
    explicit LruMap(std::size_t capacity) : _capacity(capacity) {}

    /** The value under `key`, refreshed to most recent; nullptr on a
     *  miss. */
    Value *
    find(std::string_view key)
    {
        const auto it = _index.find(key);
        if (it == _index.end())
            return nullptr;
        _order.splice(_order.begin(), _order, it->second);
        return &it->second->second;
    }

    /**
     * Insert `value` under `key` unless the key is already resident
     * (the first insert wins; the resident entry is refreshed), then
     * evict down to capacity. Returns the resident value; the number
     * of evicted entries is added to `*evicted` when given.
     */
    Value &
    insert(std::string key, Value value, std::size_t *evicted = nullptr)
    {
        if (Value *resident = find(key))
            return *resident;
        _order.emplace_front(std::move(key), std::move(value));
        _index.emplace(_order.front().first, _order.begin());
        while (_order.size() > _capacity && _order.size() > 1) {
            _index.erase(_order.back().first);
            _order.pop_back();
            if (evicted)
                ++*evicted;
        }
        return _order.front().second;
    }

    std::size_t size() const { return _order.size(); }

  private:
    using Order = std::list<std::pair<std::string, Value>>;

    std::size_t _capacity;
    /** Most recent first. */
    Order _order;
    /** Views into the keys the list nodes own (nodes never move). */
    std::unordered_map<std::string_view, typename Order::iterator>
        _index;
};

} // namespace stats::serving
