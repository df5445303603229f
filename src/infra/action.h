#ifndef AUTOGLOBE_INFRA_ACTION_H_
#define AUTOGLOBE_INFRA_ACTION_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>

#include "common/result.h"

namespace autoglobe::infra {

/// Unique identifier of a running service instance.
using InstanceId = uint64_t;

/// The controller's action vocabulary — exactly the output variables
/// of Table 2.
enum class ActionType {
  kStart,             // start a service (its first instance)
  kStop,              // stop a service entirely
  kScaleIn,           // stop one service instance
  kScaleOut,          // start an additional service instance
  kScaleUp,           // move an instance to a more powerful host
  kScaleDown,         // move an instance to a less powerful host
  kMove,              // move an instance to an equivalent host
  kIncreasePriority,  // raise the CPU share of a service
  kReducePriority,    // lower the CPU share of a service
};

/// All action types, in Table 2 order.
inline constexpr ActionType kAllActionTypes[] = {
    ActionType::kStart,        ActionType::kStop,
    ActionType::kScaleIn,      ActionType::kScaleOut,
    ActionType::kScaleUp,      ActionType::kScaleDown,
    ActionType::kMove,         ActionType::kIncreasePriority,
    ActionType::kReducePriority,
};

/// A set of action types, held as a bitmask over the nine
/// enumerators: no heap, and iteration visits the members in enum
/// (Table 2) order, as a std::set<ActionType> would.
class ActionSet {
 public:
  /// Visits the set bits, lowest first.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ActionType;
    using difference_type = std::ptrdiff_t;
    using pointer = const ActionType*;
    using reference = ActionType;

    iterator() = default;
    ActionType operator*() const {
      return static_cast<ActionType>(std::countr_zero(bits_));
    }
    iterator& operator++() {
      bits_ &= static_cast<uint16_t>(bits_ - 1);  // clear the lowest bit
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class ActionSet;
    explicit iterator(uint16_t bits) : bits_(bits) {}
    uint16_t bits_ = 0;
  };
  using const_iterator = iterator;
  using value_type = ActionType;

  ActionSet() = default;
  ActionSet(std::initializer_list<ActionType> actions) {
    for (ActionType action : actions) insert(action);
  }

  void insert(ActionType action) { bits_ |= Bit(action); }
  size_t count(ActionType action) const {
    return (bits_ & Bit(action)) != 0 ? 1 : 0;
  }
  void clear() { bits_ = 0; }
  bool empty() const { return bits_ == 0; }
  size_t size() const { return static_cast<size_t>(std::popcount(bits_)); }
  iterator begin() const { return iterator(bits_); }
  iterator end() const { return iterator(0); }
  bool operator==(const ActionSet&) const = default;

 private:
  static uint16_t Bit(ActionType action) {
    return static_cast<uint16_t>(1u << static_cast<unsigned>(action));
  }
  uint16_t bits_ = 0;
};

/// Fuzzy output-variable name of an action, e.g. "scaleOut".
std::string_view ActionTypeName(ActionType type);

/// Inverse of ActionTypeName (case-insensitive).
Result<ActionType> ParseActionType(std::string_view name);

/// True for actions that need a target host chosen by the
/// server-selection controller (paper §4.2: scale-out, scale-up,
/// scale-down, move, start).
bool ActionNeedsTargetServer(ActionType type);

/// True for actions that operate on an existing instance.
bool ActionNeedsInstance(ActionType type);

/// A concrete administrative action the controller wants executed.
struct Action {
  ActionType type = ActionType::kMove;
  std::string service;        // affected service
  InstanceId instance = 0;    // affected instance (if ActionNeedsInstance)
  std::string source_server;  // informational: where the instance runs
  std::string target_server;  // chosen host (if ActionNeedsTargetServer)

  /// e.g. "scaleOut FI -> Blade6" or "scaleIn FI@Blade5".
  std::string ToString() const;
};

}  // namespace autoglobe::infra

#endif  // AUTOGLOBE_INFRA_ACTION_H_
