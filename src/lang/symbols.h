// String interning. Every name in the system (predicate names, constant
// names) is interned once and handled as a dense int32 id afterwards. This
// is the antidote to pointer-linked term trees: all downstream structures
// (atoms, tuples, ground atoms) are flat vectors of ids with value
// semantics, so there is no manual memory management for terms anywhere.
#ifndef TIEBREAK_LANG_SYMBOLS_H_
#define TIEBREAK_LANG_SYMBOLS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace tiebreak {

/// Dense id of a predicate symbol within one Program.
using PredId = int32_t;
/// Dense id of a constant symbol within one Program's constant table.
using ConstId = int32_t;
/// A ground argument tuple.
using Tuple = std::vector<ConstId>;

/// Bidirectional string <-> dense id map. Ids are assigned in insertion
/// order starting at 0 and never change.
///
/// Each name is stored once, in `names_`. The reverse index is an
/// open-addressing table of ids (not of strings or views), so lookups hash
/// the caller's string_view without building a temporary std::string, and
/// the defaulted copy and move stay valid: a slot names an id, never a
/// byte address inside some other table's strings.
class SymbolTable {
 public:
  /// Returns the id of `name`, interning it if new.
  int32_t Intern(std::string_view name);

  /// Returns the id of `name` or -1 when absent.
  int32_t Lookup(std::string_view name) const;

  const std::string& Name(int32_t id) const {
    TIEBREAK_CHECK_GE(id, 0);
    TIEBREAK_CHECK_LT(id, static_cast<int32_t>(names_.size()));
    return names_[id];
  }

  int32_t size() const { return static_cast<int32_t>(names_.size()); }

 private:
  // Names up to this long are compared inside their slot.
  static constexpr size_t kShortName = 7;

  // One index slot: the id of a name, 32 bits of its hash (which also place
  // the slot), and for a short name its length and bytes. A probe for a
  // short name never loads names_[id], which on a large table saves a
  // second cache miss per lookup.
  struct Slot {
    int32_t id = -1;  // -1 = empty
    uint32_t hash = 0;
    uint8_t size = 0;  // the name's length, or kShortName + 1 if longer
    char bytes[kShortName] = {};
  };

  static uint32_t Hash(std::string_view name);
  static uint8_t SizeTag(std::string_view name) {
    return static_cast<uint8_t>(std::min(name.size(), kShortName + 1));
  }
  // Index of the slot holding `name`, or of the empty slot where it would
  // go. Requires a non-empty table.
  size_t Find(std::string_view name, uint32_t hash) const;
  // Doubles the slot table (at least 16 slots) and reinserts every id.
  void Grow();

  std::vector<std::string> names_;
  // Power-of-two slot table, at most half full.
  std::vector<Slot> slots_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_SYMBOLS_H_
