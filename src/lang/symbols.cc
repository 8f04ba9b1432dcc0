#include "lang/symbols.h"

#include <functional>

namespace tiebreak {

uint32_t SymbolTable::Hash(std::string_view name) {
  const uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t SymbolTable::Find(std::string_view name, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t at = hash & mask;
  while (true) {
    const Slot& slot = slots_[at];
    if (slot.id < 0) return at;
    if (slot.hash == hash && slot.size == SizeTag(name) &&
        (name.size() <= kShortName
             ? std::string_view(slot.bytes, name.size()) == name
             : names_[slot.id] == name)) {
      return at;
    }
    at = (at + 1) & mask;
  }
}

int32_t SymbolTable::Intern(std::string_view name) {
  // Keep the table at most half full after this insert.
  if (2 * (names_.size() + 1) > slots_.size()) Grow();
  const uint32_t hash = Hash(name);
  Slot& slot = slots_[Find(name, hash)];
  if (slot.id >= 0) return slot.id;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  slot.id = id;
  slot.hash = hash;
  slot.size = SizeTag(name);
  if (name.size() <= kShortName) name.copy(slot.bytes, name.size());
  return id;
}

int32_t SymbolTable::Lookup(std::string_view name) const {
  if (slots_.empty()) return -1;
  return slots_[Find(name, Hash(name))].id;
}

void SymbolTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id < 0) continue;
    size_t at = slot.hash & mask;
    while (slots_[at].id >= 0) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

}  // namespace tiebreak
