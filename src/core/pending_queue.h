// Indexed pending-migration queue with pluggable consideration order.
//
// The master-side half of late binding (§III-A1): blocks wait here until a
// slave pulls for work. Insertion order is FIFO; `visit` additionally
// offers SmallestJobFirst. The index gives O(1) lookup by block, which the
// hot paths (merge on enqueue, missed-read cancellation, deletion) rely on.
//
// Re-added blocks (requeue after a slave failure) take a fresh tail
// position: a requeued migration starts a new wait, it does not jump the
// line ahead of work that arrived while it was bound.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/binding.h"
#include "core/types.h"

namespace dyrs::core {

class PendingQueue {
 public:
  using List = std::list<PendingMigration>;
  using iterator = List::iterator;
  using const_iterator = List::const_iterator;

  bool empty() const { return list_.empty(); }
  std::size_t size() const { return list_.size(); }
  iterator begin() { return list_.begin(); }
  iterator end() { return list_.end(); }
  const_iterator begin() const { return list_.begin(); }
  const_iterator end() const { return list_.end(); }

  bool contains(BlockId block) const { return index_.count(block) != 0; }
  /// Iterator to the entry for `block`, or end().
  iterator find(BlockId block);
  /// The entry for `block`, or nullptr.
  PendingMigration* lookup(BlockId block);

  /// Appends `pm` (which must not already be queued) and indexes it.
  PendingMigration& push(PendingMigration pm);

  /// Erases the entry at `it`; returns the iterator past it.
  iterator erase(iterator it);
  /// Erases the entry for `block` if queued. Returns true if one existed.
  bool erase(BlockId block);
  void clear();

  /// Calls `visit(iterator)` in binding-consideration order until it
  /// returns false: in place along the list for Fifo, over the `in_order`
  /// copy otherwise. The visitor may erase the visited entry, no other.
  template <typename Visit>
  void visit(Ordering ordering, Visit&& visit) {
    if (ordering != Ordering::Fifo) {
      for (iterator it : in_order(ordering)) {
        if (!visit(it)) return;
      }
      return;
    }
    for (auto it = list_.begin(); it != list_.end();) {
      if (!visit(it++)) return;  // advanced before the visitor can erase
    }
  }

 private:
  /// A copy of the consideration order. Fifo is insertion order. For
  /// SmallestJobFirst a job's priority is its outstanding pending bytes;
  /// an entry wanted by several jobs inherits the most urgent (smallest)
  /// one, and the sort is stable so FIFO order survives within a job.
  std::vector<iterator> in_order(Ordering ordering);

  List list_;
  std::unordered_map<BlockId, iterator> index_;
};

}  // namespace dyrs::core
