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
//
// Per-target lists: every entry with a valid target is also linked into
// its target node's list, so a pull visits only the entries targeted at
// the pulling node. A target is written only by a retarget pass, which
// files each entry under the target it leaves with (`retarget`); every
// erase path (`erase(it)`, `erase(block)`, `clear()`) unlinks. After a
// FIFO pass each list holds its entries in FIFO order, and erases keep
// that order; after a SmallestJobFirst pass the lists hold the right
// entries in pass order.
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
  /// A queued migration plus its links in its target's list. Not copyable:
  /// the links point at neighbouring entries of this queue.
  class Entry : public PendingMigration {
   public:
    explicit Entry(PendingMigration pm) : PendingMigration(std::move(pm)) {}
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

   private:
    friend class PendingQueue;
    std::list<Entry>::iterator self_;
    Entry* prev_ = nullptr;  // neighbours in the list of `filed_`
    Entry* next_ = nullptr;
    NodeId filed_ = NodeId::invalid();  // the list this entry is linked into
  };

  using List = std::list<Entry>;
  using iterator = List::iterator;
  using const_iterator = List::const_iterator;

  PendingQueue() = default;
  PendingQueue(const PendingQueue&) = delete;
  PendingQueue& operator=(const PendingQueue&) = delete;

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

  /// Appends `pm` (which must not already be queued) and indexes it. The
  /// new entry is in no target's list until the next retarget pass.
  PendingMigration& push(PendingMigration pm);

  /// Erases the entry at `it`; returns the iterator past it.
  iterator erase(iterator it);
  /// Erases the entry for `block` if queued. Returns true if one existed.
  bool erase(BlockId block);
  void clear();

  /// True if some entry is targeted at `node`.
  bool has_targeted(NodeId node) const { return head(node) != nullptr; }

  /// Calls `visit(iterator)` on each entry targeted at `node`, in its
  /// list's order, until it returns false. The visitor may erase the
  /// visited entry, no other.
  template <typename Visit>
  void visit_targeted(NodeId node, Visit&& visit) {
    for (Entry* e = head(node); e != nullptr;) {
      Entry* next = e->next_;  // read before the visitor can erase `e`
      if (!visit(e->self_)) return;
      e = next;
    }
  }

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

  /// One retarget pass: calls `assign(entry)`, which sets the entry's
  /// target, on every entry in `ordering`'s consideration order, and files
  /// each entry under the target it leaves with, right after the last
  /// entry this pass filed there. So a Fifo pass leaves every list in FIFO
  /// order; an entry already in that place (it kept its target, and the
  /// list was in FIFO order) is not relinked.
  template <typename Assign>
  void retarget(Ordering ordering, Assign&& assign) {
    last_filed_.assign(heads_.size(), nullptr);
    visit(ordering, [&](iterator it) {
      assign(*it);
      refile(*it);
      return true;
    });
  }

 private:
  Entry* head(NodeId node) const {
    const auto id = static_cast<std::size_t>(node.value());
    return node.valid() && id < heads_.size() ? heads_[id] : nullptr;
  }
  void unlink(Entry& e);
  /// Moves `e` to the list of its current target (see `retarget`).
  void refile(Entry& e);

  /// A copy of the consideration order. Fifo is insertion order. For
  /// SmallestJobFirst a job's priority is its outstanding pending bytes;
  /// an entry wanted by several jobs inherits the most urgent (smallest)
  /// one, and the sort is stable so FIFO order survives within a job.
  std::vector<iterator> in_order(Ordering ordering);

  List list_;
  std::unordered_map<BlockId, iterator> index_;
  std::vector<Entry*> heads_;       // node id -> first entry targeted there
  std::vector<Entry*> last_filed_;  // node id -> last entry the running pass filed
};

}  // namespace dyrs::core
