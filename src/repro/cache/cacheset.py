"""One cache set: lookup structure plus a recency ordering.

The recency order is the single source of truth that replacement policies
manipulate. It is kept as an **intrusive doubly-linked list** threaded
through the blocks themselves (``CacheBlock.prev``/``next``) between two
sentinel nodes, so the operations on the simulator's hot path are all
O(1):

- :meth:`lookup` — tag dict probe;
- :meth:`fill_mru` / :meth:`fill_lru` — splice at either end;
- :meth:`promote` / :meth:`promote_one` — hit promotion;
- :meth:`evict` — unlink anywhere;
- :meth:`lru_block` — the LRU-end peek;
- :meth:`count_core` — incrementally maintained per-core counts.

The one positional operation, :meth:`fill` with an explicit ``position``,
serves inherently positional policies such as PIPP; it walks the list
from the nearer end and is **not** O(1). Policies should express
themselves through the position-free operations above. MRU is position
0; LRU is position ``len - 1``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional

from repro.cache.block import CacheBlock

__all__ = ["CacheSet"]


class CacheSet:
    """A set of ``assoc`` blocks with an MRU→LRU recency order.

    Attributes:
        index: this set's index within the cache.
        assoc: number of ways.
    """

    __slots__ = (
        "index",
        "assoc",
        "_by_tag",
        "lookup_tag",
        "_free",
        "_head",
        "_tail",
        "_count",
        "_core_counts",
    )

    def __init__(self, index: int, assoc: int) -> None:
        self.index = index
        self.assoc = assoc
        self._by_tag: Dict[int, CacheBlock] = {}
        #: Pre-bound ``_by_tag.get`` — the dict object lives as long as the
        #: set, and the access loop probes it once per access.
        self.lookup_tag = self._by_tag.get
        self._free: List[CacheBlock] = [CacheBlock() for _ in range(assoc)]
        head = CacheBlock()  # sentinel: head.next is the MRU block
        tail = CacheBlock()  # sentinel: tail.prev is the LRU block
        head.next = tail
        tail.prev = head
        self._head = head
        self._tail = tail
        self._count = 0
        # defaultdict: the hot count updates are plain subscripts with no
        # .get fallback; at most num_cores keys ever materialise.
        self._core_counts: Dict[int, int] = defaultdict(int)

    # -- lookup ---------------------------------------------------------

    def lookup(self, tag: int) -> Optional[CacheBlock]:
        """Return the valid block holding ``tag``, or ``None``."""
        return self._by_tag.get(tag)

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True when every way holds a valid block."""
        return not self._free

    def __iter__(self) -> Iterator[CacheBlock]:
        """Valid blocks in MRU→LRU order."""
        node = self._head.next
        tail = self._tail
        while node is not tail:
            yield node
            node = node.next

    def iter_lru_to_mru(self) -> Iterator[CacheBlock]:
        """Valid blocks in LRU→MRU order (the natural eviction walk)."""
        node = self._tail.prev
        head = self._head
        while node is not head:
            yield node
            node = node.prev

    # -- occupancy queries ------------------------------------------------

    def count_core(self, core: int) -> int:
        """Number of valid blocks owned by ``core`` in this set (O(1))."""
        return self._core_counts.get(core, 0)

    # -- mutation ---------------------------------------------------------

    def _take_free(self, tag: int, core: int) -> CacheBlock:
        if tag in self._by_tag:
            raise RuntimeError(f"set {self.index}: tag {tag:#x} already present")
        if not self._free:
            raise RuntimeError(f"set {self.index}: fill on a full set")
        block = self._free.pop()
        block.fill(tag, core)
        self._by_tag[tag] = block
        self._count += 1
        self._core_counts[core] += 1
        return block

    def fill_mru(self, tag: int, core: int) -> CacheBlock:
        """Fill a free way at the MRU position (O(1))."""
        block = self._take_free(tag, core)
        head = self._head
        first = head.next
        block.prev = head
        block.next = first
        head.next = block
        first.prev = block
        return block

    def fill_lru(self, tag: int, core: int) -> CacheBlock:
        """Fill a free way at the LRU position (O(1))."""
        block = self._take_free(tag, core)
        tail = self._tail
        last = tail.prev
        block.prev = last
        block.next = tail
        last.next = block
        tail.prev = block
        return block

    def fill(self, tag: int, core: int, position: Optional[int] = None) -> CacheBlock:
        """Fill a free way with (``tag``, ``core``) and place it in the order.

        Args:
            tag: address tag; must not already be present.
            core: owning core id.
            position: recency position to insert at (0 = MRU). ``None``
                inserts at MRU; values past the end insert at LRU. Interior
                positions walk the list from the nearer end — prefer
                :meth:`fill_mru`/:meth:`fill_lru` on hot paths.

        Raises:
            RuntimeError: if the set is full (callers must evict first) or
                the tag is already present.
        """
        if position is None or position <= 0:
            return self.fill_mru(tag, core)
        if position >= self._count:
            return self.fill_lru(tag, core)
        anchor = self._node_at(position)  # before _take_free bumps the count
        block = self._take_free(tag, core)
        self._link_before(block, anchor)
        return block

    def replace_mru(self, victim: CacheBlock, tag: int, core: int) -> CacheBlock:
        """Evict ``victim`` and fill (``tag``, ``core``) at MRU, fused (O(1)).

        Reuses the victim's way in place: no free-pool round trip, one
        recency-list splice. The workhorse of the miss path on a full set.
        Callers must have established that ``tag`` is absent (every call
        site follows a failed lookup); the tag dict is updated unchecked.
        """
        by_tag = self._by_tag
        del by_tag[victim.tag]
        by_tag[tag] = victim
        old_core = victim.core
        if old_core != core:
            counts = self._core_counts
            counts[old_core] -= 1
            counts[core] += 1
        victim.tag = tag
        victim.core = core
        # timestamp/rrpv are deliberately NOT reset: every policy that reads
        # them re-initialises them in its on_fill hook.
        victim.managed = True
        head = self._head
        first = head.next
        if first is not victim:
            prev = victim.prev
            nxt = victim.next
            prev.next = nxt
            nxt.prev = prev
            victim.prev = head
            victim.next = first
            head.next = victim
            first.prev = victim
        return victim

    def replace_lru(self, victim: CacheBlock, tag: int, core: int) -> CacheBlock:
        """Evict ``victim`` and fill (``tag``, ``core``) at LRU, fused (O(1)).

        Same unchecked-tag precondition as :meth:`replace_mru`.
        """
        by_tag = self._by_tag
        del by_tag[victim.tag]
        by_tag[tag] = victim
        old_core = victim.core
        if old_core != core:
            counts = self._core_counts
            counts[old_core] -= 1
            counts[core] += 1
        victim.tag = tag
        victim.core = core
        # timestamp/rrpv are deliberately NOT reset: every policy that reads
        # them re-initialises them in its on_fill hook.
        victim.managed = True
        tail = self._tail
        last = tail.prev
        if last is not victim:
            prev = victim.prev
            nxt = victim.next
            prev.next = nxt
            nxt.prev = prev
            victim.prev = last
            victim.next = tail
            last.next = victim
            tail.prev = victim
        return victim

    def evict(self, block: CacheBlock) -> None:
        """Remove ``block`` from the set and return its way to the free pool (O(1))."""
        prev = block.prev
        nxt = block.next
        prev.next = nxt
        nxt.prev = prev
        block.prev = None
        block.next = None
        del self._by_tag[block.tag]
        self._count -= 1
        self._core_counts[block.core] -= 1
        block.invalidate()
        self._free.append(block)

    # -- recency manipulation ---------------------------------------------

    def promote(self, block: CacheBlock) -> None:
        """Move a resident block to the MRU position (O(1))."""
        head = self._head
        first = head.next
        if first is block:
            return
        prev = block.prev
        nxt = block.next
        prev.next = nxt
        nxt.prev = prev
        block.prev = head
        block.next = first
        head.next = block
        first.prev = block

    def hit_promote(self, block: CacheBlock, core: int = -1) -> None:
        """:meth:`promote`, shaped like the policies' ``on_hit`` hook.

        The ignored ``core`` argument lets recency policies expose this set
        operation *directly* as their ``on_hit`` (via ``staticmethod``),
        removing a delegation frame from every cache hit.
        """
        head = self._head
        first = head.next
        if first is block:
            return
        prev = block.prev
        nxt = block.next
        prev.next = nxt
        nxt.prev = prev
        block.prev = head
        block.next = first
        head.next = block
        first.prev = block

    def promote_one(self, block: CacheBlock) -> None:
        """Move a resident block one recency position toward MRU (O(1))."""
        prev = block.prev
        if prev is self._head:
            return
        before = prev.prev
        nxt = block.next
        before.next = block
        block.prev = before
        block.next = prev
        prev.prev = block
        prev.next = nxt
        nxt.prev = prev

    def lru_block(self) -> CacheBlock:
        """The block at the LRU position (O(1)).

        Raises:
            RuntimeError: if the set is empty.
        """
        block = self._tail.prev
        if block is self._head:
            raise RuntimeError(f"set {self.index}: LRU of empty set")
        return block

    # -- internals ---------------------------------------------------------

    def _node_at(self, position: int) -> CacheBlock:
        """Node at ``position`` (clamped to the tail sentinel), nearer-end walk."""
        count = self._count
        if position >= count:
            return self._tail
        if position <= count - 1 - position:
            node = self._head.next
            for _ in range(position):
                node = node.next
        else:
            node = self._tail.prev
            for _ in range(count - 1 - position):
                node = node.prev
        return node

    @staticmethod
    def _link_before(block: CacheBlock, anchor: CacheBlock) -> None:
        prev = anchor.prev
        prev.next = block
        block.prev = prev
        block.next = anchor
        anchor.prev = block

    # -- integrity (tests and assertions) ----------------------------------

    def check_integrity(self) -> None:
        """Verify the linked list, tag index and counters agree.

        Raises:
            AssertionError: on any inconsistency.
        """
        forward = list(self)
        backward = list(self.iter_lru_to_mru())
        assert forward == backward[::-1], f"set {self.index}: link order mismatch"
        assert len(forward) == self._count, f"set {self.index}: count mismatch"
        assert len(forward) + len(self._free) == self.assoc, (
            f"set {self.index}: ways leaked ({len(forward)} resident, "
            f"{len(self._free)} free, assoc {self.assoc})"
        )
        assert len(self._by_tag) == self._count, f"set {self.index}: tag index size"
        counts: Dict[int, int] = {}
        for block in forward:
            assert block.valid, f"set {self.index}: invalid block in order"
            assert self._by_tag.get(block.tag) is block, (
                f"set {self.index}: tag index disagrees for {block.tag:#x}"
            )
            counts[block.core] = counts.get(block.core, 0) + 1
        for core, count in self._core_counts.items():
            assert counts.get(core, 0) == count, (
                f"set {self.index}: core {core} count {count} != scan {counts.get(core, 0)}"
            )
        for block in self._free:
            assert not block.valid, f"set {self.index}: valid block in free pool"
