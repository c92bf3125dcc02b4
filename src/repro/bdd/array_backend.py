"""The vectorized BDD backend: packed numpy node arrays behind the manager API.

:class:`ArrayBackend` subclasses the reference
:class:`~repro.bdd.bdd.BDDManager` and keeps its Python node lists and
unique-table dict *authoritative* — every inherited operation stays correct
verbatim.  What changes is the hot paths:

* the node table is mirrored into packed numpy columns (``var``/``lo``/``hi``
  as int32 arrays) synced lazily by a watermark, plus an open-addressed
  unique table over the same columns with vectorized batch probe/insert;
* ``apply`` is hybrid: a budgeted scalar descent (identical to the
  reference, so small operands never pay numpy call overhead) that falls
  back to a level-synchronized breadth-first vectorized expansion with an
  array-backed computed cache when the operand graphs are large;
* ``restrict`` gets the same treatment (unary version of the same
  machinery);
* ``satisfy_matrix`` is a vectorized level-ordered row expansion, and
  ``cofactor_matrix`` (the compiled reaction sweep's per-state
  enumeration) is the hybrid ``restrict`` followed by that expansion — a
  handful of numpy calls per variable instead of a Python frame per
  branch.

Nothing observable changes: assignments and their order, counts, supports
and ``dump`` bytes are identical to the reference backend (the canonical
postorder dump is inherited, and node *indices* — the one thing the
vectorized paths do permute — are never part of any contract).  The
backend-differential suite pins all of this.

The scalar/vector interplay relies on two watermarks:

* ``_unique_synced_to`` — the dict unique table is complete for node
  indices below it; vectorized interning appends nodes without touching
  the dict, and the next scalar ``_make_node`` resyncs the tail in one
  pass before relying on it;
* ``_msize`` — the numpy mirrors (and the open-addressed table) are
  complete below it; vectorized entry points resync the tail first.

Structural rebuilds (``collect_garbage``, ``reorder``, ``load``) reset the
mirrors and caches outright — the base class rebuilds lists and dict, and
the arrays are rebuilt on the next vectorized call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is present in CI
    raise ImportError(
        "the 'array' BDD backend requires numpy; use backend='reference' "
        "on interpreters without it"
    ) from exc

from repro.bdd.bdd import BDD, BDDManager


class _BudgetExhausted(Exception):
    """Raised by the budgeted scalar paths to trigger the vectorized fallback."""


#: operation codes for the array-backed computed cache
_OPS = {"and": 0, "or": 1, "xor": 2, "implies": 3, "iff": 4}

_U64 = np.uint64

#: packed-key field widths: ``level << 48 | low << 24 | high``.  24 bits per
#: child index caps the table at ~16.7M nodes and 64K variable levels —
#: orders of magnitude above any workload here, and guarded loudly below.
_NODE_LIMIT = 1 << 24
_LEVEL_LIMIT = 1 << 16


def _mix64(x):
    """Vectorized 64-bit finalizer (splitmix64) over uint64 arrays."""
    x = x.astype(_U64) * _U64(0x9E3779B97F4A7C15)
    x ^= x >> _U64(31)
    x *= _U64(0xD6E8FEB86659FD93)
    x ^= x >> _U64(29)
    return x


class ArrayBackend(BDDManager):
    """Packed-array BDD kernel; same answers as the reference, vectorized."""

    backend_name = "array"

    def __init__(
        self,
        variables: Iterable[str] = (),
        computed_table_limit: int = 1 << 20,
        scalar_budget: int = 1500,
        computed_cache_bits: int = 17,
    ):
        super().__init__(variables, computed_table_limit)
        #: scalar expansions allowed before an apply/restrict goes vectorized
        self.scalar_budget = scalar_budget
        self._budget_left = 0
        self._unique_synced_to = len(self._levels)
        # packed mirrors of the node columns (int32: var/lo/hi), lazily synced
        self._msize = 0
        self._mlv = np.zeros(0, dtype=np.int32)
        self._mlo = np.zeros(0, dtype=np.int32)
        self._mhi = np.zeros(0, dtype=np.int32)
        # open-addressed unique table over the mirrored nodes
        self._ut_init(1 << 16)
        # direct-mapped computed cache keyed (op, left, right)
        self._cc_mask = (1 << computed_cache_bits) - 1
        self._cc_init()
        # instrumentation: how often each path ran
        self.scalar_applies = 0
        self.vector_applies = 0
        self.scalar_restricts = 0
        self.vector_restricts = 0
        self.vector_enumerations = 0

    # -- unique-table dict watermark ------------------------------------------
    def _sync_unique_dict(self) -> None:
        levels, lows, highs = self._levels, self._lows, self._highs
        unique = self._unique
        for index in range(self._unique_synced_to, len(levels)):
            unique[(levels[index], lows[index], highs[index])] = index
        self._unique_synced_to = len(levels)

    def _make_node(self, level: int, low: int, high: int) -> int:
        if self._unique_synced_to < len(self._levels):
            self._sync_unique_dict()
        result = super()._make_node(level, low, high)
        self._unique_synced_to = len(self._levels)
        return result

    # -- numpy mirrors ---------------------------------------------------------
    def _mirror_reserve(self, needed: int) -> None:
        capacity = len(self._mlv)
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2, 1024)
        for name in ("_mlv", "_mlo", "_mhi"):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=np.int32)
            grown[: self._msize] = old[: self._msize]
            setattr(self, name, grown)

    def _sync_mirrors(self) -> None:
        total = len(self._levels)
        synced = self._msize
        if synced == total:
            return
        self._mirror_reserve(total)
        self._mlv[synced:total] = self._levels[synced:total]
        self._mlo[synced:total] = self._lows[synced:total]
        self._mhi[synced:total] = self._highs[synced:total]
        self._msize = total
        start = max(synced, 2)
        if total > start:
            if total >= _NODE_LIMIT or len(self._names) >= _LEVEL_LIMIT:
                raise OverflowError(
                    "array backend supports up to 2^24 nodes and 2^16 levels"
                )
            keys = (
                (self._mlv[start:total].astype(_U64) << _U64(48))
                | (self._mlo[start:total].astype(_U64) << _U64(24))
                | self._mhi[start:total].astype(_U64)
            )
            self._ut_insert_packed(keys, np.arange(start, total, dtype=np.int64))

    def _reset_derived(self) -> None:
        """After a structural rebuild: mirrors, hash table and cache restart."""
        self._unique_synced_to = len(self._levels)
        self._msize = 0
        self._ut_init(max(1 << 16, 1 << (2 * len(self._levels)).bit_length()))
        self._cc_init()

    # -- open-addressed unique table -------------------------------------------
    # Keys are exact packed triples (``level << 48 | low << 24 | high``), one
    # uint64 gather + compare per probe round instead of three.  The packing
    # is lossless within the guarded limits, so this is a plain hash table,
    # not a lossy fingerprint.
    def _ut_init(self, size: int) -> None:
        self._ut_mask = size - 1
        self._ut_used = 0
        self._ut_key = np.zeros(size, dtype=np.uint64)
        self._ut_val = np.full(size, -1, dtype=np.int64)

    @staticmethod
    def _pack_triples(level: int, los, his):
        if len(los) and (los.max() >= _NODE_LIMIT or his.max() >= _NODE_LIMIT):
            raise OverflowError(
                "array backend unique table supports up to 2^24 nodes"
            )
        return (
            (_U64(level) << _U64(48))
            | (los.astype(_U64) << _U64(24))
            | his.astype(_U64)
        )

    def _ut_grow(self, needed: int) -> None:
        size = (self._ut_mask + 1) * 2
        while (self._ut_used + needed) * 3 > size * 2:
            size *= 2
        old_key, old_val = self._ut_key, self._ut_val
        self._ut_init(size)
        live = old_val != -1
        if live.any():
            self._ut_insert_packed(old_key[live], old_val[live])

    def _ut_insert_packed(self, keys, ids) -> None:
        """Batch insert; keys must be mutually distinct and absent."""
        count = len(ids)
        if (self._ut_used + count) * 3 > (self._ut_mask + 1) * 2:
            self._ut_grow(count)
        mask = self._ut_mask
        slots = (_mix64(keys) & _U64(mask)).astype(np.int64)
        pending = np.arange(count)
        while pending.size:
            probe = slots[pending]
            occupied = self._ut_val[probe] != -1
            free = ~occupied
            advance = pending[occupied]
            if free.any():
                candidates = pending[free]
                candidate_slots = probe[free]
                # winner-per-slot: last scatter wins, gather-back identifies it
                self._ut_val[candidate_slots] = ids[candidates]
                won = self._ut_val[candidate_slots] == ids[candidates]
                winners = candidates[won]
                self._ut_key[candidate_slots[won]] = keys[winners]
                self._ut_used += len(winners)
                advance = np.concatenate([advance, candidates[~won]])
            slots[advance] = (slots[advance] + 1) & mask
            pending = advance

    def _ut_find_packed(self, keys):
        """Batch probe; -1 where the triple is not interned."""
        count = len(keys)
        out = np.full(count, -1, dtype=np.int64)
        if count == 0 or self._ut_used == 0:
            return out
        mask = self._ut_mask
        slots = (_mix64(keys) & _U64(mask)).astype(np.int64)
        pending = np.arange(count)
        while pending.size:
            probe = slots[pending]
            values = self._ut_val[probe]
            empty = values == -1
            match = ~empty & (self._ut_key[probe] == keys[pending])
            if match.any():
                out[pending[match]] = values[match]
            keep = ~(empty | match)
            pending = pending[keep]
            slots[pending] = (slots[pending] + 1) & mask
        return out

    # -- vectorized node interning ----------------------------------------------
    def _make_nodes_batch(self, level: int, lows, highs):
        """Vectorized ``_make_node`` for one level: returns result indices."""
        result = np.empty(len(lows), dtype=np.int64)
        equal = lows == highs
        result[equal] = lows[equal]
        distinct = ~equal
        if not distinct.any():
            return result
        lo = lows[distinct]
        hi = highs[distinct]
        keys = self._pack_triples(level, lo, hi)
        found = self._ut_find_packed(keys)
        missing = found == -1
        if missing.any():
            uniq_keys, first, inverse = np.unique(
                keys[missing], return_index=True, return_inverse=True
            )
            miss_lo = lo[missing]
            miss_hi = hi[missing]
            uniq_lo = miss_lo[first]
            uniq_hi = miss_hi[first]
            base = len(self._levels)
            fresh = len(uniq_keys)
            ids = np.arange(base, base + fresh, dtype=np.int64)
            # authoritative Python lists first (the dict stays stale by
            # watermark; scalar paths resync before trusting it) ...
            self._levels.extend([level] * fresh)
            self._lows.extend(uniq_lo.tolist())
            self._highs.extend(uniq_hi.tolist())
            # ... then the mirrors and the hash table, kept exactly in step
            self._mirror_reserve(base + fresh)
            self._mlv[base : base + fresh] = level
            self._mlo[base : base + fresh] = uniq_lo
            self._mhi[base : base + fresh] = uniq_hi
            self._msize = base + fresh
            self._ut_insert_packed(uniq_keys, ids)
            found[np.nonzero(missing)[0]] = ids[inverse]
        result[distinct] = found
        return result

    # -- array-backed computed cache ---------------------------------------------
    # Direct-mapped and lossy (a colliding insert overwrites), keyed by the
    # exact packed request ``op << 58 | left << 29 | right`` — a miss only
    # costs recomputation, but a false hit would be wrong, hence the exact
    # key compare.  Key 0 is never a real request (left would be the FALSE
    # terminal, which the shortcut layer already resolved), so zeroed slots
    # read as empty.
    def _cc_init(self) -> None:
        size = self._cc_mask + 1
        self._cc_key = np.zeros(size, dtype=np.uint64)
        self._cc_res = np.zeros(size, dtype=np.int64)

    @staticmethod
    def _cc_pack(opcode: int, left, right):
        return (
            (_U64(opcode + 1) << _U64(58))
            | (left.astype(_U64) << _U64(29))
            | right.astype(_U64)
        )

    def _cc_probe(self, opcode: int, left, right):
        keys = self._cc_pack(opcode, left, right)
        idx = (_mix64(keys) & _U64(self._cc_mask)).astype(np.int64)
        hit = self._cc_key[idx] == keys
        return self._cc_res[idx], hit

    def _cc_insert(self, opcode: int, left, right, result) -> None:
        keys = self._cc_pack(opcode, left, right)
        idx = (_mix64(keys) & _U64(self._cc_mask)).astype(np.int64)
        self._cc_key[idx] = keys
        self._cc_res[idx] = result

    # -- vectorized terminal/identity rules ---------------------------------------
    @staticmethod
    def _shortcut_batch(opcode: int, left, right):
        """The reference fast paths, vectorized; -1 where unresolved."""
        result = np.full(left.shape, -1, dtype=np.int64)
        if opcode == 0:  # and
            result[(left == 0) | (right == 0)] = 0
            mask = (result == -1) & (left == 1)
            result[mask] = right[mask]
            mask = (result == -1) & (right == 1)
            result[mask] = left[mask]
            mask = (result == -1) & (left == right)
            result[mask] = left[mask]
        elif opcode == 1:  # or
            result[(left == 1) | (right == 1)] = 1
            mask = (result == -1) & (left == 0)
            result[mask] = right[mask]
            mask = (result == -1) & (right == 0)
            result[mask] = left[mask]
            mask = (result == -1) & (left == right)
            result[mask] = left[mask]
        elif opcode == 2:  # xor
            mask = left == 0
            result[mask] = right[mask]
            mask = (result == -1) & (right == 0)
            result[mask] = left[mask]
            result[(result == -1) & (left == right)] = 0
        elif opcode == 3:  # implies
            result[(left == 0) | (right == 1)] = 1
            mask = (result == -1) & (left == 1)
            result[mask] = right[mask]
            result[(result == -1) & (left == right)] = 1
        else:  # iff
            mask = left == 1
            result[mask] = right[mask]
            mask = (result == -1) & (right == 1)
            result[mask] = left[mask]
            result[(result == -1) & (left == right)] = 1
        return result

    # -- the hybrid apply ----------------------------------------------------------
    def _apply(self, operation: str, left: int, right: int) -> int:
        self._budget_left = self.scalar_budget
        try:
            result = self._apply_scalar(operation, left, right)
            self.scalar_applies += 1
            return result
        except _BudgetExhausted:
            self.vector_applies += 1
            return self._apply_vectorized(operation, left, right)

    def _apply_scalar(self, operation: str, left: int, right: int) -> int:
        """The reference ``_apply`` with an expansion budget (see ``_apply``)."""
        if left == right:
            if operation in ("and", "or"):
                return left
            if operation == "xor":
                return self.FALSE_INDEX
            if operation in ("iff", "implies"):
                return self.TRUE_INDEX
        if operation == "and":
            if left == self.TRUE_INDEX:
                return right
            if right == self.TRUE_INDEX:
                return left
        elif operation == "or":
            if left == self.FALSE_INDEX:
                return right
            if right == self.FALSE_INDEX:
                return left
        elif operation == "xor":
            if left == self.FALSE_INDEX:
                return right
            if right == self.FALSE_INDEX:
                return left
        elif operation == "implies" and left == self.TRUE_INDEX:
            return right
        elif operation == "iff":
            if left == self.TRUE_INDEX:
                return right
            if right == self.TRUE_INDEX:
                return left
        terminal = self._terminal_op(
            operation, self._as_terminal(left), self._as_terminal(right)
        )
        if terminal is not None:
            return self.TRUE_INDEX if terminal else self.FALSE_INDEX
        if operation in ("and", "or", "xor", "iff") and left > right:
            left, right = right, left
        key = (operation, left, right)
        self.apply_cache_lookups += 1
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached
        self._budget_left -= 1
        if self._budget_left < 0:
            raise _BudgetExhausted()
        left_level = self._levels[left]
        right_level = self._levels[right]
        level = min(left_level, right_level)
        left_low, left_high = (
            (self._lows[left], self._highs[left]) if left_level == level else (left, left)
        )
        right_low, right_high = (
            (self._lows[right], self._highs[right]) if right_level == level else (right, right)
        )
        low = self._apply_scalar(operation, left_low, right_low)
        high = self._apply_scalar(operation, left_high, right_high)
        result = self._make_node(level, low, high)
        if len(self._apply_cache) >= self.computed_table_limit:
            self._apply_cache.clear()
            self.cache_evictions += 1
        self._apply_cache[key] = result
        return result

    def _screen_and_bucket(
        self, opcode, commutative, child_l, child_r, buckets_l, buckets_r, sizes
    ):
        """Resolve child requests via shortcut/cache; bucket the remainder.

        Returns ``(value, level, position)`` arrays aligned with the input:
        resolved requests carry their result in ``value``; unresolved ones
        carry ``-1`` there and the bucket coordinates of where their result
        will appear after that level is reduced.
        """
        value = self._shortcut_batch(opcode, child_l, child_r)
        level = np.full(len(child_l), -1, dtype=np.int32)
        position = np.full(len(child_l), -1, dtype=np.int64)
        open_idx = np.nonzero(value == -1)[0]
        if open_idx.size:
            pair_l = child_l[open_idx]
            pair_r = child_r[open_idx]
            if commutative:
                swap = pair_l > pair_r
                pair_l, pair_r = (
                    np.where(swap, pair_r, pair_l),
                    np.where(swap, pair_l, pair_r),
                )
            cached, hit = self._cc_probe(opcode, pair_l, pair_r)
            # batch probes count element-wise so the hit ratio is comparable
            # across the scalar and vectorized paths
            self.apply_cache_lookups += int(len(pair_l))
            self.apply_cache_hits += int(hit.sum())
            if hit.any():
                value[open_idx[hit]] = cached[hit]
            miss = ~hit
            open_idx = open_idx[miss]
            pair_l = pair_l[miss]
            pair_r = pair_r[miss]
            if open_idx.size:
                request_level = np.minimum(self._mlv[pair_l], self._mlv[pair_r])
                for lvl in np.unique(request_level):
                    lvl = int(lvl)
                    members = request_level == lvl
                    count = int(members.sum())
                    buckets_l[lvl].append(pair_l[members])
                    buckets_r[lvl].append(pair_r[members])
                    level[open_idx[members]] = lvl
                    position[open_idx[members]] = sizes[lvl] + np.arange(count)
                    sizes[lvl] += count
        return value, level, position

    @staticmethod
    def _resolve_children(value, level, position, results):
        resolved = value.copy()
        open_mask = level >= 0
        if open_mask.any():
            for lvl in np.unique(level[open_mask]):
                members = level == lvl
                resolved[members] = results[int(lvl)][position[members]]
        return resolved

    def _apply_vectorized(self, operation: str, left: int, right: int) -> int:
        """Level-synchronized BFS apply over the packed arrays."""
        self._sync_mirrors()
        opcode = _OPS[operation]
        commutative = opcode != 3
        variable_count = len(self._names)
        buckets_l = [[] for _ in range(variable_count)]
        buckets_r = [[] for _ in range(variable_count)]
        sizes = [0] * variable_count
        root_value, root_level, root_position = self._screen_and_bucket(
            opcode,
            commutative,
            np.array([left], dtype=np.int64),
            np.array([right], dtype=np.int64),
            buckets_l,
            buckets_r,
            sizes,
        )
        if root_value[0] != -1:
            return int(root_value[0])
        records = {}
        for lvl in range(variable_count):
            if not buckets_l[lvl]:
                continue
            raw_l = np.concatenate(buckets_l[lvl])
            raw_r = np.concatenate(buckets_r[lvl])
            packed = (raw_l.astype(np.int64) << np.int64(32)) | raw_r
            _uniq, first, inverse = np.unique(
                packed, return_index=True, return_inverse=True
            )
            uniq_l = raw_l[first]
            uniq_r = raw_r[first]
            at_l = self._mlv[uniq_l] == lvl
            at_r = self._mlv[uniq_r] == lvl
            low_l = np.where(at_l, self._mlo[uniq_l], uniq_l)
            high_l = np.where(at_l, self._mhi[uniq_l], uniq_l)
            low_r = np.where(at_r, self._mlo[uniq_r], uniq_r)
            high_r = np.where(at_r, self._mhi[uniq_r], uniq_r)
            low = self._screen_and_bucket(
                opcode, commutative, low_l, low_r, buckets_l, buckets_r, sizes
            )
            high = self._screen_and_bucket(
                opcode, commutative, high_l, high_r, buckets_l, buckets_r, sizes
            )
            records[lvl] = (inverse, uniq_l, uniq_r, low, high)
        results = {}
        for lvl in sorted(records, reverse=True):
            inverse, uniq_l, uniq_r, low, high = records[lvl]
            low_result = self._resolve_children(*low, results)
            high_result = self._resolve_children(*high, results)
            uniq_result = self._make_nodes_batch(lvl, low_result, high_result)
            self._cc_insert(opcode, uniq_l, uniq_r, uniq_result)
            results[lvl] = uniq_result[inverse]
        return int(results[int(root_level[0])][int(root_position[0])])

    # -- the hybrid restrict --------------------------------------------------------
    def restrict(self, node: BDD, assignment: Mapping[str, bool]) -> BDD:
        by_level = {
            self._levels_by_name[name]: value
            for name, value in assignment.items()
            if name in self._levels_by_name
        }
        index = node.index
        if not by_level or index in (self.TRUE_INDEX, self.FALSE_INDEX):
            return BDD(self, index)
        self._budget_left = self.scalar_budget
        try:
            result = self._restrict_scalar(index, by_level, {})
            self.scalar_restricts += 1
        except _BudgetExhausted:
            self.vector_restricts += 1
            result = self._restrict_vectorized(index, by_level)
        return BDD(self, result)

    def _restrict_scalar(
        self, index: int, by_level: Dict[int, bool], cache: Dict[int, int]
    ) -> int:
        if index in (self.TRUE_INDEX, self.FALSE_INDEX):
            return index
        cached = cache.get(index)
        if cached is not None:
            return cached
        self._budget_left -= 1
        if self._budget_left < 0:
            raise _BudgetExhausted()
        level = self._levels[index]
        if level in by_level:
            result = self._restrict_scalar(
                self._highs[index] if by_level[level] else self._lows[index],
                by_level,
                cache,
            )
        else:
            result = self._make_node(
                level,
                self._restrict_scalar(self._lows[index], by_level, cache),
                self._restrict_scalar(self._highs[index], by_level, cache),
            )
        cache[index] = result
        return result

    def _bucket_nodes(self, children, buckets, sizes):
        """Terminal children resolve to themselves; the rest are bucketed."""
        value = np.where(children <= 1, children, np.int64(-1))
        level = np.full(len(children), -1, dtype=np.int32)
        position = np.full(len(children), -1, dtype=np.int64)
        open_idx = np.nonzero(children > 1)[0]
        if open_idx.size:
            nodes = children[open_idx]
            node_levels = self._mlv[nodes]
            for lvl in np.unique(node_levels):
                lvl = int(lvl)
                members = node_levels == lvl
                count = int(members.sum())
                buckets[lvl].append(nodes[members])
                level[open_idx[members]] = lvl
                position[open_idx[members]] = sizes[lvl] + np.arange(count)
                sizes[lvl] += count
        return value, level, position

    def _restrict_vectorized(self, root: int, by_level: Dict[int, bool]) -> int:
        self._sync_mirrors()
        variable_count = len(self._names)
        buckets = [[] for _ in range(variable_count)]
        sizes = [0] * variable_count
        root_level = self._levels[root]
        buckets[root_level].append(np.array([root], dtype=np.int64))
        sizes[root_level] = 1
        records = {}
        for lvl in range(variable_count):
            if not buckets[lvl]:
                continue
            raw = np.concatenate(buckets[lvl])
            uniq, inverse = np.unique(raw, return_inverse=True)
            if lvl in by_level:
                chosen = self._mhi[uniq] if by_level[lvl] else self._mlo[uniq]
                child = self._bucket_nodes(chosen.astype(np.int64), buckets, sizes)
                records[lvl] = (inverse, child, None)
            else:
                low = self._bucket_nodes(
                    self._mlo[uniq].astype(np.int64), buckets, sizes
                )
                high = self._bucket_nodes(
                    self._mhi[uniq].astype(np.int64), buckets, sizes
                )
                records[lvl] = (inverse, low, high)
        results = {}
        for lvl in sorted(records, reverse=True):
            inverse, low, high = records[lvl]
            if high is None:
                uniq_result = self._resolve_children(*low, results)
            else:
                low_result = self._resolve_children(*low, results)
                high_result = self._resolve_children(*high, results)
                uniq_result = self._make_nodes_batch(lvl, low_result, high_result)
            results[lvl] = uniq_result[inverse]
        return int(results[root_level][0])

    # -- vectorized enumeration -------------------------------------------------------
    def satisfy_matrix(self, node: BDD, variables: Sequence[str]) -> List[List[bool]]:
        """Vectorized level-ordered row expansion; reference order, array speed.

        Rows double at don't-care positions and ``FALSE`` branches are
        pruned each step, so — like the reference walk — the cost is
        proportional to rows emitted times variables, just with numpy
        constant factors.  The interleave (low child at even rows, high at
        odd) reproduces the reference depth-first order exactly.
        """
        names = tuple(variables)
        missing = self.support(node) - set(names)
        if missing:
            raise ValueError(
                f"satisfy_all variables must cover the support; missing {sorted(missing)}"
            )
        if node.index == self.FALSE_INDEX:
            return []
        self._sync_mirrors()
        self.vector_enumerations += 1
        ordered = sorted(
            names, key=lambda name: self._levels_by_name.get(name, self.TERMINAL_LEVEL)
        )
        width = len(ordered)
        frontier = np.array([node.index], dtype=np.int64)
        bits = np.zeros((1, width), dtype=np.bool_)
        for column, name in enumerate(ordered):
            level = self._levels_by_name.get(name, self.TERMINAL_LEVEL)
            at_level = self._mlv[frontier] == level
            low = np.where(at_level, self._mlo[frontier], frontier)
            high = np.where(at_level, self._mhi[frontier], frontier)
            doubled = np.empty(2 * len(frontier), dtype=np.int64)
            doubled[0::2] = low
            doubled[1::2] = high
            bits = np.repeat(bits, 2, axis=0)
            bits[1::2, column] = True
            alive = doubled != self.FALSE_INDEX
            frontier = doubled[alive]
            bits = bits[alive]
            if frontier.size == 0:
                return []
        column_of = {name: column for column, name in enumerate(ordered)}
        permutation = [column_of[name] for name in names]
        return bits[:, permutation].tolist()

    def cofactor_matrix(
        self, node: BDD, fixed: Mapping[str, bool], variables: Sequence[str]
    ) -> List[List[bool]]:
        """The hybrid cofactor, then the vectorized row expansion over it."""
        return self.satisfy_matrix(self.restrict(node, fixed), variables)

    # -- maintenance overrides -----------------------------------------------------
    def clear_caches(self) -> None:
        super().clear_caches()
        self._cc_init()

    def collect_garbage(self, keep: Sequence[BDD]) -> List[BDD]:
        result = super().collect_garbage(keep)
        self._reset_derived()
        return result

    def reorder(self, order: Sequence[str], keep: Sequence[BDD]) -> List[BDD]:
        # the base rebuild goes through scalar var/ite, which needs the dict
        # complete before the storage reset repoints everything
        self._sync_unique_dict()
        return super().reorder(order, keep)

    @classmethod
    def load(cls, payload: Mapping[str, object]):
        manager, roots = super().load(payload)
        manager._unique_synced_to = len(manager._levels)
        return manager, roots

    def stats(self) -> Dict[str, int]:
        table = super().stats()
        table.update(
            scalar_applies=self.scalar_applies,
            vector_applies=self.vector_applies,
            scalar_restricts=self.scalar_restricts,
            vector_restricts=self.vector_restricts,
            vector_enumerations=self.vector_enumerations,
            mirrored_nodes=self._msize,
            unique_table_slots=self._ut_mask + 1,
        )
        return table
