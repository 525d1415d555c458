//! Per-thread memo table for kernel operations over interned subtrees.
//!
//! Hash-consing makes the kernel's traversals *memoizable*: `shift`,
//! `subst`, hereditary substitution, and `nf` are pure functions of their
//! operands' [`NodeId`]s, so a result computed once can be replayed with a
//! single probe — the classic "apply cache" play from BDD packages, applied
//! to λ-terms. Two effects follow:
//!
//! * **Across calls**: rewrite engines and benchmarks instantiate the same
//!   (subtree, substituend) pairs over and over; every repeat after the
//!   first is O(1) instead of O(tree).
//! * **Within a call**: a substituend shifted at several variable
//!   occurrences under the same binder depth is shifted once; every later
//!   occurrence replays the first.
//!
//! The table is a fixed-size, direct-mapped, per-thread array (overwrite on
//! conflict, so recency wins and the footprint is bounded). The kernel's
//! one traversal (`crate::subst`) borrows it **once** per call via
//! [`with_table`] and probes it only at the top level of the call (see the
//! `subst` module docs), so a probe is a hash and a slot compare — no TLS
//! access, no `RefCell` bookkeeping. Entries hold strong
//! [`TermRef`]s, pinning at most [`SLOTS`] classes per thread against
//! [`crate::store::trim`] — same bounded-pin contract as the interner's
//! front cache. The table records the owning store's token: switching
//! stores (`StoreHandle::enter`) resets it wholesale, so a ref interned in
//! one store is never replayed into another (which would break
//! `id ⇔ α-class` inside the second store).
//!
//! Soundness: `NodeId`s are process-wide and never reused, an entry's key
//! pins exact operand identities, and every cached operation is
//! deterministic in those identities — a hit is always the same term the
//! recomputation would rebuild (`tests/kernel_reference_props.rs` locks
//! this down against an always-intern reference kernel).
//!
//! [`NodeId`]: crate::store::NodeId

use crate::term::TermRef;
use std::cell::RefCell;

/// `shift_above` (upward). `s` = distance, `k` = cutoff.
pub(crate) const OP_SHIFT_UP: u8 = 0;
/// `unshift_above` (downward). `s` = distance, `k` = cutoff.
pub(crate) const OP_SHIFT_DOWN: u8 = 1;
/// `subst`. `s` = substituend id, `k` = `(j << 32) | depth`.
pub(crate) const OP_SUBST: u8 = 2;
/// `instantiate`. `s` = argument id, `k` = depth.
pub(crate) const OP_INST: u8 = 3;
/// Hereditary substitution. `s` = substituend id, `k` = the variable.
pub(crate) const OP_HSUB: u8 = 4;
/// β-normal form. `s` and `k` unused (0).
pub(crate) const OP_NF: u8 = 5;

/// One memo key: operation tag plus the operand identities the result is a
/// pure function of.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    /// Operation tag (`OP_*`).
    pub op: u8,
    /// Subject subtree's raw [`crate::store::NodeId`].
    pub t: u64,
    /// Second operand (substituend/argument id, or shift distance).
    pub s: u64,
    /// Scalar parameters (cutoff / variable / packed `(j, depth)`).
    pub k: u64,
}

/// Entries per thread (direct-mapped). 4096 × ~40 B ≈ 160 KiB.
const SLOTS: usize = 1 << 12;

/// The thread's operation memo, lent out whole by [`with_table`].
pub(crate) struct Table {
    /// Store token the cached refs belong to (`0` = empty table).
    token: u64,
    slots: Vec<Option<(Key, TermRef)>>,
    /// `false` only for the inert fallback table handed out when the
    /// thread's table is unavailable: probes miss, inserts drop.
    enabled: bool,
}

thread_local! {
    static TAB: RefCell<Table> = const {
        RefCell::new(Table {
            token: 0,
            slots: Vec::new(),
            enabled: true,
        })
    };
}

/// splitmix64-style finalizer over the key fields.
fn index(key: &Key) -> usize {
    let mut x = key
        .t
        .wrapping_add(key.s.rotate_left(17))
        .wrapping_add(key.k.rotate_left(39))
        ^ ((key.op as u64) << 56);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as usize) & (SLOTS - 1)
}

impl Table {
    /// Looks up a cached result for `key`.
    pub(crate) fn probe(&self, key: &Key) -> Option<TermRef> {
        if self.slots.is_empty() {
            return None;
        }
        match &self.slots[index(key)] {
            Some((k, out)) if k == key => Some(out.clone()),
            _ => None,
        }
    }

    /// Records `out` as the result of `key` (direct-mapped: overwrites
    /// whatever occupied the slot).
    pub(crate) fn insert(&mut self, key: Key, out: &TermRef) {
        if !self.enabled {
            return;
        }
        if self.slots.is_empty() {
            self.slots.resize(SLOTS, None);
        }
        let i = index(&key);
        self.slots[i] = Some((key, out.clone()));
    }
}

/// Lends the thread's memo table for store `token` to `f`, resetting it
/// first if it holds another store's refs. If the table is already lent
/// out (kernel entries never nest, so this is a defensive impossibility),
/// `f` gets an inert table instead — correct, just unmemoized.
pub(crate) fn with_table<R>(token: u64, f: impl FnOnce(&mut Table) -> R) -> R {
    TAB.with(|t| match t.try_borrow_mut() {
        Ok(mut tab) => {
            if tab.token != token {
                tab.token = token;
                tab.slots.clear();
            }
            f(&mut tab)
        }
        Err(_) => f(&mut Table {
            token,
            slots: Vec::new(),
            enabled: false,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn probe_miss_then_hit_then_token_reset() {
        let token = u64::MAX; // private token no real store uses
        let a = TermRef::new(Term::cnst("memo-a"));
        let key = Key {
            op: OP_NF,
            t: a.id().get(),
            s: 0,
            k: 0,
        };
        with_table(token, |tab| {
            assert!(tab.probe(&key).is_none());
            tab.insert(key, &a);
            assert_eq!(tab.probe(&key).unwrap().id(), a.id());
        });
        // Still there on re-entry with the same token...
        with_table(token, |tab| {
            assert_eq!(tab.probe(&key).unwrap().id(), a.id());
        });
        // ...but a different token invalidates wholesale.
        with_table(token - 1, |tab| assert!(tab.probe(&key).is_none()));
        with_table(token, |tab| assert!(tab.probe(&key).is_none()));
    }
}
