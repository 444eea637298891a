//! Hierarchical union summaries over one epoch's task signatures.
//!
//! A [`SummaryTree`] collects signatures in arrival order and answers
//! "which is the newest member at or after `lo` that conflicts with `q`?"
//! without testing every member. Above the members it keeps
//! [`FANOUT`]-ary levels of [`AccessSignature::merge`] unions up to one
//! root. A query descends newest child first and enters a node only if the
//! node's union conflicts with `q`.
//!
//! The answer is exactly the one a newest-first member scan gives. `merge`
//! is a conservative union: a signature that conflicts with any member also
//! conflicts with every union containing it (and the conflict test is
//! symmetric for both signature schemes). A node whose union does not
//! conflict with `q` therefore holds no conflicting member, and skipping it
//! cannot skip the scan's answer. Children are visited newest first, so the
//! first conflicting member reached is the newest one.
//!
//! The same argument lets the checker skip whole epoch buckets with one
//! aggregate test (see `check.rs`); the tree applies it at every level.

use crossinvoc_runtime::signature::AccessSignature;

/// Log2 of the children per interior node. Fanouts from 2 to 16 profiled
/// the registry's Figure-scale models equally fast; four keeps a
/// false-positive descent (a union that overlaps `q` although no member
/// does, common for range signatures) to four tests per level.
const FANOUT_BITS: u32 = 2;
/// Children per interior node.
const FANOUT: usize = 1 << FANOUT_BITS;

/// Append-only signatures plus their union levels.
///
/// The levels are built by the first query that needs them, so a tree
/// only ever asked about a few members (an epoch of a handful of tasks, or
/// a query whose `lo` leaves few) costs no more than a member scan.
/// Buffers are kept across [`SummaryTree::clear`], so a tree recycled for a
/// later epoch allocates nothing once it has seen an epoch as large.
#[derive(Debug)]
pub(crate) struct SummaryTree<S> {
    /// Members in arrival order.
    members: Vec<S>,
    /// `levels[0]` unions up to [`FANOUT`] consecutive members each;
    /// `levels[k + 1]` unions up to [`FANOUT`] nodes of `levels[k]`.
    /// Entries past the root's level are stale buffers kept for reuse.
    levels: Vec<Vec<S>>,
    /// Height of the root (0: a single member is its own root), or `None`
    /// while the levels do not cover every member.
    depth: Option<usize>,
}

impl<S> Default for SummaryTree<S> {
    fn default() -> Self {
        Self {
            members: Vec::new(),
            levels: Vec::new(),
            depth: None,
        }
    }
}

impl<S: AccessSignature> SummaryTree<S> {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Appends a member.
    pub(crate) fn push(&mut self, sig: S) {
        self.members.push(sig);
        self.depth = None;
    }

    /// Drops every member, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
        self.depth = None;
    }

    /// The newest member at index `lo` or later that conflicts with `q`, or
    /// `None`. Adds every signature test made to `tests`.
    pub(crate) fn newest_conflict(&mut self, q: &S, lo: usize, tests: &mut u64) -> Option<usize> {
        let len = self.members.len();
        if lo >= len {
            return None;
        }
        if len - lo <= FANOUT {
            // No more members than one node has children: a descent could
            // only add tests.
            return (lo..len).rev().find(|&i| {
                *tests += 1;
                q.conflicts_with(&self.members[i])
            });
        }
        let depth = match self.depth {
            Some(depth) => depth,
            None => self.summarize(),
        };
        // Node `j` of height `h` (0 is the members, `h > 0` is
        // `levels[h - 1]`) covers members `[j << h*B, (j + 1) << h*B)` with
        // `B = FANOUT_BITS`; it holds members at or after `lo` iff
        // `j >= lo >> h*B`. The walk starts at the root.
        let (mut h, mut j) = (depth, 0);
        loop {
            *tests += 1;
            if q.conflicts_with(self.node(h, j)) {
                if h == 0 {
                    return Some(j);
                }
                // Enter the node at its newest child.
                h -= 1;
                j = ((j + 1) << FANOUT_BITS).min(self.width(h)) - 1;
                continue;
            }
            // Step to the next older sibling still at or after `lo`; when
            // there is none, the parent is exhausted: step from it instead.
            loop {
                if h == depth {
                    return None;
                }
                if j % FANOUT != 0 && j > lo >> (h as u32 * FANOUT_BITS) {
                    j -= 1;
                    break;
                }
                h += 1;
                j >>= FANOUT_BITS;
            }
        }
    }

    /// Builds the union levels over every member; returns the root's
    /// height.
    fn summarize(&mut self) -> usize {
        let mut depth = 0;
        let mut width = self.members.len();
        while width > 1 {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let (below, above) = self.levels.split_at_mut(depth);
            let src = below.last().unwrap_or(&self.members);
            let dst = &mut above[0];
            dst.clear();
            for chunk in src.chunks(FANOUT) {
                let mut node = chunk[0].clone();
                for sig in &chunk[1..] {
                    node.merge(sig);
                }
                dst.push(node);
            }
            width = dst.len();
            depth += 1;
        }
        self.depth = Some(depth);
        depth
    }

    /// Node `j` of height `h`.
    fn node(&self, h: usize, j: usize) -> &S {
        match h {
            0 => &self.members[j],
            _ => &self.levels[h - 1][j],
        }
    }

    /// Number of nodes of height `h`.
    fn width(&self, h: usize) -> usize {
        match h {
            0 => self.members.len(),
            _ => self.levels[h - 1].len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};

    fn write(addr: usize) -> RangeSignature {
        let mut s = RangeSignature::empty();
        s.record(addr, AccessKind::Write);
        s
    }

    fn tree(addrs: &[usize]) -> SummaryTree<RangeSignature> {
        let mut t = SummaryTree::default();
        for &a in addrs {
            t.push(write(a));
        }
        t
    }

    #[test]
    fn finds_the_newest_conflicting_member_at_or_after_lo() {
        // Addresses repeat with period 10, so cell 3 is written by members
        // 3, 13, 23, ...
        let mut t = tree(&(0..100).map(|i| i % 10).collect::<Vec<_>>());
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(3), 0, &mut tests), Some(93));
        assert_eq!(t.newest_conflict(&write(3), 94, &mut tests), None);
        assert_eq!(t.newest_conflict(&write(3), 93, &mut tests), Some(93));
        assert_eq!(t.newest_conflict(&write(10), 0, &mut tests), None);
    }

    #[test]
    fn agrees_with_a_member_scan_for_every_bound() {
        let addrs: Vec<usize> = (0..77).map(|i| (i * 37) % 61).collect();
        let mut t = tree(&addrs);
        for q in 0..64 {
            for lo in 0..=addrs.len() {
                let scan = (lo..addrs.len()).rev().find(|&i| addrs[i] == q);
                let mut tests = 0;
                assert_eq!(t.newest_conflict(&write(q), lo, &mut tests), scan);
            }
        }
    }

    #[test]
    fn disjoint_query_costs_one_test() {
        let mut t = tree(&(0..1000).collect::<Vec<_>>());
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(5000), 0, &mut tests), None);
        assert_eq!(tests, 1, "the root union alone rules the tree out");
    }

    #[test]
    fn a_few_members_past_lo_are_tested_directly() {
        let mut t = tree(&(0..1000).collect::<Vec<_>>());
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(5), 997, &mut tests), None);
        assert_eq!(tests, 3);
        assert_eq!(t.depth, None, "no levels built for a direct test");
    }

    #[test]
    fn members_pushed_after_a_query_are_found() {
        let mut t = tree(&(0..50).collect::<Vec<_>>());
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(500), 0, &mut tests), None);
        t.push(write(500));
        assert_eq!(t.newest_conflict(&write(500), 0, &mut tests), Some(50));
    }

    #[test]
    fn cleared_tree_is_reused_for_a_smaller_epoch() {
        let mut t = tree(&(0..200).collect::<Vec<_>>());
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(150), 0, &mut tests), Some(150));
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.newest_conflict(&write(7), 0, &mut tests), None);
        for a in 0..9 {
            t.push(write(a + 7));
        }
        assert_eq!(t.newest_conflict(&write(7), 0, &mut tests), Some(0));
        assert_eq!(t.newest_conflict(&write(150), 0, &mut tests), None);
    }

    #[test]
    fn single_member_costs_one_test() {
        let mut t = tree(&[4]);
        let mut tests = 0;
        assert_eq!(t.newest_conflict(&write(4), 0, &mut tests), Some(0));
        assert_eq!(tests, 1);
    }
}
