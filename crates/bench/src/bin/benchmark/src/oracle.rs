//! Benchmark-local oracles: a plain list sweep for joins and brute-force
//! filters for selections. Deliberately independent of `usj_sweep` (its
//! reference kernels are slated to leave the production surface), sharing
//! only the geometry predicates with the system under test.

use usj_geom::{Item, Point, Rect};

use crate::stats::PairDigest;

/// x-buckets of the oracle sweep: keeps the per-arrival scan short on both
/// the TIGER-like and the tall family without any cleverness.
const BUCKETS: usize = 1024;

/// Pair digest of `left ⋈ right` under closed-rectangle intersection.
///
/// A sweep over the merged y-order: each arrival scans the *other* side's
/// active lists in the x-buckets it overlaps, dropping entries the sweep
/// line has passed as it goes, then joins its own side's lists. A pair is
/// found when its later-starting rectangle arrives, and reported only in
/// the bucket holding the larger lower x — once.
pub fn join_digest(left: &[Item], right: &[Item]) -> PairDigest {
    let mut digest = PairDigest::default();
    let (mut l, mut r) = (left.to_vec(), right.to_vec());
    l.sort_by(Item::cmp_by_lower_y);
    r.sort_by(Item::cmp_by_lower_y);
    let bbox = l
        .iter()
        .chain(&r)
        .fold(Rect::empty(), |b, it| b.union(&it.rect));
    if bbox.is_empty() {
        return digest;
    }
    let scale = BUCKETS as f32 / bbox.width().max(f32::MIN_POSITIVE);
    let bucket = |x: f32| (((x - bbox.lo.x) * scale) as usize).min(BUCKETS - 1);
    let mut active: [Vec<Vec<Item>>; 2] = [vec![Vec::new(); BUCKETS], vec![Vec::new(); BUCKETS]];

    let (mut i, mut j) = (0, 0);
    while i < l.len() || j < r.len() {
        let take_left = j >= r.len() || (i < l.len() && l[i].cmp_by_lower_y(&r[j]).is_le());
        let (side, it) = if take_left {
            i += 1;
            (0, l[i - 1])
        } else {
            j += 1;
            (1, r[j - 1])
        };
        let (b_lo, b_hi) = (bucket(it.rect.lo.x), bucket(it.rect.hi.x));
        // `b` indexes both sides' lists, one of them mutably at a time.
        #[allow(clippy::needless_range_loop)]
        for b in b_lo..=b_hi {
            let others = &mut active[1 - side][b];
            let mut k = 0;
            while k < others.len() {
                let other = others[k];
                if other.rect.hi.y < it.rect.lo.y {
                    others.swap_remove(k);
                    continue;
                }
                if other.rect.intersects(&it.rect) && bucket(other.rect.lo.x.max(it.rect.lo.x)) == b
                {
                    if side == 0 {
                        digest.add(it.id, other.id);
                    } else {
                        digest.add(other.id, it.id);
                    }
                }
                k += 1;
            }
            active[side][b].push(it);
        }
    }
    digest
}

/// Ids of the items a window selection must return, ascending.
pub fn window_ids(items: &[Item], window: &Rect) -> Vec<u32> {
    let mut ids: Vec<u32> = items
        .iter()
        .filter(|it| it.rect.intersects(window))
        .map(|it| it.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Ids of the items a point selection must return, ascending.
pub fn point_ids(items: &[Item], point: Point) -> Vec<u32> {
    let mut ids: Vec<u32> = items
        .iter()
        .filter(|it| it.rect.contains_point(point))
        .map(|it| it.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_oracle_equals_the_nested_loop() {
        let (l, r) = crate::gen::tall_family(3, 600, 300, (20.0, 200.0));
        // Widen a few so rectangles span several buckets and touch exactly.
        let mut l = l;
        for (k, it) in l.iter_mut().enumerate().take(40) {
            it.rect.hi.x = it.rect.lo.x + 5.0 * (1 + k % 7) as f32;
        }
        let mut want = PairDigest::default();
        for a in &l {
            for b in &r {
                if a.rect.intersects(&b.rect) {
                    want.add(a.id, b.id);
                }
            }
        }
        assert!(want.count > 0);
        assert_eq!(join_digest(&l, &r), want);
        assert_eq!(join_digest(&[], &r), PairDigest::default());
    }
}
