//! The verifier's independent model of §5.1.2's recovery trees.

use std::collections::BTreeMap;

/// Disjoint intervals each carrying a byte payload, with newest-wins
/// insertion.
///
/// This is the in-memory "tree of the latest committed changes" recovery
/// builds per data segment (§5.1.2): records are processed newest first and
/// [`IntervalMap::insert_if_uncovered`] keeps only the parts of older
/// records that newer ones did not already cover. The library resolves
/// the same trees in one pass (`rvm::ranges::ValueArena`); this owned,
/// incremental form is the model that pass is checked against.
#[derive(Debug, Clone, Default)]
pub struct IntervalMap {
    /// start → payload; intervals are disjoint (adjacency is allowed).
    entries: BTreeMap<u64, Vec<u8>>,
}

impl IntervalMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `data` at `start`, keeping existing entries where they
    /// overlap (existing entries are newer). Returns the number of bytes
    /// actually inserted.
    pub fn insert_if_uncovered(&mut self, start: u64, data: &[u8]) -> u64 {
        let end = start + data.len() as u64;
        if data.is_empty() {
            return 0;
        }
        // Find the covered sub-ranges overlapping [start, end).
        let mut covered: Vec<(u64, u64)> = Vec::new();
        // An entry starting before `start` may still overlap it.
        if let Some((&s, payload)) = self.entries.range(..start).next_back() {
            let e = s + payload.len() as u64;
            if e > start {
                covered.push((s.max(start), e.min(end)));
            }
        }
        for (&s, payload) in self.entries.range(start..end) {
            let e = s + payload.len() as u64;
            covered.push((s, e.min(end)));
        }

        // Insert the gaps.
        let mut inserted = 0u64;
        let mut cursor = start;
        for (cs, ce) in covered.into_iter().chain(std::iter::once((end, end))) {
            if cursor < cs {
                let slice = &data[(cursor - start) as usize..(cs - start) as usize];
                self.entries.insert(cursor, slice.to_vec());
                inserted += cs - cursor;
            }
            cursor = cursor.max(ce);
        }
        inserted
    }

    /// Iterates `(start, payload)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.entries.iter().map(|(&s, p)| (s, p.as_slice()))
    }

    /// Total bytes held.
    pub fn total_len(&self) -> u64 {
        self.entries.values().map(|p| p.len() as u64).sum()
    }

    /// Returns `true` if the map holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Reads the map's view of `[start, start + buf.len())` into `buf`,
    /// leaving gaps untouched.
    pub fn overlay_onto(&self, start: u64, buf: &mut [u8]) {
        let end = start + buf.len() as u64;
        let first = self
            .entries
            .range(..start)
            .next_back()
            .map(|(&s, _)| s)
            .unwrap_or(start);
        for (&s, payload) in self.entries.range(first..end) {
            let e = s + payload.len() as u64;
            if e <= start {
                continue;
            }
            let copy_start = s.max(start);
            let copy_end = e.min(end);
            let src = &payload[(copy_start - s) as usize..(copy_end - s) as usize];
            let dst = &mut buf[(copy_start - start) as usize..(copy_end - start) as usize];
            dst.copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_map_newest_wins() {
        let mut map = IntervalMap::new();
        // Newest record inserted first.
        assert_eq!(map.insert_if_uncovered(10, &[9, 9, 9, 9]), 4);
        // Older record overlapping it only contributes uncovered bytes.
        assert_eq!(map.insert_if_uncovered(8, &[1, 1, 1, 1, 1, 1, 1, 1]), 4);
        let mut buf = [0u8; 10];
        map.overlay_onto(8, &mut buf);
        assert_eq!(buf, [1, 1, 9, 9, 9, 9, 1, 1, 0, 0]);
    }

    #[test]
    fn interval_map_fully_covered_inserts_nothing() {
        let mut map = IntervalMap::new();
        map.insert_if_uncovered(0, &[5; 16]);
        assert_eq!(map.insert_if_uncovered(4, &[7; 8]), 0);
        assert_eq!(map.len(), 1);
        assert_eq!(map.total_len(), 16);
    }

    #[test]
    fn interval_map_gap_splitting() {
        let mut map = IntervalMap::new();
        map.insert_if_uncovered(10, &[2; 5]);
        map.insert_if_uncovered(20, &[3; 5]);
        // Older data spanning everything fills exactly the three gaps.
        let inserted = map.insert_if_uncovered(5, &[1; 25]);
        assert_eq!(inserted, 15);
        let mut buf = [0u8; 25];
        map.overlay_onto(5, &mut buf);
        let mut expected = [1u8; 25];
        expected[5..10].fill(2);
        expected[15..20].fill(3);
        assert_eq!(buf, expected);
    }

    #[test]
    fn interval_map_preceding_entry_overlap() {
        let mut map = IntervalMap::new();
        map.insert_if_uncovered(0, &[4; 10]);
        // Starts inside the existing entry.
        assert_eq!(map.insert_if_uncovered(5, &[6; 10]), 5);
        let mut buf = [0u8; 15];
        map.overlay_onto(0, &mut buf);
        let mut expected = [4u8; 15];
        expected[10..].fill(6);
        assert_eq!(buf, expected);
    }
}
