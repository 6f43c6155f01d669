//! # rvm-reference — what a recovered image may be
//!
//! A flush commit survives once it returns, a no-flush commit once a later
//! `flush` returns, and the log keeps commits in order, so a crash leaves a
//! prefix of them (§4.2, §5.1.1). [`admits`] states that rule once for every
//! checker, per *stream* — one thread's commits in order (Attiya et al.,
//! *Tracking in Order to Recover*): each stream's cells hold a prefix of its
//! commits that keeps every durable one, and every other byte the base.

use std::collections::BTreeMap;

/// Segment images by name. Bytes past an image's end read as zero.
pub type Images = BTreeMap<String, Vec<u8>>;

/// A byte of a segment: its name and offset.
pub type Cell = (String, u64);

/// One byte range a commit wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    pub segment: String,
    pub offset: u64,
    pub bytes: Vec<u8>,
}

/// One committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// The stream (thread) whose order it is part of.
    pub stream: u32,
    /// Applied in order: a later write wins where two overlap.
    pub writes: Vec<Write>,
    /// A crash must keep it: its flush commit, or a later `flush`, returned.
    pub durable: bool,
}

/// What ran: the base images, and the commits in each stream's order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    pub base: Images,
    pub commits: Vec<Commit>,
}

/// Why an image is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Why {
    /// The stream's cells hold only its first `kept` commits; a later one is durable.
    Lost { stream: u32, kept: usize },
    /// The stream's cells hold no prefix of its commits: `cell` is off the durable one.
    Torn { stream: u32, cell: Cell },
    /// A cell no commit wrote differs from the base.
    Stray { cell: Cell, found: u8, base: u8 },
    /// Two streams write the same cell.
    Shared { cell: Cell, streams: [u32; 2] },
}

/// Writes `bytes` at `offset` of `image`, growing it with zeros.
pub fn apply(image: &mut Vec<u8>, offset: u64, bytes: &[u8]) {
    let at = offset as usize..offset as usize + bytes.len();
    // Zeros by copy, not by `resize`: that is a byte loop in debug builds.
    image.extend_from_slice(&vec![0; at.end.saturating_sub(image.len())]);
    image[at].copy_from_slice(bytes);
}

/// The images `commits` leave when applied to `base` in order.
pub fn replay<'a>(base: &Images, commits: impl IntoIterator<Item = &'a Commit>) -> Images {
    let mut images = base.clone();
    for w in commits.into_iter().flat_map(|c| &c.writes) {
        let image = images.entry(w.segment.clone()).or_default();
        apply(image, w.offset, &w.bytes);
    }
    images
}

/// `images` with the cells `writes` cover zeroed.
fn masked<'a>(mut images: Images, writes: impl IntoIterator<Item = &'a Write>) -> Images {
    for w in writes {
        let image = images.entry(w.segment.clone()).or_default();
        apply(image, w.offset, &vec![0; w.bytes.len()]);
    }
    images
}

fn image<'a>(images: &'a Images, segment: &str) -> &'a [u8] {
    images.get(segment).map_or(&[], Vec::as_slice)
}

fn byte(image: &[u8], at: usize) -> u8 {
    image.get(at).copied().unwrap_or(0)
}

/// The first cell where `a` and `b` differ.
fn first_difference(a: &Images, b: &Images) -> Option<Cell> {
    a.keys().chain(b.keys()).find_map(|name| {
        let (a, b) = (image(a, name), image(b, name));
        let (long, n) = (if a.len() < b.len() { b } else { a }, a.len().min(b.len()));
        let same = a[..n] == b[..n] && long[n..] == vec![0; long.len() - n];
        let mut at = if same { 0..0 } else { 0..long.len() };
        Some((name.clone(), at.find(|&i| byte(a, i) != byte(b, i))? as u64))
    })
}

/// Judges a recovered image against `history` (see the crate docs).
pub fn admits(history: &History, images: &Images) -> Result<(), Why> {
    let History { base, commits } = history;
    let mut streams: BTreeMap<u32, Vec<Commit>> = BTreeMap::new();
    let mut writes: Vec<(u32, &Write)> = Vec::new();
    for c in commits {
        streams.entry(c.stream).or_default().push(c.clone());
        writes.extend(c.writes.iter().map(|w| (c.stream, w)));
    }

    // No two streams write one cell.
    let end = |w: &Write| w.offset + w.bytes.len() as u64;
    for (i, &(s, w)) in writes.iter().enumerate() {
        for &(t, v) in &writes[i + 1..] {
            let at = w.offset.max(v.offset);
            if s != t && w.segment == v.segment && at < end(w).min(end(v)) {
                let (cell, streams) = ((w.segment.clone(), at), [s, t]);
                return Err(Why::Shared { cell, streams });
            }
        }
    }

    // Every other cell holds the base.
    let all = writes.iter().map(|(_, w)| *w);
    let [a, b] = [base, images].map(|m| masked(m.clone(), all.clone()));
    if let Some(cell) = first_difference(&a, &b) {
        let [found, base] = [images, base].map(|m| byte(image(m, &cell.0), cell.1 as usize));
        return Err(Why::Stray { cell, found, base });
    }

    // Each stream's cells, the others' zeroed, hold a prefix keeping its durable commits.
    for (&stream, mine) in &streams {
        let need = mine.iter().rposition(|c| c.durable).map_or(0, |i| i + 1);
        let others = || writes.iter().filter(|(s, _)| *s != stream).map(|(_, w)| *w);
        let found = masked(images.clone(), others());
        let diff = |k: usize| first_difference(&masked(replay(base, &mine[..k]), others()), &found);
        if (need..=mine.len()).any(|k| diff(k).is_none()) {
            continue;
        }
        if let Some(kept) = (0..need).rev().find(|&k| diff(k).is_none()) {
            return Err(Why::Lost { stream, kept });
        }
        let cell = diff(need).expect("no prefix matches");
        return Err(Why::Torn { stream, cell });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A commit of `stream` writing each `(offset, bytes)` to segment "s".
    fn commit(stream: u32, durable: bool, writes: &[(u64, &[u8])]) -> Commit {
        let writes = writes.iter().map(|&(offset, bytes)| Write {
            segment: "s".into(),
            offset,
            bytes: bytes.to_vec(),
        });
        let writes = writes.collect();
        Commit {
            stream,
            writes,
            durable,
        }
    }

    /// Judges `image` as segment "s".
    fn judge(h: &History, image: &[u8]) -> Result<(), Why> {
        admits(h, &Images::from([("s".into(), image.to_vec())]))
    }

    fn stray(segment: &str, offset: u64, found: u8) -> Result<(), Why> {
        let (cell, base) = ((segment.into(), offset), 0);
        Err(Why::Stray { cell, found, base })
    }

    /// One stream: a durable commit writes 1 at 0 and 2, then a lazy one
    /// writes 2 at 0 and 3.
    fn one_stream() -> History {
        let commits = vec![
            commit(0, true, &[(0, &[1]), (2, &[1])]),
            commit(0, false, &[(0, &[2]), (3, &[2])]),
        ];
        let base = Images::from([("s".into(), vec![0; 4])]);
        History { base, commits }
    }

    #[test]
    fn replay_applies_writes_in_order_and_grows_images() {
        let h = one_stream();
        let after = replay(&h.base, &h.commits);
        assert_eq!(after, Images::from([("s".into(), vec![2, 0, 1, 2])]));
        let grown = replay(&Images::new(), [&commit(0, false, &[(2, &[9])])]);
        assert_eq!(grown, Images::from([("s".into(), vec![0, 0, 9])]));
    }

    #[test]
    fn every_prefix_holding_the_durable_commits_is_admitted() {
        assert_eq!(judge(&one_stream(), &[1, 0, 1, 0]), Ok(()));
        assert_eq!(judge(&one_stream(), &[2, 0, 1, 2]), Ok(()));
    }

    #[test]
    fn a_lost_durable_commit_is_refused() {
        let why = judge(&one_stream(), &[0, 0, 0, 0]);
        assert_eq!(why, Err(Why::Lost { stream: 0, kept: 0 }));
    }

    #[test]
    fn a_torn_commit_inside_a_stream_is_refused() {
        // The lazy commit's write at 0 without its write at 3.
        let why = judge(&one_stream(), &[2, 0, 1, 0]);
        let cell = ("s".into(), 0);
        assert_eq!(why, Err(Why::Torn { stream: 0, cell }));
    }

    #[test]
    fn a_stray_byte_outside_every_stream_is_refused() {
        assert_eq!(judge(&one_stream(), &[1, 7, 1, 0]), stray("s", 1, 7));
        // A segment no commit wrote counts too.
        let image = Images::from([("s".into(), vec![1, 0, 1, 0]), ("u".into(), vec![0, 3])]);
        assert_eq!(admits(&one_stream(), &image), stray("u", 1, 3));
    }

    #[test]
    fn two_streams_sharing_a_cell_are_refused() {
        let mut h = one_stream();
        h.commits.push(commit(1, false, &[(1, &[5, 5])]));
        let (cell, streams) = (("s".into(), 2), [0, 1]);
        assert_eq!(judge(&h, &[1, 0, 1, 0]), Err(Why::Shared { cell, streams }));
    }

    #[test]
    fn streams_on_disjoint_cells_are_judged_apart() {
        let mut h = one_stream();
        h.commits.push(commit(1, true, &[(1, &[5])]));
        h.commits.push(commit(1, false, &[(1, &[6])]));
        assert_eq!(judge(&h, &[2, 6, 1, 2]), Ok(()));
        assert_eq!(judge(&h, &[1, 5, 1, 0]), Ok(()));
        let why = judge(&h, &[2, 0, 1, 2]);
        assert_eq!(why, Err(Why::Lost { stream: 1, kept: 0 }));
    }

    #[test]
    fn images_of_unequal_lengths_compare_zero_extended() {
        let h = one_stream();
        // Shorter than the base: the missing byte reads as the zero base.
        assert_eq!(judge(&h, &[1, 0, 1]), Ok(()));
        // Longer than the base, with zeros past its end.
        assert_eq!(judge(&h, &[1, 0, 1, 0, 0, 0]), Ok(()));
        // A byte past the base's end that is not zero is stray.
        assert_eq!(judge(&h, &[1, 0, 1, 0, 0, 4]), stray("s", 5, 4));
        // A missing segment reads as all zeros: the durable commit is lost.
        let why = admits(&h, &Images::new());
        assert_eq!(why, Err(Why::Lost { stream: 0, kept: 0 }));
    }
}
