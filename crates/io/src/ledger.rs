//! One text format for the pinned charged work of the test suites, and the
//! workspace's one FNV-1a.
//!
//! A ledger is one line per [`Row`]: a label, then named `u64` counters,
//! `label key=value …`. The label may hold spaces but no `=`; lines starting
//! with `#` are comments. A suite builds its observed rows, writing every
//! [`IoStats`] and [`CpuCounter`] field under its own name, and hands them to
//! [`check`] with the pinned ledger text. On a mismatch `check` panics with
//! every differing counter, every missing and extra label, and the observed
//! ledger in this format, so re-recording an intended change is a paste.

use std::fmt;

use crate::stats::{CpuCounter, CpuOp, IoStats};

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }
}

/// The SplitMix64 finaliser: the wrapping sum of it over a multiset is
/// the multiset's order-insensitive digest.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One ledger line: a label and its named counters, in insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    label: String,
    counters: Vec<(String, u64)>,
}

impl Row {
    /// A row without counters. Panics on a label the format cannot hold.
    pub fn new(label: impl Into<String>) -> Row {
        let label = label.into();
        let words: Vec<&str> = label.split_whitespace().collect();
        assert!(
            !words.is_empty()
                && words.join(" ") == label
                && !label.contains('=')
                && !label.starts_with('#'),
            "unwritable ledger label {label:?}"
        );
        Row {
            label,
            counters: Vec::new(),
        }
    }

    /// Appends counter `key`. Panics on a key the format cannot hold or a
    /// key the row already has.
    pub fn with(mut self, key: impl Into<String>, value: u64) -> Row {
        let key = key.into();
        assert!(
            !key.is_empty() && !key.contains(|c: char| c == '=' || c.is_whitespace()),
            "unwritable ledger key {key:?}"
        );
        assert!(self.get(&key).is_none(), "{}: {key} twice", self.label);
        self.counters.push((key, value));
        self
    }

    /// Appends every [`IoStats`] field as `io.<field>`.
    pub fn io(self, io: &IoStats) -> Row {
        self.with("io.pages_read", io.pages_read)
            .with("io.pages_written", io.pages_written)
            .with("io.seq_read_ops", io.seq_read_ops)
            .with("io.rand_read_ops", io.rand_read_ops)
            .with("io.seq_write_ops", io.seq_write_ops)
            .with("io.rand_write_ops", io.rand_write_ops)
    }

    /// Appends every [`CpuOp`] count as `cpu.<op>`.
    pub fn cpu(self, cpu: &CpuCounter) -> Row {
        CpuOp::all().into_iter().fold(self, |row, op| {
            let key = match op {
                CpuOp::Compare => "cpu.compare",
                CpuOp::HeapOp => "cpu.heap_op",
                CpuOp::RectTest => "cpu.rect_test",
                CpuOp::ItemMove => "cpu.item_move",
                CpuOp::OutputPair => "cpu.output_pair",
            };
            row.with(key, cpu.get(op))
        })
    }

    /// Appends `order`, the FNV-1a of `pairs` in sequence, and `set`, an
    /// order-insensitive digest of them: what a change that only reorders
    /// them leaves alone.
    pub fn digests(self, pairs: &[(u32, u32)]) -> Row {
        let (mut order, mut set) = (Fnv1a::default(), 0u64);
        for &(a, b) in pairs {
            order.write(&a.to_le_bytes());
            order.write(&b.to_le_bytes());
            set = set.wrapping_add(mix(u64::from(a) << 32 | u64::from(b)));
        }
        self.with("order", order.finish()).with("set", set)
    }

    fn get(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)?;
        for (key, value) in &self.counters {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

/// Parses a ledger; an error names the offending line by number.
fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut rows: Vec<Row> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("ledger line {}: {what}: {line}", n + 1);
        let words: Vec<&str> = line.split_whitespace().collect();
        let first = words
            .iter()
            .position(|w| w.contains('='))
            .ok_or_else(|| err("no key=value"))?;
        if first == 0 {
            return Err(err("no label"));
        }
        let mut row = Row {
            label: words[..first].join(" "),
            counters: Vec::new(),
        };
        for word in &words[first..] {
            let (key, value) = word.split_once('=').ok_or_else(|| err("not key=value"))?;
            let value = value.parse().map_err(|_| err("value is not a u64"))?;
            if key.is_empty() || row.get(key).is_some() {
                return Err(err("empty or repeated key"));
            }
            row.counters.push((key.to_string(), value));
        }
        if rows.iter().any(|r| r.label == row.label) {
            return Err(err("repeated label"));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// What differs between the pinned ledger `want` and the observed rows,
/// followed by the observed ledger under `want`'s leading comments; `None`
/// when they agree.
fn mismatch(want: &str, got: &[Row]) -> Option<String> {
    let pinned = parse(want).unwrap_or_else(|e| panic!("{e}"));
    let mut report = String::new();
    for w in &pinned {
        let Some(g) = got.iter().find(|g| g.label == w.label) else {
            report += &format!("missing: {}\n", w.label);
            continue;
        };
        let added = g.counters.iter().filter(|(k, _)| w.get(k).is_none());
        for (key, _) in w.counters.iter().chain(added) {
            let (a, b) = (w.get(key), g.get(key));
            if a != b {
                let show = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
                report += &format!("{}: {key} want={} got={}\n", w.label, show(a), show(b));
            }
        }
    }
    for g in got
        .iter()
        .filter(|g| pinned.iter().all(|w| w.label != g.label))
    {
        report += &format!("extra: {}\n", g.label);
    }
    if report.is_empty() && pinned.iter().zip(got).any(|(w, g)| w.label != g.label) {
        report += "rows out of order\n";
    }
    if report.is_empty() {
        return None;
    }
    report += "observed ledger:\n";
    for comment in want.lines().take_while(|l| l.starts_with('#')) {
        report += &format!("{comment}\n");
    }
    for g in got {
        report += &format!("{g}\n");
    }
    Some(report)
}

/// Panics unless `got` is exactly the ledger `want`: the same labels in the
/// same order, with the same counters. The message lists every difference and then the
/// observed ledger, ready to replace the pinned file.
pub fn check(want: &str, got: &[Row]) {
    for (i, g) in got.iter().enumerate() {
        assert!(
            got[..i].iter().all(|o| o.label != g.label),
            "observed label {:?} twice",
            g.label
        );
    }
    if let Some(report) = mismatch(want, got) {
        panic!("ledger mismatch\n{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, rect_tests: u64) -> Row {
        let mut cpu = CpuCounter::new();
        cpu.add(CpuOp::Compare, 7);
        cpu.add(CpuOp::RectTest, rect_tests);
        let io = IoStats {
            pages_read: 3,
            rand_read_ops: 1,
            ..IoStats::default()
        };
        Row::new(label)
            .with("pairs", 2)
            .io(&io)
            .cpu(&cpu)
            .digests(&[(1, 2), (3, 4)])
    }

    fn ledger(rows: &[Row]) -> String {
        rows.iter().map(|r| format!("{r}\n")).collect()
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(Fnv1a::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::of(b"foobar"));
    }

    #[test]
    fn the_set_digest_ignores_order_and_the_order_digest_does_not() {
        let a = Row::new("a").digests(&[(1, 2), (3, 4)]);
        let b = Row::new("a").digests(&[(3, 4), (1, 2)]);
        assert_eq!(a.get("set"), b.get("set"));
        assert_ne!(a.get("order"), b.get("order"));
    }

    #[test]
    fn one_extra_rect_test_is_reported_by_row_and_counter() {
        let want = format!(
            "# header\n{}",
            ledger(&[row("NJ 24 MB sssj", 10), row("other", 1)])
        );
        let got = [row("NJ 24 MB sssj", 11), row("other", 1)];
        let report = mismatch(&want, &got).unwrap();
        let diffs: Vec<&str> = report
            .lines()
            .take_while(|l| *l != "observed ledger:")
            .collect();
        assert_eq!(diffs, ["NJ 24 MB sssj: cpu.rect_test want=10 got=11"]);
        assert!(report.ends_with(&format!("observed ledger:\n# header\n{}", ledger(&got))));
        check(&ledger(&got), &got);
    }

    #[test]
    fn missing_extra_and_reordered_rows_are_reported() {
        let want = ledger(&[row("kept", 1), row("gone", 1)]);
        let got = [row("kept", 1).with("extra.key", 5), row("new", 1)];
        let report = mismatch(&want, &got).unwrap();
        let diffs: Vec<&str> = report
            .lines()
            .take_while(|l| *l != "observed ledger:")
            .collect();
        assert_eq!(
            diffs,
            [
                "kept: extra.key want=- got=5",
                "missing: gone",
                "extra: new"
            ]
        );
        let swapped = mismatch(&want, &[row("gone", 1), row("kept", 1)]).unwrap();
        assert!(swapped.starts_with("rows out of order\n"), "{swapped}");
    }

    #[test]
    fn print_then_parse_round_trips_and_skips_comments() {
        let rows = vec![
            row("live×live auto limit 40", 9),
            Row::new("x").with("level.0", u64::MAX),
        ];
        let text = format!("# comment\n\n{}", ledger(&rows));
        assert_eq!(parse(&text), Ok(rows));
    }

    #[test]
    fn a_malformed_line_is_rejected_with_its_number() {
        for (text, what) in [
            ("a x=1\nb\n", "line 2: no key=value"),
            ("# c\na x=1 y\n", "line 2: not key=value"),
            ("a x=-1\n", "line 1: value is not a u64"),
            ("x=1\n", "line 1: no label"),
            ("a x=1 x=2\n", "line 1: empty or repeated key"),
            ("a x=1\n\na y=2\n", "line 3: repeated label"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.starts_with(&format!("ledger {what}")),
                "{text:?}: {err}"
            );
        }
    }
}
