//! Allocation-free writers shared by the two hand-rolled JSON encoders
//! ([`crate::event::Event::write_json_line`] and
//! [`crate::perfetto::export`]): decimal integers, trace-event
//! microsecond timestamps and escaped strings, each appended to a
//! caller-owned `String`.

/// `"00"`, `"01"`, …, `"99"`: the digit pairs the number writers
/// append, two digits per `push_str` and no UTF-8 check.
const PAIRS: &str = "0001020304050607080910111213141516171819\
                     2021222324252627282930313233343536373839\
                     4041424344454647484950515253545556575859\
                     6061626364656667686970717273747576777879\
                     8081828384858687888990919293949596979899";

/// The two digits of `n < 100`.
fn pair(n: u64) -> &'static str {
    let at = 2 * n as usize;
    &PAIRS[at..at + 2]
}

/// Append `v` in decimal (what `format!("{v}")` produces).
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    // Digit pairs below the leading one, least significant first;
    // u64::MAX has 20 digits.
    let mut low = [0u8; 9];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
    } else {
        out.push_str(pair(v));
    }
    for &p in low[..n].iter().rev() {
        out.push_str(pair(u64::from(p)));
    }
}

/// Append nanoseconds as trace-event microseconds with exactly three
/// fractional digits (what `format!("{}.{:03}", ns / 1000, ns % 1000)`
/// produces) — no floats.
pub(crate) fn push_ts_us(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let frac = ns % 1_000;
    out.push('.');
    out.push(char::from(b'0' + (frac / 100) as u8));
    out.push_str(pair(frac % 100));
}

/// Append `s` escaped for a JSON string value position (without the
/// surrounding quotes): `"` and `\` get a backslash, newline becomes
/// `\n`, every other byte below 0x20 becomes `\u00XX`, everything else —
/// including non-ASCII — passes through. A string with nothing to escape
/// is one `push_str`.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let needs = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    let mut rest = s;
    // Every byte that needs escaping is ASCII, so splitting at one keeps
    // both halves valid UTF-8.
    while let Some(at) = rest.bytes().position(needs) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::from("x");
        f(&mut out);
        out
    }

    #[test]
    fn decimal_writer_matches_format_at_its_edges() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        for v in [
            0,
            9,
            10,
            99,
            100,
            999,
            1_000,
            1_001,
            u32::MAX as u64,
            u64::MAX,
        ]
        .into_iter()
        .chain(powers.clone())
        .chain(powers.map(|p| p - 1))
        {
            assert_eq!(with(|o| push_u64(o, v)), format!("x{v}"));
        }
    }

    #[test]
    fn timestamp_writer_matches_format_at_its_edges() {
        for whole in [0u64, 1, 999, 1_000, u64::MAX / 1_000] {
            for frac in [0u64, 7, 70, 999] {
                let ns = whole.saturating_mul(1_000).saturating_add(frac);
                assert_eq!(
                    with(|o| push_ts_us(o, ns)),
                    format!("x{}.{:03}", ns / 1_000, ns % 1_000)
                );
            }
        }
        assert_eq!(with(|o| push_ts_us(o, u64::MAX)), "x18446744073709551.615");
    }

    /// The `format!`-based escaper this module replaced.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escaper_matches_the_reference_on_every_class() {
        let all_controls: String = (0u8..0x20).map(|b| b as char).collect();
        for s in [
            "",
            "plain-host0:19",
            "a\"b\\c",
            "line\nbreak",
            "\"",
            "\\\\",
            "tab\there",
            "\u{7f}\u{80}é漢字🦀",
            "é\"漢\\字\n🦀\u{1}",
            all_controls.as_str(),
        ] {
            assert_eq!(
                with(|o| push_escaped(o, s)),
                format!("x{}", reference_escape(s))
            );
        }
    }
}
