//! Golden-file and well-formedness tests for the Perfetto exporter.
//!
//! The golden file (`tests/golden/perfetto_small.json`) pins the exact
//! bytes the exporter produces for a small fixed-seed scenario; any
//! format drift shows up as a diff against a committed artifact instead
//! of a silent change under trace viewers. Regenerate it by running the
//! test with `MGRID_BLESS=1` after an intentional format change.
//!
//! Well-formedness is checked by a zero-dependency recursive-descent
//! JSON parser over *every* exported record — the repo bakes in no JSON
//! crate, and the exporter hand-rolls its output, so the test must not
//! trust the code under test to validate itself.

use mgrid_desim::time::SimDuration;
use mgrid_desim::{obs, perfetto, sleep, spawn, Category, Event, FlowClass, Simulation};

/// Drive a small deterministic scenario: two "hosts" exchange one
/// message and run one collective-style rendezvous, with a few typed
/// events mixed in. Returns the exporter's output.
fn small_export() -> String {
    let mut sim = Simulation::new(42);
    sim.obs().enable_tracing(64);
    sim.obs().enable_spans();
    let obs_handle = sim.obs().clone();
    sim.block_on(async move {
        // h0: compute, then send.
        spawn(async {
            let c = obs::span_begin(Category::Sched, "quantum", || {
                ("h0".into(), "p0".into(), "".into())
            });
            sleep(SimDuration::from_micros(100)).await;
            obs::span_end(c);
            let tx = obs::span_begin(Category::Vsock, "vsock_send", || {
                ("h0".into(), "p0".into(), "h1:7".into())
            });
            obs::flow_out(FlowClass::Msg, "h0", "h1:7", tx);
            obs::emit(|| Event::QuantumGrant {
                host: "h0".into(),
                job: "p0".into(),
            });
            sleep(SimDuration::from_micros(20)).await;
            obs::span_end(tx);
        });
        // h1: wait for the message, then compute.
        spawn(async {
            let rx = obs::span_begin(Category::Vsock, "vsock_recv", || {
                ("h1".into(), "p1".into(), ":7".into())
            });
            sleep(SimDuration::from_micros(120)).await;
            obs::flow_in(FlowClass::Msg, "h0", "h1:7", rx);
            obs::span_end(rx);
            let c = obs::span_begin(Category::Sched, "quantum", || {
                ("h1".into(), "p1".into(), "".into())
            });
            sleep(SimDuration::from_micros(50)).await;
            obs::span_end(c);
        });
        sleep(SimDuration::from_micros(300)).await;
    });
    let snap = sim.obs().spans().snapshot();
    let events = obs_handle.tracer().events();
    perfetto::export(&snap, &events, &[])
}

#[test]
fn export_is_byte_stable_and_matches_the_golden_file() {
    let a = small_export();
    let b = small_export();
    assert_eq!(a, b, "same seed, same bytes");

    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/perfetto_small.json"
    );
    if std::env::var("MGRID_BLESS").as_deref() == Ok("1") {
        std::fs::write(golden, &a).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(golden).expect(
        "golden file missing; regenerate with MGRID_BLESS=1 cargo test -p mgrid-desim --test perfetto",
    );
    assert_eq!(a, want, "exporter output drifted from the golden file");
}

#[test]
fn every_exported_record_is_well_formed_json() {
    let out = small_export();
    let doc = json::parse(&out).expect("whole export parses");
    let json::Value::Object(top) = doc else {
        panic!("top level must be an object")
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let json::Value::Array(records) = events else {
        panic!("traceEvents must be an array")
    };
    assert!(records.len() > 10, "scenario should export many records");
    for rec in records {
        let json::Value::Object(fields) = rec else {
            panic!("every record must be an object")
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let Some(json::Value::String(ph)) = get("ph") else {
            panic!("record missing ph: {rec:?}")
        };
        assert!(
            matches!(ph.as_str(), "M" | "X" | "s" | "f" | "i"),
            "unexpected phase {ph}"
        );
        assert!(
            matches!(get("pid"), Some(json::Value::Number(_))),
            "record missing numeric pid: {rec:?}"
        );
        if ph != "M" {
            assert!(
                matches!(get("ts"), Some(json::Value::Number(_))),
                "non-metadata record missing numeric ts: {rec:?}"
            );
        }
        if ph == "X" {
            assert!(
                matches!(get("dur"), Some(json::Value::Number(_))),
                "complete event missing dur: {rec:?}"
            );
        }
    }
}

/// A minimal strict JSON parser — no dependencies, rejects trailing
/// garbage, validates escapes and number syntax. Only what the test
/// needs: parse and expose the tree.
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::String(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(format!("unexpected byte at {i}")),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            *i > s
        };
        let int_start = *i;
        if !digits(b, i) {
            return Err(format!("bad number at {start}"));
        }
        if b[int_start] == b'0' && *i - int_start > 1 {
            return Err(format!("leading zero at {start}"));
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !digits(b, i) {
                return Err(format!("bad fraction at {start}"));
            }
        }
        if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
                *i += 1;
            }
            if !digits(b, i) {
                return Err(format!("bad exponent at {start}"));
            }
        }
        let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| e.to_string())
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at {i}"));
        }
        *i += 1;
        let mut out = Vec::new();
        loop {
            match b.get(*i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(8),
                        Some(b'f') => out.push(12),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .ok_or("short \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            let ch =
                                char::from_u32(code).ok_or(format!("bad \\u escape {code:04x}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                            *i += 4;
                        }
                        _ => return Err(format!("bad escape at {i}")),
                    }
                    *i += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte 0x{c:02x} in string"))
                }
                Some(&c) => {
                    out.push(c);
                    *i += 1;
                }
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // consume '['
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected , or ] at {i}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // consume '{'
        let mut fields = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected : at {i}"));
            }
            *i += 1;
            fields.push((k, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected , or }} at {i}")),
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "\"\\x\"",
            "{\"a\":1} extra",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(
            parse(" [1, -2.5e3, \"a\\u0041\", {}] ").unwrap(),
            Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2500.0),
                Value::String("aA".into()),
                Value::Object(vec![]),
            ])
        );
    }
}
