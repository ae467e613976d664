//! What the critical path costs to compute: at most 30 bytes of scratch
//! per completed span. Records a large run-shaped snapshot through
//! `SpanStore` (four ranks exchanging messages, each message a send
//! span, a receive span and a flow between them), then charges the
//! growth of the process's peak resident set (`VmHWM`) across one
//! `critical_path` call to the spans it reads. Alone in its file, so no
//! other test shares the process.

#![cfg(target_os = "linux")]

use microgrid::desim::profile::critical_path;
use microgrid::desim::{Category, FlowClass, SimTime, SpanStore, SpanStr};

/// The budget per completed span.
const BYTES_PER_SPAN: u64 = 30;

/// Message rounds; each records two spans per rank.
const ROUNDS: u64 = 40_000;

/// Peak resident set of this process so far, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line");
    kb * 1024
}

/// Every rank sends to its right neighbour once a round: a send span,
/// then the neighbour's receive span, which the flow ends. Spans begin
/// in time order, as a simulation records them.
fn record(store: &SpanStore, ranks: u64) {
    let names: Vec<(SpanStr, SpanStr)> = (0..ranks)
        .map(|r| (format!("alpha{r}").into(), format!("rank{r}").into()))
        .collect();
    let detail: SpanStr = "1500B".into();
    let t = SimTime::from_nanos;
    let begin = |at: u64, name: &'static str, rank: u64| {
        let (track, lane) = &names[rank as usize];
        store.begin(
            t(at),
            Category::Vsock,
            name,
            track.clone(),
            lane.clone(),
            detail.clone(),
        )
    };
    let mut sends = Vec::new();
    for round in 0..ROUNDS {
        let at = round * 1_000;
        sends.clear();
        for r in 0..ranks {
            let tx = begin(at + r, "vsock_send", r);
            store.flow_out(FlowClass::Msg, &names[r as usize].0, "", tx);
            sends.push(tx);
        }
        for r in 0..ranks {
            let rx = begin(at + 10 + r, "vsock_recv", (r + 1) % ranks);
            store.flow_in(FlowClass::Msg, &names[r as usize].0, "", rx);
            store.end(t(at + 200 + 50 * r), rx);
            store.end(t(at + 300 + r), sends[r as usize]);
        }
    }
}

#[test]
fn the_critical_path_takes_at_most_30_bytes_per_span() {
    let store = SpanStore::new();
    store.set_enabled(true);
    record(&store, 4);
    let snap = store.snapshot();
    let spans = snap.spans.len() as u64;
    assert_eq!(spans, 8 * ROUNDS);
    let before = peak_rss_bytes();
    let path = critical_path(&snap);
    let after = peak_rss_bytes();
    assert!(path.total_ns > 0 && !path.hops.is_empty());
    let per_span = after.saturating_sub(before) / spans;
    assert!(
        per_span <= BYTES_PER_SPAN,
        "peak RSS {before} -> {after} bytes: {per_span} bytes per completed span"
    );
}
