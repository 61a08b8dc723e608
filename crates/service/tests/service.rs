//! Loopback integration tests for the `routed` daemon: concurrent-client
//! stress with cost equality against serial library calls, cross-client
//! cache hits, mid-solve abort, admission shedding, and exact stats
//! reconciliation through a graceful drain.

use std::sync::Arc;
use std::time::Duration;

use circuit::{Circuit, RouteRequest};
use routers::{RoutePolicy, RouterRegistry};
use service::wire::{self, parse_json, JsonValue};
use service::{Daemon, DaemonConfig, ServiceClient, Submission};

/// The paper's Fig. 3 circuit.
fn fig3() -> Circuit {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    c
}

/// A seeded dense CX circuit — deterministic, and hard enough at scale to
/// keep a worker busy for the abort tests.
fn dense(qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut c = Circuit::new(qubits);
    let mut state = seed | 1;
    let mut next = |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    for _ in 0..gates {
        let a = next(qubits);
        let b = (a + 1 + next(qubits - 1)) % qubits;
        c.cx(a, b);
    }
    c
}

fn outcome_field<'v>(row: &'v JsonValue, key: &str) -> &'v JsonValue {
    row.get(key).unwrap_or_else(|| panic!("row missing {key}"))
}

fn u64_field(row: &JsonValue, key: &str) -> u64 {
    outcome_field(row, key)
        .as_u64()
        .unwrap_or_else(|| panic!("{key} not a u64"))
}

#[test]
fn eight_concurrent_clients_match_serial_library_costs() {
    // Four distinct requests, reference-solved serially in-process first.
    let variants: Vec<(Circuit, &str, arch::ConnectivityGraph)> = vec![
        (fig3(), "linear:4", arch::devices::linear(4)),
        (dense(4, 6, 11), "ring:4", arch::devices::ring(4)),
        (dense(5, 8, 23), "linear:5", arch::devices::linear(5)),
        (dense(4, 5, 37), "ring:5", arch::devices::ring(5)),
    ];
    let registry = RouterRegistry::standard();
    let expected: Vec<usize> = variants
        .iter()
        .map(|(c, _, g)| {
            let outcome = registry
                .route(
                    "satmap",
                    &RouteRequest::new(c, g).with_budget(Duration::from_secs(60)),
                )
                .expect("known router");
            outcome
                .routed()
                .unwrap_or_else(|| panic!("reference solve failed: {outcome:?}"))
                .swap_count()
        })
        .collect();
    let lines: Arc<Vec<String>> = Arc::new(
        variants
            .iter()
            .map(|(c, device, _)| {
                wire::route_line("satmap", device, c, &[("budget_ms", "60000".into())])
            })
            .collect(),
    );
    let expected = Arc::new(expected);

    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(4),
        ..DaemonConfig::default()
    })
    .expect("bind");
    let addr = daemon.local_addr();

    // 8 clients x 3 requests each, cycling through the variants.
    let clients: Vec<_> = (0..8)
        .map(|t| {
            let lines = Arc::clone(&lines);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                for j in 0..3 {
                    let variant = (t + j) % lines.len();
                    let id = match client.submit_route(&lines[variant]).expect("submit") {
                        Submission::Queued(id) => id,
                        Submission::Done(_, row) => panic!("rejected at the door: {row}"),
                    };
                    let row = client.wait(id).expect("outcome");
                    let v = parse_json(&row).expect("row parses");
                    assert_eq!(outcome_field(&v, "solved").as_bool(), Some(true), "{row}");
                    assert_eq!(u64_field(&v, "request_id"), id, "{row}");
                    assert_eq!(
                        u64_field(&v, "swaps"),
                        expected[variant] as u64,
                        "daemon cost must equal the serial library cost: {row}"
                    );
                }
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("client thread must not panic");
    }

    let mut client = ServiceClient::connect(addr).expect("connect");
    let stats = parse_json(&client.stats().expect("stats")).expect("stats row");
    assert_eq!(u64_field(&stats, "received"), 24);
    assert_eq!(u64_field(&stats, "admitted"), 24);
    assert_eq!(u64_field(&stats, "completed"), 24);
    assert_eq!(u64_field(&stats, "solved"), 24);
    assert_eq!(u64_field(&stats, "failed"), 0);
    client.drain().expect("drain");
    daemon.join();
}

#[test]
fn second_identical_request_from_another_client_hits_the_cache() {
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(2),
        ..DaemonConfig::default()
    })
    .expect("bind");
    let line = wire::route_line(
        "satmap",
        "linear:4",
        &fig3(),
        &[("budget_ms", "60000".into())],
    );

    let mut first = ServiceClient::connect(daemon.local_addr()).expect("connect");
    let id1 = first.submit_route(&line).expect("submit").id();
    let row1 = parse_json(&first.wait(id1).expect("outcome")).expect("parses");
    assert_eq!(outcome_field(&row1, "cache_hit").as_bool(), Some(false));
    let swaps = u64_field(&row1, "swaps");

    let mut second = ServiceClient::connect(daemon.local_addr()).expect("connect");
    let id2 = second.submit_route(&line).expect("submit").id();
    assert!(id2 > id1, "ids are server-assigned and monotonic");
    let row2 = parse_json(&second.wait(id2).expect("outcome")).expect("parses");
    assert_eq!(
        outcome_field(&row2, "cache_hit").as_bool(),
        Some(true),
        "identical request from another client must replay the memo"
    );
    assert_eq!(u64_field(&row2, "swaps"), swaps);
    assert_eq!(
        u64_field(&row2, "request_id"),
        id2,
        "replays are re-stamped with the new request's id"
    );

    let stats = parse_json(&second.stats().expect("stats")).expect("row");
    assert!(u64_field(&stats, "cache_hits") >= 1);
    second.drain().expect("drain");
    daemon.join();
}

#[test]
fn abort_mid_solve_returns_a_typed_cancelled_outcome() {
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = ServiceClient::connect(daemon.local_addr()).expect("connect");

    // Monolithic MaxSAT over a dense 10-qubit circuit: far more work than
    // the abort latency, so the handle fires mid-solve.
    let hard = wire::route_line(
        "nl-satmap",
        "tokyo",
        &dense(10, 40, 5),
        &[("budget_ms", "120000".into())],
    );
    let id = client.submit_route(&hard).expect("submit").id();
    std::thread::sleep(Duration::from_millis(250));
    assert!(
        client.abort(id).expect("abort"),
        "the request must still be live when the abort fires"
    );
    let row = client.wait(id).expect("outcome, not a hang");
    let v = parse_json(&row).expect("parses");
    assert_eq!(outcome_field(&v, "solved").as_bool(), Some(false), "{row}");
    assert!(
        outcome_field(&v, "error")
            .as_str()
            .expect("error string")
            .contains("cancelled"),
        "abort must surface as the typed cancellation: {row}"
    );

    // Aborting a finished id is a clean miss, not an error.
    assert!(!client.abort(id).expect("second abort"));

    // The daemon is still serving.
    let easy = wire::route_line("sabre", "linear:4", &fig3(), &[]);
    let id2 = client.submit_route(&easy).expect("submit").id();
    let row2 = client.wait(id2).expect("outcome");
    assert!(row2.contains("\"solved\":true"), "{row2}");

    let stats = parse_json(&client.stats().expect("stats")).expect("row");
    assert_eq!(u64_field(&stats, "aborted"), 1);
    assert_eq!(u64_field(&stats, "failed"), 1);
    client.drain().expect("drain");
    daemon.join();
}

#[test]
fn door_verdicts_shed_and_reject_before_any_solving() {
    // Tiny admission limit: every budgeted satmap request is shed in O(1).
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        policy: RoutePolicy {
            admission_limit: 100,
            ..RoutePolicy::default()
        },
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = ServiceClient::connect(daemon.local_addr()).expect("connect");

    // Unknown router: typed InvalidRequest at the door.
    let unknown = wire::route_line("qiskit", "linear:4", &fig3(), &[]);
    let row = match client.submit_route(&unknown).expect("submit") {
        Submission::Done(_, row) => row,
        Submission::Queued(id) => panic!("unknown router must not queue (id {id})"),
    };
    assert!(row.contains("invalid request"), "{row}");
    assert!(row.contains("unknown router"), "{row}");

    // Oversized estimate: shed as Overloaded.
    let oversized = wire::route_line(
        "satmap",
        "linear:4",
        &fig3(),
        &[("budget_ms", "1000".into())],
    );
    let row = match client.submit_route(&oversized).expect("submit") {
        Submission::Done(_, row) => row,
        Submission::Queued(id) => panic!("oversized request must shed (id {id})"),
    };
    assert!(row.contains("shed by admission control"), "{row}");
    assert!(row.contains("admission limit"), "{row}");

    // Unbudgeted requests are never shed by the estimate (nothing to
    // protect: the solver may take as long as it likes).
    let unbudgeted = wire::route_line("satmap", "linear:4", &fig3(), &[]);
    let id = client.submit_route(&unbudgeted).expect("submit").id();
    let row = client.wait(id).expect("outcome");
    assert!(row.contains("\"solved\":true"), "{row}");

    // Malformed line: wire error row, not a dropped connection.
    client.send("{\"verb\":\"route\",oops").expect("send");
    let row = client.recv().expect("error row");
    assert!(row.contains("\"type\":\"error\""), "{row}");
    client.drain().expect("drain");
    daemon.join();
}

#[test]
fn stats_reconcile_exactly_through_queue_full_abort_and_drain() {
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        queue_capacity: 1,
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = ServiceClient::connect(daemon.local_addr()).expect("connect");

    // 1-2: two identical sabre requests (second may replay the memo).
    let easy = wire::route_line("sabre", "linear:4", &fig3(), &[]);
    let easy1 = client.submit_route(&easy).expect("submit").id();
    assert!(client
        .wait(easy1)
        .expect("outcome")
        .contains("\"solved\":true"));
    let easy2 = client.submit_route(&easy).expect("submit").id();
    assert!(client
        .wait(easy2)
        .expect("outcome")
        .contains("\"solved\":true"));

    // 3: unknown router -> rejected.
    let unknown = wire::route_line("qiskit", "linear:4", &fig3(), &[]);
    assert!(matches!(
        client.submit_route(&unknown).expect("submit"),
        Submission::Done(_, _)
    ));

    // 4: hard job occupies the single worker...
    let hard = wire::route_line(
        "nl-satmap",
        "tokyo",
        &dense(10, 40, 9),
        &[("budget_ms", "120000".into())],
    );
    let hard_id = client.submit_route(&hard).expect("submit").id();
    std::thread::sleep(Duration::from_millis(100));
    // 5: ...a quick one waits in the single queue slot...
    let queued_id = client.submit_route(&easy).expect("submit").id();
    // 6: ...and the next is shed: the queue is full.
    let row = match client.submit_route(&easy).expect("submit") {
        Submission::Done(_, row) => row,
        Submission::Queued(id) => panic!("queue-full request must shed (id {id})"),
    };
    assert!(row.contains("work queue is full"), "{row}");

    // Abort the hard job; the queued one then completes.
    assert!(client.abort(hard_id).expect("abort"));
    let hard_row = client.wait(hard_id).expect("outcome");
    assert!(hard_row.contains("cancelled"), "{hard_row}");
    assert!(client
        .wait(queued_id)
        .expect("outcome")
        .contains("\"solved\":true"));

    let stats = parse_json(&client.stats().expect("stats")).expect("row");
    let count = |key: &str| u64_field(&stats, key);
    assert_eq!(count("received"), 6);
    assert_eq!(count("rejected"), 1);
    assert_eq!(count("shed"), 1);
    assert_eq!(count("admitted"), 4);
    assert_eq!(count("completed"), 4);
    assert_eq!(count("solved"), 3);
    assert_eq!(count("failed"), 1);
    assert_eq!(count("aborted"), 1);
    assert_eq!(count("in_flight"), 0);
    assert_eq!(count("queue_depth"), 0);
    assert_eq!(count("workers"), 1);
    assert_eq!(
        count("received"),
        count("rejected") + count("shed") + count("admitted")
    );
    assert_eq!(count("completed"), count("solved") + count("failed"));
    assert_eq!(outcome_field(&stats, "draining").as_bool(), Some(false));

    // Drain: final report agrees, and routes after it are shed.
    let drain = parse_json(&client.drain().expect("drain")).expect("row");
    assert_eq!(u64_field(&drain, "completed"), 4);
    daemon.join();
}

#[test]
fn routes_after_drain_are_shed() {
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        ..DaemonConfig::default()
    })
    .expect("bind");
    // Two connections: one drains, the other (already connected) tries to
    // submit afterwards.
    let mut late = ServiceClient::connect(daemon.local_addr()).expect("connect");
    let mut drainer = ServiceClient::connect(daemon.local_addr()).expect("connect");
    drainer.drain().expect("drain");
    let easy = wire::route_line("sabre", "linear:4", &fig3(), &[]);
    let row = match late.submit_route(&easy).expect("submit") {
        Submission::Done(_, row) => row,
        Submission::Queued(id) => panic!("draining daemon must shed (id {id})"),
    };
    assert!(row.contains("draining"), "{row}");
    daemon.join();
}

#[test]
fn session_store_stays_within_its_capacity() {
    // More distinct satmap requests than the store holds: budget-cut
    // ladders that end on a warm-retry proof or an unproven incumbent
    // keep their sessions, first-attempt proofs release theirs, and
    // `stats` reports the shared store.
    let capacity = 2;
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        session_capacity: capacity,
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = ServiceClient::connect(daemon.local_addr()).expect("connect");
    let mut lines: Vec<String> = (1..=4)
        .map(|seed| {
            wire::route_line(
                "satmap",
                "ring:6",
                &dense(6, 24, seed),
                &[("budget_ms", "20".into())],
            )
        })
        .collect();
    for q in 0..2 {
        let mut c = fig3();
        c.h(q);
        lines.push(wire::route_line("satmap", "linear:4", &c, &[]));
    }
    let mut kept = 0u64;
    for line in &lines {
        let id = client.submit_route(line).expect("submit").id();
        let row = parse_json(&client.wait(id).expect("outcome")).expect("parses");
        let fallback = outcome_field(&row, "diagnostics").get("degraded_from");
        match outcome_field(&row, "quality").as_str() {
            Some("warm_retry") => kept += 1,
            Some("degraded") if fallback.is_none() => kept += 1,
            _ => {}
        }
    }
    let stats = parse_json(&client.stats().expect("stats")).expect("row");
    let sessions = u64_field(&stats, "cache_sessions");
    assert!(sessions <= capacity as u64, "{sessions} sessions held");
    // Only those ladders keep a session. (A failed ladder's session
    // occupies one slot until the ladder ends, so it may have evicted
    // one of theirs.)
    assert!(sessions <= kept, "{sessions} held, {kept} kept");
    assert_eq!(sessions > 0, kept > 0, "the store is the one reported");
    client.drain().expect("drain");
    daemon.join();
}

#[test]
fn oversized_and_non_utf8_lines_get_error_rows_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let daemon: Daemon = Daemon::bind(DaemonConfig {
        workers: Some(1),
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let stats = format!("{}\n", wire::stats_line());

    let mut oversized = vec![b'x'; service::server::MAX_LINE_BYTES + 4096];
    oversized.push(b'\n');
    let mut not_utf8 = b"{\"verb\":\"stats\",\"x\":\"\xff\xfe\"}".to_vec();
    not_utf8.push(b'\n');
    for (bad, why) in [(oversized, "exceeds"), (not_utf8, "not UTF-8")] {
        stream.write_all(&bad).expect("send bad line");
        stream.write_all(stats.as_bytes()).expect("send stats");
        let mut row = String::new();
        reader.read_line(&mut row).expect("error row");
        assert!(row.contains("\"type\":\"error\""), "{row}");
        assert!(row.contains(why), "{row}");
        row.clear();
        reader.read_line(&mut row).expect("stats row");
        assert!(row.contains("\"type\":\"stats\""), "{row}");
    }

    let mut client = ServiceClient::connect(daemon.local_addr()).expect("connect");
    client.drain().expect("drain");
    daemon.join();
}
