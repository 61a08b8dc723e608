//! Wire fuzzing: whatever bytes a client sends, the request parser and
//! the JSON reader answer `Ok` or a typed [`WireError`] — never a panic.
//! Arbitrary byte strings (lossy-UTF-8 decoded, as a line that passed
//! the daemon's UTF-8 check would be) and every truncation of each valid
//! request line are fed to both entry points.

use proptest::prelude::*;
use service::wire::{self, WireError};

/// Feeds `line` to both wire entry points. A panic fails the test; an
/// error must carry an explanation.
fn parse_both(line: &str) -> bool {
    let typed = |e: &WireError| !e.why().is_empty();
    let request = wire::parse_request(line);
    let json = wire::parse_json(line);
    if let Err(e) = &request {
        assert!(typed(e), "empty request error for {line:?}");
    }
    if let Err(e) = &json {
        assert!(typed(e), "empty JSON error for {line:?}");
    }
    request.is_ok()
}

/// One valid line of every verb, built by the wire's own line builders.
fn valid_lines() -> Vec<String> {
    let mut c = circuit::Circuit::new(3);
    c.h(0);
    c.cx(0, 1);
    c.rzz(1, 2, 0.25);
    c.cx(1, 2);
    let knobs = [
        ("budget_ms", "500".to_string()),
        ("parallelism", "\"auto\"".to_string()),
    ];
    vec![
        wire::route_line("satmap", "linear:3", &c, &knobs),
        wire::qasm_route_line("sabre", "ring:3", &circuit::qasm::print(&c), &[]),
        wire::stats_line(),
        wire::abort_line(42),
        wire::drain_line(),
    ]
}

#[test]
fn every_truncation_of_a_valid_line_fails_typed() {
    for line in valid_lines() {
        assert!(parse_both(&line), "the full line parses: {line}");
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            parse_both(&line[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }
}
