//! Golden hashes of the QMR encoding.
//!
//! Each case builds one [`QmrEncoding`] and hashes its WCNF export with
//! FNV-1a 64. The export lists every variable count, clause, literal and
//! weight in emission order, so a matching hash means the solver is handed
//! the same formula in the same clause order. A change to how the encoding
//! is stored or emitted must leave these values alone; a change to the
//! encoding itself must update them on purpose.

use arch::{devices, ConnectivityGraph, NoiseModel};
use circuit::{Circuit, Objective};
use satmap::encode::{EncodeShape, QmrEncoding};

/// FNV-1a 64 over `text`; kept local so the golden values do not depend on
/// any hash the library might change.
fn fnv1a64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The paper's running example (Fig. 3).
fn fig3() -> Circuit {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    c
}

fn path4() -> ConnectivityGraph {
    ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
}

fn named(name: &str) -> Circuit {
    circuit::suite::suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("suite has no {name}"))
        .circuit
}

fn hash_of(enc: &QmrEncoding) -> u64 {
    fnv1a64(&enc.instance().to_wcnf())
}

fn build(c: &Circuit, g: &ConnectivityGraph, shape: EncodeShape, obj: &Objective) -> QmrEncoding {
    QmrEncoding::build(c, g, 1, shape, obj)
}

#[test]
fn golden_wcnf_hashes() {
    let tokyo = devices::tokyo();
    let first = EncodeShape::first_slice();
    let swaps = Objective::SwapCount;

    let mut cyclic = build(
        &fig3(),
        &path4(),
        EncodeShape {
            leading_slots: 0,
            trailing_swaps: true,
        },
        &swaps,
    );
    cyclic.require_cyclic();

    let fidelity = Objective::Fidelity(NoiseModel::synthetic(&tokyo, 2022));
    let cases = [
        (
            "fig3/path4",
            hash_of(&build(&fig3(), &path4(), first, &swaps)),
        ),
        (
            "alu-v3_35/tokyo",
            hash_of(&build(&named("alu-v3_35"), &tokyo, first, &swaps)),
        ),
        (
            "4mod5-v1_22/tokyo",
            hash_of(&build(&named("4mod5-v1_22"), &tokyo, first, &swaps)),
        ),
        (
            "decod24-v2_43/tokyo",
            hash_of(&build(&named("decod24-v2_43"), &tokyo, first, &swaps)),
        ),
        (
            "alu-v3_35/tokyo/fidelity",
            hash_of(&build(&named("alu-v3_35"), &tokyo, first, &fidelity)),
        ),
        ("fig3/path4/cyclic", hash_of(&cyclic)),
    ];
    let expected: [(&str, u64); 6] = [
        ("fig3/path4", 0x5be736d76e1b100d),
        ("alu-v3_35/tokyo", 0xc11658e5bcfd8243),
        ("4mod5-v1_22/tokyo", 0x87c54321c9961870),
        ("decod24-v2_43/tokyo", 0xe33f5351ec927a78),
        ("alu-v3_35/tokyo/fidelity", 0x605906dee601c109),
        ("fig3/path4/cyclic", 0x3fe1728900ac77f1),
    ];
    for ((name, got), (want_name, want)) in cases.iter().zip(expected.iter()) {
        assert_eq!(name, want_name);
        assert_eq!(got, want, "{name}: WCNF hash {got:#018x} changed");
    }
}
