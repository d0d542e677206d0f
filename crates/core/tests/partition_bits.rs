//! Pins every wavefront partitioner's assignment on the paper suite, and
//! checks the one cross-partitioner equality the algorithms promise.
//!
//! The pins are a `checksum` of each assignment (task order, little-endian
//! `u32` partition ids) on the full-space TDG of all six paper circuits,
//! at the default Ps and at Ps = 8. A change that moves any partitioner's
//! output, even to another valid partition, fails here with the new
//! table printed. The constants were captured while the literal Alg. 1/2
//! transcriptions still refereed the CSR partitioners bit for bit.
//!
//! G-PASTA on a single-worker device dispatches its wavefront in id
//! order, which is the order seq-G-PASTA walks: the two are equal bit for
//! bit on any DAG.

use gpasta_circuits::{dag, PaperCircuit};
use gpasta_core::{DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, SeqGPasta};
use gpasta_gpu::Device;
use gpasta_sta::{CellLibrary, Timer};
use gpasta_tdg::{checksum, Partition, Tdg};
use proptest::prelude::*;

const SCALE: f64 = 0.004;

/// `(circuit, [GDCA, seq-G-PASTA, deter-G-PASTA, G-PASTA@single])` at the
/// default Ps, then at Ps = 8. Deter-G-PASTA is pinned once: its 1- and
/// 4-worker outputs must both equal the pin.
type Pinned = (PaperCircuit, [u64; 4], [u64; 4]);

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    (PaperCircuit::AesCore, [0x58282b49e5c263b2, 0xbee1f4197d8d5feb, 0xff37bfcf7116ed91, 0xbee1f4197d8d5feb], [0x61f6f6711ef2a0ba, 0x5bdfbb703952eaf7, 0xe434b49c9be82684, 0x5bdfbb703952eaf7]),
    (PaperCircuit::DesPerf, [0x8882f5955e8125ae, 0xfa9ae27e3d25ca89, 0xa9b53c63c0e90ec7, 0xfa9ae27e3d25ca89], [0x431f6a92b5d27a9b, 0x8a0ad570080790cd, 0xacc7fe8f304c1977, 0x8a0ad570080790cd]),
    (PaperCircuit::VgaLcd, [0x2d36964225aa0aa5, 0x4b4c30b6793ddb34, 0xe20efc0a2f8c20b6, 0x4b4c30b6793ddb34], [0x754fdeaf4ac00326, 0xa732283cab786570, 0xd3fc9873641d28b1, 0xa732283cab786570]),
    (PaperCircuit::Leon3mp, [0x1ba05e4f14660dd1, 0xddf18c3f8c39a31e, 0xdbaaccc1a9ea4dff, 0xddf18c3f8c39a31e], [0xcc3f5b05249a7afa, 0x730d56da213dff0c, 0xd0807eb6a2821c7c, 0x730d56da213dff0c]),
    (PaperCircuit::Netcard, [0x3f1d23291975506c, 0x9f9e7078b1b59bc8, 0x63b36898accaaf8c, 0x9f9e7078b1b59bc8], [0x8a4b925f59fa17ee, 0x74e4fe28f4ab4a62, 0x4437a66b32ddc8ec, 0x74e4fe28f4ab4a62]),
    (PaperCircuit::Leon2, [0xef3115b28c28416c, 0x28d776bf7376be60, 0xc481504a8aec4cda, 0x28d776bf7376be60], [0x80fd9e7b385a5b17, 0x1d52cd4ac80a8caf, 0xe70259e8a91f5659, 0x1d52cd4ac80a8caf]),
];

fn bits(partition: &Partition) -> u64 {
    let bytes: Vec<u8> = partition
        .assignment()
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .collect();
    checksum(&bytes)
}

/// The four pins of `tdg` at `opts`, asserting deter-G-PASTA's worker
/// invariance on the way.
fn pins(tdg: &Tdg, opts: &PartitionerOptions, what: &str) -> [u64; 4] {
    let run = |p: &dyn Partitioner| bits(&p.partition(tdg, opts).expect("valid options"));
    let deter = run(&DeterGPasta::with_device(Device::single()));
    let deter4 = run(&DeterGPasta::with_device(Device::new(4)));
    assert_eq!(
        deter, deter4,
        "{what}: deter-G-PASTA moved with the worker count"
    );
    [
        run(&Gdca::new()),
        run(&SeqGPasta::new()),
        deter,
        run(&GPasta::with_device(Device::single())),
    ]
}

#[test]
fn partitions_of_the_paper_suite_keep_their_bits() {
    let mut got = Vec::new();
    for &circuit in PaperCircuit::all() {
        let timer = Timer::new(circuit.build(SCALE), CellLibrary::typical());
        let tdg = timer.full_space_tdg();
        let what = circuit.name();
        got.push((
            circuit,
            pins(&tdg, &PartitionerOptions::default(), what),
            pins(&tdg, &PartitionerOptions::with_max_size(8), what),
        ));
    }
    let table: String = got
        .iter()
        .map(|(c, d, p8)| {
            let row = |a: &[u64; 4]| {
                let hex: Vec<String> = a.iter().map(|x| format!("{x:#018x}")).collect();
                format!("[{}]", hex.join(", "))
            };
            format!("    (PaperCircuit::{c:?}, {}, {}),\n", row(d), row(p8))
        })
        .collect();
    assert_eq!(PINNED.len(), got.len(), "the partitions moved:\n{table}");
    for ((circuit, d, p8), (c, pd, pp8)) in got.iter().zip(PINNED) {
        assert_eq!(circuit, c);
        assert_eq!(d, pd, "{}: default Ps\n{table}", circuit.name());
        assert_eq!(p8, pp8, "{}: Ps = 8\n{table}", circuit.name());
        assert_eq!(d[1], d[3], "{}: G-PASTA@single != seq", circuit.name());
        assert_eq!(p8[1], p8[3], "{}: G-PASTA@single != seq", circuit.name());
    }
}

/// Seq-G-PASTA and single-worker G-PASTA agree on `tdg` at `opts`.
fn single_worker_gpasta_is_seq(tdg: &Tdg, opts: &PartitionerOptions) {
    let seq = SeqGPasta::new()
        .partition(tdg, opts)
        .expect("valid options");
    let gp = GPasta::with_device(Device::single())
        .partition(tdg, opts)
        .expect("valid options");
    assert_eq!(gp, seq, "G-PASTA@single diverged from seq-G-PASTA");
}

fn ps_options() -> [PartitionerOptions; 4] {
    [
        PartitionerOptions::default(),
        PartitionerOptions::with_max_size(3),
        PartitionerOptions::with_max_size(8),
        PartitionerOptions::with_max_size(17),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_worker_gpasta_is_seq_on_random_dags(
        n in 2usize..400,
        degree in 1u32..40,
        seed in any::<u64>(),
    ) {
        let tdg = dag::random_dag(n, f64::from(degree) / 10.0, seed);
        for opts in ps_options() {
            single_worker_gpasta_is_seq(&tdg, &opts);
        }
    }
}
