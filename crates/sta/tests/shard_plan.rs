//! The shard plan cut from the timing graph is the plan cut from the
//! update's TDG: on the paper suite at 0.004 and k ∈ {2, 4, 7}, the plan
//! built over `DirtyCone::successors` of a whole-design cone equals the
//! one built over `update_timing().tdg()`'s adjacency, and both keep the
//! bounds, `edge_cut` and fingerprints pinned below. The pins were
//! captured from the TDG-cut plan before the shard tier stopped building
//! a TDG.

use gpasta_circuits::PaperCircuit;
use gpasta_sta::{CellLibrary, Timer};
use gpasta_tdg::ShardPlan;

const SCALE: f64 = 0.004;

/// `(circuit, k, each shard's end, edge_cut, shard-graph fingerprint,
/// plan fingerprint)`.
type Pinned = (PaperCircuit, usize, &'static [u32], usize, u64, u64);

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    (PaperCircuit::AesCore, 2, &[130, 260], 130, 0x37d93d5579dc3cb9, 0x8039193cc18eed73),
    (PaperCircuit::AesCore, 4, &[65, 130, 195, 260], 178, 0x0fdcdcb03b2b9b90, 0x67333917af76766c),
    (PaperCircuit::AesCore, 7, &[38, 75, 112, 149, 186, 223, 260], 237, 0xd69f59c2cb4eb68e, 0x9ed4780d6575e0da),
    (PaperCircuit::DesPerf, 2, &[593, 1186], 593, 0x37d93d5579dc3cb9, 0x1ccf5a73dc246845),
    (PaperCircuit::DesPerf, 4, &[297, 594, 890, 1186], 845, 0xfc733f5c6639035f, 0xab1a155a552c64f6),
    (PaperCircuit::DesPerf, 7, &[170, 340, 510, 679, 848, 1017, 1186], 1064, 0x173f3dc7fac5a754, 0x0860e6517029b853),
    (PaperCircuit::VgaLcd, 2, &[794, 1588], 794, 0x37d93d5579dc3cb9, 0x239315ff686ae9f6),
    (PaperCircuit::VgaLcd, 4, &[397, 794, 1191, 1588], 1150, 0x0fdcdcb03b2b9b90, 0x8644a4a9421dadbc),
    (PaperCircuit::VgaLcd, 7, &[227, 454, 681, 908, 1135, 1362, 1588], 1482, 0x173f3dc7fac5a754, 0xf03201848e7d25dd),
    (PaperCircuit::Leon3mp, 2, &[6789, 13578], 6789, 0x37d93d5579dc3cb9, 0x67d8ba36b9625eb0),
    (PaperCircuit::Leon3mp, 4, &[3395, 6790, 10184, 13578], 9753, 0xfc733f5c6639035f, 0xfa0b56d8f915d669),
    (PaperCircuit::Leon3mp, 7, &[1940, 3880, 5820, 7760, 9700, 11639, 13578], 12355, 0x173f3dc7fac5a754, 0x29518798820e1142),
    (PaperCircuit::Netcard, 2, &[8038, 16076], 8038, 0x37d93d5579dc3cb9, 0xf61673f2f5ccd407),
    (PaperCircuit::Netcard, 4, &[4019, 8038, 12057, 16076], 11534, 0x0fdcdcb03b2b9b90, 0x63b61995d3078baf),
    (PaperCircuit::Netcard, 7, &[2297, 4594, 6891, 9188, 11484, 13780, 16076], 14759, 0x173f3dc7fac5a754, 0x09ca00030a08c7e9),
    (PaperCircuit::Leon2, 2, &[8615, 17230], 8615, 0x37d93d5579dc3cb9, 0x952c38b77e597107),
    (PaperCircuit::Leon2, 4, &[4308, 8616, 12923, 17230], 12329, 0xfc733f5c6639035f, 0x361b310a58633557),
    (PaperCircuit::Leon2, 7, &[2462, 4924, 7386, 9847, 12308, 14769, 17230], 15716, 0x173f3dc7fac5a754, 0xfd1581fcafca8566),
];

#[test]
fn the_graph_cut_plan_is_the_tdg_cut_plan() {
    let mut pins = PINNED.iter();
    for &circuit in PaperCircuit::all() {
        let mut timer = Timer::new(circuit.build(SCALE), CellLibrary::typical());
        let update = timer.update_timing();
        let tdg = update.tdg().clone();
        drop(update);
        timer.invalidate_all();
        let cone = timer.dirty_cone();
        assert_eq!(
            cone.num_tasks(),
            tdg.num_tasks(),
            "{circuit:?}: whole design"
        );
        for k in [2, 4, 7] {
            let what = format!("{circuit:?} k={k}");
            let by_graph =
                ShardPlan::build(&(cone.num_tasks(), |t| cone.successors(t)), k).expect("plan");
            let by_tdg = ShardPlan::build(&tdg, k).expect("plan");
            assert_eq!(by_graph, by_tdg, "{what}");

            let &(c, pk, ends, cut, graph_fp, plan_fp) = pins.next().expect("a pin per case");
            assert_eq!((c, pk), (circuit, k), "pins in suite order");
            let got: Vec<u32> = (0..by_graph.num_shards() as u32)
                .map(|s| by_graph.range(s).end)
                .collect();
            assert_eq!(got, ends, "{what}: bounds");
            assert_eq!(by_graph.edge_cut(), cut, "{what}: edge_cut");
            assert_eq!(
                by_graph.graph().fingerprint(),
                graph_fp,
                "{what}: shard graph"
            );
            assert_eq!(by_graph.fingerprint(), plan_fp, "{what}: plan");
        }
    }
    assert!(pins.next().is_none(), "every pin checked");
}
