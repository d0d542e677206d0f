//! Quickstart: partition a small task dependency graph with G-PASTA.
//!
//! Builds the running example of the paper's Figure 4 (three chains
//! converging on one task), partitions it with every algorithm, and prints
//! the resulting clusters and their quality statistics.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gpasta::core::{DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, Sarkar, SeqGPasta};
use gpasta::tdg::{partition_to_dot, validate, TaskId, TdgBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The TDG of Figure 4: sources 0, 2, 4; chains 0->1, 2->3, 4->5; all
    // three feed task 6.
    let mut b = TdgBuilder::new(7);
    b.add_edge(TaskId(0), TaskId(1));
    b.add_edge(TaskId(2), TaskId(3));
    b.add_edge(TaskId(4), TaskId(5));
    b.add_edge(TaskId(1), TaskId(6));
    b.add_edge(TaskId(3), TaskId(6));
    b.add_edge(TaskId(5), TaskId(6));
    let tdg = b.build()?;
    println!(
        "TDG: {} tasks, {} dependencies, depth {}\n",
        tdg.num_tasks(),
        tdg.num_deps(),
        tdg.levels().depth()
    );

    let partitioners: Vec<(Box<dyn Partitioner>, PartitionerOptions)> = vec![
        (Box::new(GPasta::new()), PartitionerOptions::default()),
        (Box::new(DeterGPasta::new()), PartitionerOptions::default()),
        (Box::new(SeqGPasta::new()), PartitionerOptions::default()),
        (Box::new(Gdca::new()), PartitionerOptions::with_max_size(3)),
        (
            Box::new(Sarkar::new()),
            PartitionerOptions::with_max_size(3),
        ),
    ];

    for (p, opts) in &partitioners {
        let partition = p.partition(&tdg, opts)?;
        // Every result must be schedulable: acyclic quotient, convex
        // partitions.
        validate::check_all(&tdg, &partition)?;
        let stats = partition.stats(&tdg);
        println!("{:<14} {}", p.name(), stats);
        for (pid, members) in partition.members().iter().enumerate() {
            println!("  P{pid}: {members:?}");
        }
        println!();
    }

    // Export the G-PASTA result for Graphviz.
    let partition = GPasta::new().partition(&tdg, &PartitionerOptions::default())?;
    let dot = partition_to_dot(&tdg, &partition);
    let path = std::env::temp_dir().join("quickstart_partition.dot");
    std::fs::write(&path, &dot)?;
    println!("wrote {0} (render with: dot -Tpng -O {0})", path.display());
    Ok(())
}
