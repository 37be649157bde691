//! Dynamic graph analytics on the slab hash — the paper's motivating
//! application domain (§I cites cuSTINGER; §VII names "dynamic graph
//! analytics" as the target).
//!
//! The graph's adjacency is a *multimap*: key = vertex, one INSERTed
//! element per incident edge (duplicates allowed — that is exactly what the
//! slab list's INSERT/SEARCHALL/DELETEALL operations exist for). Edges
//! stream in concurrent batches; queries (degrees, triangle counts) run
//! against the live structure; vertex removals use DELETEALL; FLUSH
//! compacts the adjacency lists afterwards.
//!
//! Run with: `cargo run --release --example dynamic_graph`

use std::collections::HashSet;

use simt::Grid;
use slab_hash::{KeyValue, Request, SlabHash, WarpDriver};

/// Deterministic pseudorandom edge stream over `vertices` vertices.
fn edge_stream(vertices: u32, num_edges: usize, seed: u32) -> Vec<(u32, u32)> {
    let mut x = seed | 1;
    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let u = x % vertices;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let v = x % vertices;
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

fn main() {
    let grid = Grid::default();
    let vertices = 2_000u32;
    let edges = edge_stream(vertices, 40_000, 0xF00D);

    // Size for both directions of every edge at a comfortable utilization.
    let graph = SlabHash::<KeyValue>::for_expected_elements(edges.len() * 2, 0.5, 99);
    println!(
        "dynamic graph: {vertices} vertices, {} streamed edges, {} buckets",
        edges.len(),
        graph.num_buckets()
    );

    // --- Phase 1: stream edges in concurrent batches ------------------------
    for chunk in edges.chunks(8_192) {
        let mut batch: Vec<Request> = chunk
            .iter()
            .flat_map(|&(u, v)| [Request::insert(u, v), Request::insert(v, u)])
            .collect();
        graph.execute_batch(&mut batch, &grid);
    }
    println!(
        "streamed {} directed adjacency entries; slabs in use: {}",
        graph.len(),
        graph.total_slabs()
    );

    // --- Phase 2: queries against the live structure ------------------------
    let mut warp = WarpDriver::new(&graph);
    let neighbors = |w: &mut WarpDriver<KeyValue>, v: u32| -> HashSet<u32> {
        w.search_all(v).into_iter().collect()
    };

    let mut max_degree = (0u32, 0usize);
    for v in 0..50 {
        let d = warp.search_all(v).len();
        if d > max_degree.1 {
            max_degree = (v, d);
        }
    }
    println!(
        "max degree among first 50 vertices: vertex {} with {} neighbors",
        max_degree.0, max_degree.1
    );

    // Streaming triangle counting: for a sample of edges (u, v), triangles
    // through that edge = |N(u) ∩ N(v)|.
    let mut triangles = 0usize;
    for &(u, v) in edges.iter().take(500) {
        let nu = neighbors(&mut warp, u);
        let nv = neighbors(&mut warp, v);
        triangles += nu.intersection(&nv).count();
    }
    println!("triangles through the first 500 edges: {triangles}");

    // --- Phase 3: vertex removal with DELETEALL -----------------------------
    let victims: Vec<u32> = (0..vertices).step_by(10).collect();
    let mut removed_entries = 0u32;
    for &v in &victims {
        removed_entries += warp.delete_all(v);
    }
    println!(
        "removed {} vertices ({} adjacency entries tombstoned)",
        victims.len(),
        removed_entries
    );

    // --- Phase 4: FLUSH compacts the tombstoned lists ------------------------
    let mut graph = graph; // exclusive phase: no concurrent ops possible now
    let before = graph.total_slabs();
    let report = graph.flush(&grid);
    println!(
        "flush: released {} of {} slabs, kept {} live entries",
        report.slabs_released, before, report.elements_kept
    );
    graph.audit().expect("graph structure intact after flush");

    // Deleted vertices are gone; survivors keep their adjacency.
    let mut warp = WarpDriver::new(&graph);
    assert!(warp.search_all(0).is_empty(), "vertex 0 was removed");
    assert!(
        !warp.search_all(1).is_empty(),
        "vertex 1 should still have neighbors"
    );
    println!("post-flush checks OK");
}
