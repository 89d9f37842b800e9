//! Sharded consultations: the rationality authority as a service.
//!
//! Sixty-four agents consult the authority at once. A `ShardedAuthority`
//! with four shards — each its own bus, inventor handle, verifier panel
//! and reputation store — routes every agent to its home shard by a
//! deterministic hash and fans the batch over a persistent pool of
//! shard-pinned worker threads (spun up lazily on the first batch and
//! reused by every later one). The outcomes are exactly what sequential,
//! routed consultations would have produced; only the wall clock
//! changes.
//!
//! Run with: `cargo run --example sharded_throughput`

use std::sync::Arc;

use rationality_authority::authority::{
    GameSpec, InventorBehavior, ShardedAuthority, VerifierBehavior,
};
use rationality_authority::games::named::{battle_of_the_sexes, prisoners_dilemma};

fn main() {
    let specs = [
        GameSpec::Strategic(prisoners_dilemma().to_strategic()),
        GameSpec::Bimatrix(battle_of_the_sexes()),
    ];
    let specs = specs.map(Arc::new);
    let requests: Vec<(u64, Arc<GameSpec>)> = (0..64u64)
        .map(|agent| (agent, Arc::clone(&specs[(agent % 2) as usize])))
        .collect();

    let engine = ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
    println!(
        "fanning {} consultations across 4 shards…\n",
        requests.len()
    );
    let outcomes = engine.consult_batch(&requests);
    // A second batch on the same engine reuses the parked pool workers —
    // no re-spawning, which is what keeps epoch-chunked gossip batches
    // fast at scale (see docs/ARCHITECTURE.md, "Worker-pool lifecycle").
    let again = engine.consult_batch(&requests[..8]);
    assert!(again.iter().all(|o| o.adopted));

    let adopted = outcomes.iter().filter(|o| o.adopted).count();
    println!("adopted: {adopted}/{}", outcomes.len());
    // One locked pass over the shards collects all three accounting views.
    let stats = engine.shard_stats();
    println!(
        "total traffic: {} messages, {} bytes",
        stats.message_count, stats.total_bytes
    );
    for (shard, bytes) in stats.shard_bytes.into_iter().enumerate() {
        let agents = requests
            .iter()
            .filter(|(a, _)| engine.shard_of(*a) == shard)
            .count();
        println!("  shard {shard}: {agents} agents, {bytes} wire bytes");
    }

    // The batch is deterministic: a fresh engine consulted sequentially,
    // one agent at a time, reaches the identical decisions.
    let sequential =
        ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
    let all_match = requests
        .iter()
        .zip(&outcomes)
        .all(|((agent, spec), batched)| {
            sequential.consult(*agent, spec.as_ref()).adopted == batched.adopted
        });
    println!("\nbatch == sequential routed calls: {all_match}");
    assert!(all_match);
}
