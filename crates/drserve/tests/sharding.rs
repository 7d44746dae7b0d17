//! Shard-routing behavior: digest stickiness, shared index builds, and
//! the cross-shard stats rollup.
//!
//! Routing is the load-bearing invariant of the sharded service: every
//! request naming a pinball digest lands on shard `digest % N`, and
//! session ids are allocated so `id % N` recovers the owning shard. With
//! one worker thread per shard, that serializes every request about one
//! pinball without any cross-shard locking — eight clients slicing or
//! relogging the same pinball funnel into one shard and share one
//! dependence-index build and one relog. These tests pin
//! that down end to end through real connections, and check that the
//! `Stats` rollup is an exact sum of the per-shard breakdown.

use std::sync::Arc;
use std::thread;

use drdebug::DebugSession;
use drserve::{ServeConfig, Server, SliceAt};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, Pinball};
use slicer::{Criterion, RecordId, SliceOptions};

const SHARDS: usize = 4;

fn sharded_config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        max_sessions: 8,
        ..ServeConfig::default()
    }
}

fn recorded(units: u64, tag: &str) -> (Arc<Program>, Pinball) {
    let program = workloads::parsec::blackscholes(units);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(7),
        &mut LiveEnv::new(1),
        5_000_000,
        tag,
    )
    .expect("records");
    (program, rec.pinball)
}

/// Eight record ids spread evenly through the trace — eight distinct
/// slice criteria that all share one options fingerprint.
fn spread_criteria(program: &Arc<Program>, pinball: &Pinball) -> Vec<RecordId> {
    let mut local = DebugSession::new(Arc::clone(program), pinball.clone());
    let slicer = local.slicer();
    let records = slicer.trace().records();
    let n = records.len();
    assert!(n >= 8, "trace too short to spread 8 criteria");
    (1..=8).map(|k| records[(n - 1) * k / 8].id).collect()
}

#[test]
fn same_digest_funnels_to_one_shard_and_shares_one_index_build() {
    let (program, pinball) = recorded(60, "sharding-funnel");
    let criteria = spread_criteria(&program, &pinball);
    let server = Server::new(sharded_config());

    const CLIENTS: usize = 8;
    let sessions: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut client = server.loopback_client();
                let program = Arc::clone(&program);
                let pinball = &pinball;
                let criteria = &criteria;
                scope.spawn(move || {
                    let up = client.upload(&program, pinball).expect("upload");
                    let session = client.open(up.digest).expect("open");
                    for &id in criteria {
                        let at = SliceAt::Criterion {
                            criterion: Criterion::Record { id },
                        };
                        client
                            .compute_slice(session, at, SliceOptions::default())
                            .expect("slice");
                    }
                    // Every client then asks for the same slice pinball
                    // at once: the shard's one worker relogs it once.
                    let at = SliceAt::Criterion {
                        criterion: Criterion::Record { id: criteria[0] },
                    };
                    client
                        .relog(session, at, SliceOptions::default())
                        .expect("relog");
                    (up.digest, session)
                })
            })
            .collect();
        let results: Vec<(pinplay::PinballDigest, u64)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let digest = results[0].0;
        // Session ids all encode the digest's home shard.
        let home = (digest.0 % SHARDS as u64) as usize;
        for (d, session) in &results {
            assert_eq!(*d, digest, "content addressing is deterministic");
            assert_eq!(
                (*session % SHARDS as u64) as usize,
                home,
                "every session for one digest lives on its home shard"
            );
        }
        results.into_iter().map(|(_, s)| s).collect()
    });

    let stats = server.stats();
    assert_eq!(stats.shards.len(), SHARDS);
    assert_eq!(
        stats.pinballs, 2,
        "eight uploads dedupe to one pinball, plus one slice pinball"
    );

    // All eight sessions opened on exactly one shard; the rest are idle.
    let opened: Vec<u64> = stats
        .shards
        .iter()
        .map(|s| s.sessions.opened_total)
        .collect();
    assert_eq!(opened.iter().sum::<u64>(), CLIENTS as u64);
    assert_eq!(
        opened.iter().filter(|&&n| n > 0).count(),
        1,
        "sessions for one digest must not spread across shards: {opened:?}"
    );

    // One dependence index serves all 8 clients x 8 criteria: exactly one
    // build (cache miss) happened anywhere in the fleet.
    let index_builds: u64 = stats.shards.iter().map(|s| s.index_cache.misses).sum();
    let index_entries: u64 = stats.shards.iter().map(|s| s.index_cache.entries).sum();
    assert_eq!(index_builds, 1, "one shard builds the index exactly once");
    assert_eq!(index_entries, 1);

    // The slice cache computes each criterion once and serves the rest:
    // requests are serialized by the owning shard's single worker, so the
    // counts are exact, not approximate.
    assert_eq!(stats.cache.misses, criteria.len() as u64);
    assert_eq!(
        stats.cache.hits,
        (CLIENTS * criteria.len()) as u64 - criteria.len() as u64
    );
    // Eight concurrent relogs of one criterion: one relog, seven hits.
    assert_eq!(stats.relog_cache.misses, 1, "one relog across all clients");
    assert_eq!(stats.relog_cache.hits, CLIENTS as u64 - 1);

    // Session ops route by id: a different connection can address a
    // session it did not open.
    let mut outsider = server.loopback_client();
    for session in sessions {
        outsider
            .close(session)
            .expect("close from another connection");
    }
}

#[test]
fn distinct_digests_route_to_their_own_shards() {
    let server = Server::new(sharded_config());
    let mut client = server.loopback_client();
    for units in 3..11 {
        let (program, pinball) = recorded(units, "sharding-spread");
        let up = client.upload(&program, &pinball).expect("upload");
        let session = client.open(up.digest).expect("open");
        assert_eq!(
            session % SHARDS as u64,
            up.digest.0 % SHARDS as u64,
            "the session id encodes the digest's home shard"
        );
        client.close(session).expect("close");
    }
    let stats = server.stats();
    assert_eq!(stats.pinballs, 8);
}

#[test]
fn stats_rollup_is_an_exact_sum_of_the_shard_breakdown() {
    let (program, pinball) = recorded(60, "sharding-rollup");
    let server = Server::new(sharded_config());

    // Mixed traffic from four concurrent clients: uploads (round-robin),
    // session ops (digest-routed), slices (cached and not), stats.
    thread::scope(|scope| {
        for _ in 0..4 {
            let mut client = server.loopback_client();
            let program = Arc::clone(&program);
            let pinball = &pinball;
            scope.spawn(move || {
                let up = client.upload(&program, pinball).expect("upload");
                let session = client.open(up.digest).expect("open");
                client
                    .compute_slice(session, SliceAt::Failure, SliceOptions::default())
                    .expect("slice");
                client.stats().expect("stats");
                client.close(session).expect("close");
            });
        }
    });

    let s = server.stats();
    assert_eq!(s.shards.len(), SHARDS);
    assert_eq!(
        s.requests,
        s.shards.iter().map(|x| x.requests).sum::<u64>(),
        "request rollup must equal the shard sum"
    );
    assert_eq!(s.errors, s.shards.iter().map(|x| x.errors).sum::<u64>());
    assert_eq!(s.errors, 0, "no traffic in this test errors");
    assert_eq!(s.shed, s.shards.iter().map(|x| x.shed).sum::<u64>());
    assert_eq!(s.shed, 0, "default queue depth admits this traffic");
    assert_eq!(
        s.sessions.opened_total,
        s.shards
            .iter()
            .map(|x| x.sessions.opened_total)
            .sum::<u64>()
    );
    assert_eq!(
        s.cache.hits + s.cache.misses,
        s.shards
            .iter()
            .map(|x| x.cache.hits + x.cache.misses)
            .sum::<u64>()
    );
    // Per-op counts rolled up across shards cover every request exactly
    // once: the total of the per-op table equals the request total.
    let per_op_total: u64 = s.per_op.iter().map(|(_, op)| op.count).sum();
    assert_eq!(per_op_total, s.requests);
}
