//! Cold full-replay vs embedded-checkpoint seek on the pinball container.
//!
//! The paper's cyclic-debugging loop repeatedly re-executes the region
//! from its entry; the pinball container instead embeds serialized
//! replayer checkpoints every `checkpoint_interval` retired
//! instructions, so `Replayer::seek_to` restores the nearest preceding
//! checkpoint and replays only the tail chunk — O(chunk) rather than
//! O(region). This bench quantifies that on a ~100k-record
//! [`four_thread_needle`](bench::exp::four_thread_needle) trace at
//! 25/50/75% depth.

use std::sync::Arc;

use bench::exp::record_needle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minivm::NullTool;
use pinplay::{PinballContainer, Replayer, DEFAULT_CHECKPOINT_INTERVAL};

const ITERS: u64 = 4_200;

fn bench_seek(c: &mut Criterion) {
    let (program, pinball) = record_needle(ITERS);
    let total = pinball.logged_instructions();
    let container =
        PinballContainer::with_checkpoints(pinball, &program, DEFAULT_CHECKPOINT_INTERVAL);
    println!(
        "seek: {total} instructions, {} checkpoints every {DEFAULT_CHECKPOINT_INTERVAL}",
        container.checkpoints.len(),
    );

    let mut group = c.benchmark_group("seek");
    group.sample_size(10);
    for pct in [25u64, 50, 75] {
        let target = total * pct / 100;
        group.bench_with_input(
            BenchmarkId::new("cold-full-replay", pct),
            &target,
            |b, &t| {
                b.iter(|| {
                    let mut r = Replayer::new(Arc::clone(&program), &container.pinball);
                    r.run_steps(t, &mut NullTool);
                    r.replayed_instructions()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("checkpoint-seek", pct),
            &target,
            |b, &t| {
                b.iter(|| {
                    let mut r = Replayer::new(Arc::clone(&program), &container.pinball);
                    r.seek_to(&container, t);
                    r.replayed_instructions()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(seek, bench_seek);
criterion_main!(seek);
