//! Pins the generators' output streams to constants captured before the
//! sampler and op-buffer hot paths were rewritten: a change that alters
//! a single rank, RNG step or event fails here, at unit level, rather
//! than only through the figure snapshots.

use tiered_sim::{AccessKind, Op, SimRng, Workload, WorkloadEvent, MS};
use tiered_workloads::{WorkloadProfile, ZipfSampler};

/// First 64 ranks of `ZipfSampler::new(2_433, 0.7)` at seed 42.
const ZIPF_RANKS: [u64; 64] = [
    204, 922, 26, 172, 2413, 52, 35, 2068, 49, 1419, 1660, 707, 66, 0, 1730, 118, 15, 96, 32, 1722,
    224, 435, 1061, 13, 0, 1190, 1, 60, 1545, 562, 2, 1515, 2100, 206, 72, 44, 58, 109, 1140, 2365,
    1306, 30, 1955, 75, 138, 304, 9, 1348, 100, 80, 1264, 772, 467, 19, 69, 871, 1385, 54, 1234,
    1508, 219, 204, 533, 59,
];

#[test]
fn zipf_ranks_are_pinned() {
    let zipf = ZipfSampler::new(2_433, 0.7);
    let mut rng = SimRng::seed(42);
    let ranks: Vec<u64> = (0..64).map(|_| zipf.sample(&mut rng)).collect();
    assert_eq!(ranks, ZIPF_RANKS);
}

/// Folds one word into a running digest (FxHash step).
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Folds an op's `cpu_ns` and every event's variant, pid, VPN, kind and
/// page type.
fn fold_op(mut h: u64, op: &Op) -> u64 {
    h = fold(h, op.cpu_ns);
    for e in &op.events {
        match *e {
            WorkloadEvent::Access(a) => {
                h = fold(h, 0);
                h = fold(h, a.pid.0 as u64);
                h = fold(h, a.vpn.0);
                h = fold(h, matches!(a.kind, AccessKind::Store) as u64);
                h = fold(h, a.page_type as u64);
            }
            WorkloadEvent::Free { pid, vpn } => {
                h = fold(h, 1);
                h = fold(h, pid.0 as u64);
                h = fold(h, vpn.0);
            }
        }
    }
    h
}

/// Digest of the first 20k ops, 5 ms of simulated time apart (long
/// enough for every churn lifetime to expire within the run), generated
/// by `next_op` or into one reused buffer by `next_op_into`.
fn stream_digest(profile: &WorkloadProfile, seed: u64, reuse: bool) -> u64 {
    let mut w = profile.build();
    let mut rng = SimRng::seed(seed);
    let mut op = Op::default();
    let mut h = 0;
    for i in 0..20_000u64 {
        let now = i * 5 * MS;
        if reuse {
            w.next_op_into(now, &mut rng, &mut op);
        } else {
            op = w.next_op(now, &mut rng);
        }
        h = fold_op(h, &op);
    }
    h
}

/// `(profile, seed, digest)`, captured before the rewrite.
const STREAM_DIGESTS: [(&str, u64, u64); 6] = [
    ("cache1", 42, 0xff6a_288e_f99d_a9ce),
    ("cache1", 7, 0x1946_b2d4_abfd_34fe),
    ("fragmenter", 42, 0x2274_4f17_2cce_200b),
    ("fragmenter", 7, 0xdd75_10b4_19d4_7c3b),
    ("data_warehouse", 42, 0x1c1c_6ab6_d920_d9c6),
    ("data_warehouse", 7, 0x3816_46dc_d94c_2e30),
];

fn profile(name: &str) -> WorkloadProfile {
    match name {
        "cache1" => tiered_workloads::cache1(24_000),
        "fragmenter" => tiered_workloads::fragmenter(24_000),
        "data_warehouse" => tiered_workloads::data_warehouse(12_000),
        _ => unreachable!("unpinned profile {name}"),
    }
}

#[test]
fn op_streams_are_pinned() {
    for (name, seed, digest) in STREAM_DIGESTS {
        let profile = profile(name);
        for reuse in [false, true] {
            let got = stream_digest(&profile, seed, reuse);
            assert_eq!(
                got, digest,
                "{name} at seed {seed}, reuse {reuse}: {got:#x}"
            );
        }
    }
}
