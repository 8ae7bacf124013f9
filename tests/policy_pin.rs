//! Policy fingerprint pins: every policy's full outcome on a small fixed
//! machine — the whole vmstat, the src→dst migration matrix and the local
//! access count — must not move unless a change means it to.
//!
//! The gated figure CSVs cover only a few columns of a few policies;
//! these pins also cover AutoTiering, NUMA balancing and in-memory swap,
//! and the huge-page paths of Linux and TPP. A deliberate model change
//! updates the pin and shows the moved values in its change notes.

use tiered_mem::{Memory, NodeKind, ThpMode};
use tiered_sim::SEC;
use tiered_workloads::WorkloadProfile;
use tpp::configs;
use tpp::experiment::{run_cell, PolicyChoice};

const SEED: u64 = 42;
const DURATION: u64 = 60 * SEC;

/// One line per field: local/total accesses, the migration matrix, and
/// every non-zero vmstat counter (the rest are pinned at zero).
fn fingerprint(profile: &WorkloadProfile, memory: Memory, choice: &PolicyChoice) -> String {
    let r = run_cell(profile, memory, choice, DURATION, SEED).unwrap();
    let counters: Vec<String> = r
        .vmstat
        .iter()
        .filter(|&(_, v)| v != 0)
        .map(|(e, v)| format!("{}={v}", e.name()))
        .collect();
    format!(
        "local={}/{}\nmatrix={:?}\nvmstat={}",
        r.metrics.local_accesses,
        r.metrics.accesses,
        r.migration_matrix,
        counters.join(" ")
    )
}

fn base_page_2to1(choice: PolicyChoice) -> String {
    let profile = tiered_workloads::cache1(8_000);
    let memory = configs::two_to_one(profile.working_set_pages());
    fingerprint(&profile, memory, &choice)
}

fn thp_always_1to4(choice: PolicyChoice) -> String {
    let profile = tiered_workloads::cache1(16_384);
    let ws = profile.working_set_pages();
    let total = ws * 105 / 100;
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, total / 5)
        .node(NodeKind::Cxl, total - total / 5)
        .swap_pages(ws * 4)
        .thp_mode(ThpMode::Always);
    fingerprint(&profile, builder.build(), &choice)
}

#[test]
fn linux_2to1_pin() {
    assert_eq!(
        base_page_2to1(PolicyChoice::Linux),
        "local=9700360/11209038\n\
         matrix=[0, 0, 0, 0]\n\
         vmstat=pgfault=9028 pgmajfault=28 pgalloc_local=6017 \
         pgalloc_remote=2983 pgsteal=112 pgscan=4773 pswpout=112 pswpin=28"
    );
}

#[test]
fn numa_balancing_2to1_pin() {
    assert_eq!(
        base_page_2to1(PolicyChoice::NumaBalancing),
        "local=9684086/11196424\n\
         matrix=[0, 0, 34, 0]\n\
         vmstat=pgfault=9030 pgmajfault=30 pgalloc_local=6012 \
         pgalloc_remote=2988 pgsteal=140 pgscan=4807 pswpout=140 pswpin=30 \
         numa_pte_updates=57637 numa_hint_faults=49985 \
         numa_hint_faults_local=35949 pgpromote_candidate=14036 \
         pgpromote_attempt=34 pgpromote_success_anon=2 \
         pgpromote_success_file=32 pgpromote_fail_lowmem=14002 \
         pgmigrate_success=34"
    );
}

#[test]
fn autotiering_2to1_pin() {
    assert_eq!(
        base_page_2to1(PolicyChoice::AutoTiering),
        "local=10321547/11336851\n\
         matrix=[0, 380, 310, 0]\n\
         vmstat=pgfault=9000 pgalloc_local=6185 pgalloc_remote=2815 pgscan=5124 \
         pgdemote_file=380 numa_pte_updates=12190 numa_hint_faults=9786 \
         pgpromote_candidate=8838 pgpromote_attempt=310 \
         pgpromote_success_anon=310 pgpromote_fail_lowmem=8528 \
         pgmigrate_success=690"
    );
}

#[test]
fn tpp_2to1_pin() {
    assert_eq!(
        base_page_2to1(PolicyChoice::Tpp),
        "local=11532830/11590461\n\
         matrix=[0, 858, 558, 0]\n\
         vmstat=pgfault=9000 pgalloc_local=6628 pgalloc_remote=2372 pgscan=5579 \
         pgactivate=961 pgdemote_file=858 numa_pte_updates=4257 \
         numa_hint_faults=1590 pgpromote_candidate=629 \
         pgpromote_candidate_demoted=62 pgpromote_attempt=558 \
         pgpromote_success_anon=329 pgpromote_success_file=229 \
         pgpromote_fail_lowmem=71 pgpromote_skip_inactive=961 \
         pgmigrate_success=1416"
    );
}

#[test]
fn inmem_swap_2to1_pin() {
    assert_eq!(
        base_page_2to1(PolicyChoice::InMemorySwap),
        "local=9653874/11199742\n\
         matrix=[0, 0, 0, 0]\n\
         vmstat=pgfault=9018 pgmajfault=18 pgalloc_local=5993 \
         pgalloc_remote=3007 pgsteal=72 pgscan=4725 pswpout=72 pswpin=18"
    );
}

#[test]
fn linux_thp_always_1to4_pin() {
    assert_eq!(
        thp_always_1to4(PolicyChoice::Linux),
        "local=79620/9210482\n\
         matrix=[0, 0, 0, 0]\n\
         vmstat=pgfault=13824 pgmajfault=11 pgalloc_local=2747 \
         pgalloc_remote=11066 pgsteal=141 pgscan=2784 pswpout=141 pswpin=11 \
         thp_fault_alloc=10 thp_split=2"
    );
}

#[test]
fn tpp_thp_always_1to4_pin() {
    assert_eq!(
        thp_always_1to4(PolicyChoice::Tpp),
        "local=3656501/9952405\n\
         matrix=[0, 3692, 2627, 0]\n\
         vmstat=pgfault=13813 pgalloc_local=3615 pgalloc_remote=10198 \
         pgscan=10207 pgactivate=5517 pgdeactivate=1674 pgdemote_anon=196 \
         pgdemote_file=3496 numa_pte_updates=21100 numa_hint_faults=9898 \
         pgpromote_candidate=5403 pgpromote_candidate_demoted=409 \
         pgpromote_attempt=2627 pgpromote_success_anon=38 \
         pgpromote_success_file=2589 pgpromote_fail_lowmem=2776 \
         pgpromote_skip_inactive=4495 pgmigrate_success=6319 pgmigrate_fail=2 \
         thp_fault_alloc=10 thp_split=4"
    );
}
